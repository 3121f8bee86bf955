"""Block-product verifier, kept as the oracle for ``anderson.verify_positive_commutator``.

This is the verifier ``anderson`` ran before it moved to diagonal runs: it
builds all 4m scaled dense blocks with ``anderson.build_modified`` and forms
every diagonal and two-step shift block of [C, Z] from ``@`` products of
them.  Each product of two shifted-diagonal blocks has one nonzero term per
entry, so ``test_anderson`` requires the run verifier to give the same
figures bit for bit.
"""

from __future__ import annotations

import numpy as np

from commlab import anderson


def block_product_figures(weights, block_count: int, tolerance: float) -> dict:
    """Check rows (name -> measured), details and failing interior blocks."""
    d = weights.values(block_count + 1)
    c_op, z_op = anderson.build_modified(weights, block_count)
    c_sup, c_sub = c_op.super_blocks, c_op.sub_blocks
    z_sup, z_sub = z_op.super_blocks, z_op.sub_blocks
    nblocks = block_count + 1
    predicted = anderson.telescoped_profile(d)

    shift_interior = 0.0
    shift_boundary = 0.0
    for k in range(1, nblocks - 1):
        # Blocks (k, k+2) and (k+2, k), both through block row k+1.
        up = c_sup[k - 1] @ z_sup[k] - z_sup[k - 1] @ c_sup[k]
        down = c_sub[k] @ z_sub[k - 1] - z_sub[k] @ c_sub[k - 1]
        mass = max(np.abs(up).max(), np.abs(down).max())
        if k + 2 <= nblocks - 2:
            shift_interior = max(shift_interior, mass)
        else:
            shift_boundary = max(shift_boundary, mass)

    block_means = np.empty(nblocks)
    diag_dev = 0.0
    boundary_residual = 0.0
    failures: list[int] = []
    for k in range(1, nblocks + 1):
        blk = np.zeros((k, k), dtype=np.complex128)
        if k >= 2:
            blk += c_sub[k - 2] @ z_sup[k - 2] - z_sub[k - 2] @ c_sup[k - 2]
        if k <= block_count:
            blk += c_sup[k - 1] @ z_sub[k - 1] - z_sup[k - 1] @ c_sub[k - 1]
        block_means[k - 1] = float(np.mean(np.diag(blk)).real)
        dev = float(np.abs(blk - predicted[k - 1] * np.eye(k)).max())
        if k <= nblocks - 2:
            diag_dev = max(diag_dev, dev)
            if dev > tolerance:
                failures.append(k)
        else:
            boundary_residual = max(boundary_residual, dev)

    return dict(
        checks={
            "off_tridiagonal_mass": 0.0,
            "interior_shift_mass": float(shift_interior),
            "interior_diagonal_residual": float(diag_dev),
        },
        block_means=block_means,
        predicted_profile=predicted,
        boundary_residual=boundary_residual,
        boundary_shift_mass=shift_boundary,
        dimension=c_op.dimension,
        failures=failures,
    )
