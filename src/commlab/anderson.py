"""Anderson-style block tri-diagonal construction.

Two block tri-diagonal operators C and Z are assembled from four families of
rectangular blocks (1-based block index n, unscaled):

    A_n = (1/n)      n x (n+1),  main diagonal  sqrt(n), ..., sqrt(1), zero last column
    X_n = (1/n)      n x (n+1),  superdiagonal  sqrt(1), ..., sqrt(n)
    B_n = -1/(n+1)  (n+1) x n,   subdiagonal    sqrt(1), ..., sqrt(n)
    Y_n = 1/(n+1)   (n+1) x n,   main diagonal  sqrt(n), ..., sqrt(1), zero last row

C carries (A_n, B_n) on its block super/sub diagonals and Z carries
(X_n, Y_n).  Unscaled, [C, Z] is the rank-one projection onto the first
coordinate.  Multiplying every index-n block by sqrt(d_n) telescopes the
commutator into the diagonal with d_1 at the top and (d_{n+1} - d_n)/(n+1)
across the block of size n+1, so non-decreasing weights with d_n/n -> 0
produce a positive compact diagonal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import numkit
from .numkit import DomainError, VerificationError
from .report import SolveReport
from .sequences import PowerLog, WeightSequence

IDENTITY_TOL = 1e-12

#: Eigenvalue-list parameterizations accepted by :func:`eigenvalue_profile`.
DIFFERENCES = "differences"
CESARO_FORM = "cesaro"


def _sqrt_run(n: int) -> np.ndarray:
    return np.sqrt(np.arange(1, n + 1, dtype=np.float64))


def block_runs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero entries of the unscaled blocks (A_n, B_n, X_n, Y_n), n >= 1.

    Each block is one run of n values on a fixed offset: A_n and Y_n on the
    main diagonal (from the top-left), X_n on the superdiagonal (+1) and
    B_n on the subdiagonal (-1).
    """
    if n < 1:
        raise DomainError("block index must be >= 1")
    roots = _sqrt_run(n)
    return roots[::-1] / n, -roots / (n + 1), roots / n, roots[::-1] / (n + 1)


def make_blocks(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unscaled dense blocks (A_n, B_n, X_n, Y_n) for block index n >= 1.

    Operator norms: ||A_n|| = ||X_n|| = 1/sqrt(n) and
    ||B_n|| = ||Y_n|| = sqrt(n)/(n+1).
    """
    a_run, b_run, x_run, y_run = block_runs(n)
    i = np.arange(n)
    a = np.zeros((n, n + 1), dtype=np.complex128)
    a[i, i] = a_run
    x = np.zeros((n, n + 1), dtype=np.complex128)
    x[i, i + 1] = x_run
    b = np.zeros((n + 1, n), dtype=np.complex128)
    b[i + 1, i] = b_run
    y = np.zeros((n + 1, n), dtype=np.complex128)
    y[i, i] = y_run
    return a, b, x, y


def identity_checks(n: int) -> SolveReport:
    """Verify the five product identities behind the construction at index n.

    With unscaled blocks:

        A_1 Y_1 - X_1 B_1         = [1]
        B_n X_n - Y_n A_n         = -I_{n+1} / (n+1)
        A_{n+1} Y_{n+1} - X_{n+1} B_{n+1} = +I_{n+1} / (n+1)
        B_{n+1} Y_n - Y_{n+1} B_n = 0      (sub-diagonal blocks of [C, Z])
        A_n X_{n+1} - X_n A_{n+1} = 0      (super-diagonal blocks of [C, Z])

    The second and third identity cancel block-row by block-row, which is
    what collapses [C, Z] to the rank-one projection.  Each residual must
    stay below 1e-12; a violation raises VerificationError naming the
    identity.
    """
    if n < 1:
        raise DomainError("block index must be >= 1")
    a1, b1, x1, y1 = make_blocks(1)
    an, bn, xn, yn = make_blocks(n)
    an1, bn1, xn1, yn1 = make_blocks(n + 1)
    eye = np.eye(n + 1)

    residuals = {
        "first_diagonal": np.abs(a1 @ y1 - x1 @ b1 - np.ones((1, 1))).max(),
        "down_up_product": np.abs(bn @ xn - yn @ an + eye / (n + 1)).max(),
        "up_down_product": np.abs(an1 @ yn1 - xn1 @ bn1 - eye / (n + 1)).max(),
        "sub_cross": np.abs(bn1 @ yn - yn1 @ bn).max(),
        "super_cross": np.abs(an @ xn1 - xn @ an1).max(),
    }
    rep = SolveReport(command=f"identity-checks n={n}")
    for name, res in residuals.items():
        rep.check(name, float(res), IDENTITY_TOL)
        if res > IDENTITY_TOL:
            raise VerificationError(f"block identity '{name}' fails at n={n}: {res:.3e}")
    return rep


@dataclass(frozen=True)
class BlockTriDiagonalOperator:
    """Ordered dense block lists before assembly.

    The verifier never builds these; they serve the dense test oracle and
    the benchmark's tracing only.

    Block n of ``super_blocks`` is n x (n+1) and block n of ``sub_blocks`` is
    (n+1) x n.  The diagonal blocks are zero, so the operator is fixed by
    these two lists alone.
    """

    super_blocks: tuple[np.ndarray, ...]
    sub_blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        for n, blk in enumerate(self.super_blocks, start=1):
            if blk.shape != (n, n + 1):
                raise numkit.ShapeError(
                    f"super block {n} has shape {blk.shape}, expected {(n, n + 1)}"
                )
        for n, blk in enumerate(self.sub_blocks, start=1):
            if blk.shape != (n + 1, n):
                raise numkit.ShapeError(
                    f"sub block {n} has shape {blk.shape}, expected {(n + 1, n)}"
                )
        if len(self.super_blocks) != len(self.sub_blocks):
            raise numkit.ShapeError("super/sub block counts differ")

    @property
    def block_count(self) -> int:
        return len(self.super_blocks)

    @property
    def dimension(self) -> int:
        m = self.block_count
        return (m + 1) * (m + 2) // 2


def build_modified(weights: WeightSequence, block_count: int
                   ) -> tuple[BlockTriDiagonalOperator, BlockTriDiagonalOperator]:
    """Scale every index-n block by sqrt(d_n) and return the pair (C, Z).

    Materialises all 4m dense blocks (O(m^3) memory).  The verifier works
    on :func:`block_runs` instead; this serves the test oracles and the
    benchmark's tracing only.
    """
    if block_count < 1:
        raise DomainError("block_count must be >= 1")
    d = weights.values(block_count + 1)
    if (d < 0).any():
        raise DomainError("weights must be nonnegative")
    scale = np.sqrt(d)
    c_super, c_sub, z_super, z_sub = [], [], [], []
    for n in range(1, block_count + 1):
        a, b, x, y = make_blocks(n)
        s = scale[n - 1]
        c_super.append(s * a)
        c_sub.append(s * b)
        z_super.append(s * x)
        z_sub.append(s * y)
    c = BlockTriDiagonalOperator(tuple(c_super), tuple(c_sub))
    z = BlockTriDiagonalOperator(tuple(z_super), tuple(z_sub))
    return c, z


def _block_offsets(block_count: int) -> list[int]:
    # Block row k (1-based) has size k and starts at k(k-1)/2.
    return [k * (k - 1) // 2 for k in range(1, block_count + 3)]


def assemble(op: BlockTriDiagonalOperator) -> np.ndarray:
    """Dense square matrix with blocks placed tri-diagonally.

    The verifier never assembles; this serves tests, as the dense oracle
    with :func:`numkit.commutator`, and the benchmark's tracing only.
    """
    m = op.block_count
    dim = op.dimension
    off = _block_offsets(m)
    out = np.zeros((dim, dim), dtype=np.complex128)
    for n in range(1, m + 1):
        r0, r1 = off[n - 1], off[n - 1] + n
        c0, c1 = off[n], off[n] + n + 1
        out[r0:r1, c0:c1] = op.super_blocks[n - 1]
        out[c0:c1, r0:r1] = op.sub_blocks[n - 1]
    return out


def telescoped_profile(d: np.ndarray) -> np.ndarray:
    """Predicted scalar on diagonal block k: d_1 at k=1, else (d_k - d_{k-1})/k."""
    k = np.arange(1, d.size + 1, dtype=np.float64)
    out = np.empty_like(d)
    out[0] = d[0]
    out[1:] = (d[1:] - d[:-1]) / k[1:]
    return out


def _scaled_runs(scale: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    s = scale[n - 1]
    return tuple(s * run for run in block_runs(n))


def verify_positive_commutator(weights: WeightSequence, block_count: int,
                               tolerance: float = numkit.DEFAULT_TOL) -> SolveReport:
    """Certify the structure of [C, Z] at the given truncation.

    C and Z are block tri-diagonal with zero diagonal blocks, so block
    (i, j) of [C, Z] is a sum over block rows i +- 1 and vanishes unless
    j is i or i +- 2.  Every scaled block is one run (a, b, x, y) of
    :func:`block_runs` times sqrt(d_n), so every product of two blocks is
    one run too: diagonal block k of [C, Z] is the diagonal matrix

        [0, b x]_{k-1} - [y a, 0]_{k-1} + (a y - x b)_k

    (the first two terms absent at k = 1, the last at k = m+1), and the
    two-step shift blocks (k, k+2) and (k+2, k) are the single diagonals
    a_k x_{k+1}[:k] - x_k a_{k+1}[1:] and b_{k+1}[:k] y_k - y_{k+1}[1:] b_k.
    One pass over k keeps only the products y a, b x of index k-1 and the
    runs of indices k and k+1, so m blocks (dense dimension (m+1)(m+2)/2)
    take O(m^2) time and O(m) memory; no block is ever materialised.

    Report rows: (a) ``off_tridiagonal_mass``, the mass outside the block
    pentadiagonal support, is structural and therefore exactly 0.0;
    asserted to ``tolerance``: (b) the interior two-step shift blocks
    vanish, (c) the interior diagonal blocks (all but the last two block
    rows, where truncation breaks the telescoping) match the telescoped
    scalar profile.  The measured per-block diagonal means and the boundary
    residual are recorded in ``details`` rather than asserted.
    """
    if block_count < 3:
        raise DomainError("block_count must be >= 3")
    start = time.perf_counter()
    d = weights.values(block_count + 1)
    if (d < 0).any():
        raise DomainError("weights must be nonnegative")
    scale = np.sqrt(d)
    nblocks = block_count + 1
    predicted = telescoped_profile(d)

    # Neither operator has diagonal blocks, so every product block of [C, Z]
    # off the diagonal and the two-step shifts is an empty sum.
    off_mass = 0.0
    shift_interior = 0.0
    shift_boundary = 0.0
    block_means = np.empty(nblocks)
    diag_dev = 0.0
    boundary_residual = 0.0
    failures: list[int] = []
    runs = _scaled_runs(scale, 1)
    for k in range(1, nblocks + 1):
        # Diagonal block k: index k-1 gives [0, b x] - [y a, 0] and index k
        # gives a y - x b.  The last block has no index k, which is where
        # truncation shows.  The diagonal stays complex because np.mean
        # scales a complex sum by 1/k; a real mean would round block_means
        # differently from the dense block's.
        blk = np.zeros(k, dtype=np.complex128)
        if k >= 2:
            blk[1:] += bx
            blk[:-1] -= ay
        if k <= block_count:
            a, b, x, y = runs
            ay, bx = a * y, b * x
            blk += ay - bx
        block_means[k - 1] = float(np.mean(blk).real)
        dev = float(np.abs(blk - predicted[k - 1]).max())
        if k <= nblocks - 2:
            diag_dev = max(diag_dev, dev)
            if dev > tolerance:
                failures.append(k)
        else:
            boundary_residual = max(boundary_residual, dev)
        if k < block_count:
            # Blocks (k, k+2) and (k+2, k), both through block row k+1.
            runs = a1, b1, x1, y1 = _scaled_runs(scale, k + 1)
            up = a * x1[:k] - x * a1[1:]
            down = b1[:k] * y - y1[1:] * b
            mass = max(np.abs(up).max(), np.abs(down).max())
            if k + 2 <= nblocks - 2:
                shift_interior = max(shift_interior, mass)
            else:
                shift_boundary = max(shift_boundary, mass)

    rep = SolveReport(command="anderson-verify")
    rep.check("off_tridiagonal_mass", off_mass, tolerance)
    rep.check("interior_shift_mass", shift_interior, tolerance)
    rep.check("interior_diagonal_residual", diag_dev, tolerance)
    rep.details.update(
        block_means=block_means,
        predicted_profile=predicted,
        boundary_residual=boundary_residual,
        boundary_shift_mass=shift_boundary,
        dimension=nblocks * (nblocks + 1) // 2,
        weights=d,
    )
    rep.wall_time = time.perf_counter() - start
    if failures:
        raise VerificationError(
            f"diagonal block(s) {failures} deviate from the telescoped profile "
            f"beyond {tolerance:g}"
        )
    if off_mass > tolerance or shift_interior > tolerance:
        raise VerificationError(
            "off-structure mass exceeds tolerance "
            f"(off={off_mass:.3e}, shifts={shift_interior:.3e})"
        )
    return rep


@dataclass(frozen=True)
class AdmissibilityReport:
    """Whether d_n/n -> 0; analytic for the closed-form family, otherwise a
    tail diagnostic with no limit claim."""

    analytic: bool
    admissible: bool | None
    tail_max_ratio: float
    horizon: int


def admissible(weights: WeightSequence, horizon: int = 256) -> AdmissibilityReport:
    """Decide (or diagnose) the growth condition d_n/n -> 0.

    The tail maximum of d_n/n is reported over the second half of the
    horizon window, capped at the available prefix for explicit data.
    """
    if weights.family is not None:
        fam: PowerLog = weights.family
        count = horizon
        d = fam.terms(count)
        verdict: bool | None = fam.ratio_to_index_vanishes()
        analytic = True
    else:
        count = min(horizon, len(weights.prefix))
        d = weights.values(count)
        verdict = None
        analytic = False
    if count == 0:
        return AdmissibilityReport(analytic, verdict, 0.0, 0)
    n = np.arange(1, count + 1, dtype=np.float64)
    lo = count // 2
    tail = float(np.max(d[lo:] / n[lo:]))
    return AdmissibilityReport(analytic, verdict, tail, count)


def eigenvalue_profile(weights: WeightSequence, parameterization: str,
                       terms: int) -> np.ndarray:
    """Materialize the multiplicity-graded eigenvalue list.

    ``differences``: (d_1, (d_2-d_1)/2 x2, (d_3-d_2)/3 x3, ...);
    ``cesaro``: (d_1, d_2/2 x2, d_3/3 x3, ...).  Truncated to ``terms``.
    """
    if terms < 0:
        raise DomainError("terms must be nonnegative")
    if terms == 0:
        return np.empty(0)
    groups = 1
    while groups * (groups + 1) // 2 < terms:
        groups += 1
    d = weights.values(groups)
    if parameterization == DIFFERENCES:
        values = telescoped_profile(d)
    elif parameterization == CESARO_FORM:
        values = d / np.arange(1, groups + 1, dtype=np.float64)
    else:
        raise DomainError(f"unknown parameterization {parameterization!r}")
    return np.repeat(values, np.arange(1, groups + 1))[:terms]
