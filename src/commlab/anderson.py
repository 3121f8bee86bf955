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

import math
from dataclasses import dataclass

import numpy as np

from . import numkit
from .numkit import DomainError, VerificationError
from .report import SolveReport
from .sequences import WeightSequence

IDENTITY_TOL = 1e-12

#: Entries (block rows x widest row) per chunk of the verifier.  Smaller
#: budgets leave single rows 10^4 entries wide paying the per-chunk numpy
#: calls; larger ones let a chunk's dozen work arrays outgrow a 2 MB L2
#: cache.  Measured on a 2-vCPU VM, 480 blocks run fastest near 2^13 and
#: 10^4 blocks near 2^15; 2^15 costs 480 blocks about 1 ms.
_CHUNK = 1 << 15

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


def _chunk_rows(first: int) -> int:
    """Block rows from ``first`` on whose run arrays fit in ``_CHUNK`` entries.

    A chunk of r rows is first + r - 1 entries wide, so this is the largest
    r with r (first + r - 1) <= _CHUNK, and at least one row.
    """
    b = first - 1
    return max(1, (math.isqrt(b * b + 4 * _CHUNK) - b) // 2)


def _window(base: np.ndarray, offset: int, shape: tuple[int, ...],
            strides: tuple[int, ...]) -> np.ndarray:
    """View of C-contiguous ``base`` with offset and strides counted in entries.

    ``np.ndarray`` checks that the view stays inside ``base``.  Windows from
    ``np.lib.stride_tricks.as_strided`` would do as well, but with numpy 2.4
    they made the RSS of a process grow by 0.9 MB over 27,000 verifier calls
    at 36-60 blocks, where these windows keep it flat.
    """
    step = base.itemsize
    return np.ndarray(shape, base.dtype, buffer=base, offset=offset * step,
                      strides=tuple(stride * step for stride in strides))


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
    No block is ever materialised: m blocks (dense dimension (m+1)(m+2)/2)
    take O(m^2) time and O(m) memory.

    The runs mirror each other entry for entry in floating point: x_n is
    a_n reversed and b_n is -y_n reversed.  So b x is -(a y) reversed, each
    diagonal block reads the same backwards, and each shift diagonal is
    antisymmetric (entry k-1-j is minus entry j), so a block's deviation
    and a shift's mass lie in its first half.  Only a, y and a y are
    formed, each once, from one quotient sqrt(n-j)/n per entry.

    The work goes a chunk of consecutive block rows at a time, at most
    ``_CHUNK`` entries of run arrays, so its numpy calls are per chunk,
    not per block.  Entry j of run n and of diagonal block n sit in column
    j of row n, so each term above is one slice, or one mirrored view, of
    the chunk's rows; the last run of a chunk is carried into the next.  The terms are added in the order written, so
    every entry rounds as it does for one block alone, and the deviations
    and masses are row maxima, exact in any order.  The block means are
    not: numpy sums a complex vector pairwise, so each block's mean stays
    one complex sum over that block's entries alone, divided by k as
    ``np.mean`` does.

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
    d = weights.values(block_count + 1)
    if (d < 0).any():
        raise DomainError("weights must be nonnegative")
    m = block_count
    nblocks = m + 1
    predicted = telescoped_profile(d)
    scale = np.sqrt(d)[:, None]
    index = np.arange(nblocks + 1, dtype=np.float64)[:, None]
    # Row n of ``falling`` is sqrt(n), ..., sqrt(1) and then zeros, and row k
    # of ``inside`` marks the first k columns: each row starts one entry
    # earlier in the same vector.
    falling = _window(np.concatenate([_sqrt_run(nblocks)[::-1], np.zeros(nblocks + 1)]),
                      nblocks, (nblocks + 1, nblocks + 1), (-1, 1))
    inside = _window(np.arange(2 * nblocks) < nblocks, nblocks,
                     (nblocks + 1, nblocks), (-1, 1))

    block_means = np.empty(nblocks)
    devs = np.empty(nblocks)      # max |diagonal block k - predicted_k|
    shifts = np.empty(m - 1)      # mass of the shift blocks through row k+1
    carry = np.zeros((3, 0))      # run k0-1 as (a, y, a y)
    carry_q = falling[1, :1]      # falling_k0 / k0
    k0 = 1
    while k0 <= nblocks:
        k1 = min(k0 + _chunk_rows(k0) - 1, nblocks)
        rows, width, top = k1 - k0 + 1, k1, min(k1, m)
        own = top - k0 + 1        # block rows k0..top have a run of their own
        # a_n = sqrt(d_n) falling_n / n and y_n = sqrt(d_n) falling_{n+1}[1:] / (n+1):
        # row i of q is falling_n / n for n = k0+i.
        q = np.empty((own + 1, width + 1))
        q[0, :carry_q.size] = carry_q
        q[0, carry_q.size:] = 0.0
        np.divide(falling[k0 + 1:top + 2, :width + 1], index[k0 + 1:top + 2], out=q[1:])
        # Row i of each plane is run n = k0-1+i, and its mirror reads entry
        # n-1-j at column j.  Moving down a row moves that entry one column
        # right, so the mirror is one window with strides (width + 1, -1).
        # Past a run's end it reads the zeros that end the row above, or,
        # on row 0, the ``rows`` zeros before it.
        size = rows + (own + 1) * width
        planes = np.empty((3, size))
        planes[:, :rows + width] = 0.0
        runs = planes[:, rows:].reshape(3, own + 1, width)
        runs[:, 0, :carry.shape[1]] = carry
        a, y, ay = runs
        x, minus_b, minus_bx = _window(planes, rows + k0 - 2, (3, own + 1, width),
                                       (size, width + 1, -1))
        s = scale[k0 - 1:top]
        np.multiply(q[:-1, :-1], s, out=a[1:])
        np.multiply(q[1:, 1:], s, out=y[1:])
        np.multiply(a[1:], y[1:], out=ay[1:])

        diag = np.empty((rows, width))
        diag[:, 0] = 0.0
        np.subtract(0.0, minus_bx[:rows, :-1], out=diag[:, 1:])
        diag -= ay[:rows]
        diag[:own] += ay[1:] + minus_bx[1:]
        half = (width + 1) // 2   # covers the first half of every block
        dev = np.abs(diag[:, :half] - predicted[k0 - 1:k1, None])
        devs[k0 - 1:k1] = dev.max(axis=1, where=inside[k0:k1 + 1, :half], initial=0.0)
        block_means[k0 - 1:k1] = [(np.add.reduce(row[:k]) / k).real for k, row in
                                  enumerate(diag.astype(np.complex128), start=k0)]

        # Shift blocks through row k+1 pair runs k and k+1; run 0 has none.
        lo = 1 if k0 == 1 else 0
        half = width // 2         # covers the first half of runs k0-1..k1-1
        up = a[lo:-1, :half] * x[lo + 1:, :half] - x[lo:-1, :half] * a[lo + 1:, 1:half + 1]
        down = (minus_b[lo + 1:, :half] * y[lo:-1, :half]
                - y[lo + 1:, 1:half + 1] * minus_b[lo:-1, :half])
        shifts[k0 - 2 + lo:k0 - 2 + own] = np.maximum(
            np.abs(up, out=up).max(axis=1, initial=0.0),
            np.abs(down, out=down).max(axis=1, initial=0.0))
        carry, carry_q = runs[:, -1], q[-1]
        k0 = k1 + 1

    # Neither operator has diagonal blocks, so every product block of [C, Z]
    # off the diagonal and the two-step shifts is an empty sum.
    off_mass = 0.0
    interior = devs[:nblocks - 2]
    diag_dev = float(interior.max())
    boundary_residual = float(devs[nblocks - 2:].max())
    shift_interior = float(shifts[:m - 3].max(initial=0.0))
    shift_boundary = float(shifts[m - 3:].max())
    failures = (np.flatnonzero(interior > tolerance) + 1).tolist()

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


def certify(weights: WeightSequence, block_count: int,
            tolerance: float = numkit.DEFAULT_TOL) -> SolveReport:
    """The ``anderson-verify`` certificate: the verifier's report, the growth
    condition d_n/n -> 0 and table ``blocks`` (each diagonal block's mean and
    its distance from the telescoped profile).

    ``admissible_growth`` is asserted for the closed-form family only, where
    it is analytic; ``tail_max_ratio``, the maximum of d_n/n over the second
    half of 256 terms (capped at an explicit prefix), claims no limit.
    """
    rep = verify_positive_commutator(weights, block_count, tolerance)
    fam = weights.family
    if fam is not None:
        rep.check("admissible_growth", 0.0 if fam.ratio_to_index_vanishes() else 1.0, 0.5)
        d = fam.terms(256)
    else:
        d = weights.values(min(256, len(weights.prefix)))
    lo = d.size // 2
    rep.info("tail_max_ratio", float(np.max(d[lo:] / np.arange(lo + 1, d.size + 1.0))))
    means = rep.details["block_means"]
    rep.tables["blocks"] = (("block_index", "diagonal_value", "residual"), list(zip(
        range(1, means.size + 1), means.tolist(),
        np.abs(means - rep.details["predicted_profile"]).tolist())))
    return rep


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
