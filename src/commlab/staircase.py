"""Simultaneous banded ("staircase") forms for finite operator collections.

A unitary fixing e_1 is produced by orthonormalizing a generating stream:
round m emits e_m and then the images of the m-th accepted basis vector
under every operator (and under every adjoint unless all inputs are
self-adjoint).  Each round can contribute at most 2N+1 new basis vectors
(N+1 in the self-adjoint case), so row and column m of every transformed
operator live inside the first m(2N+1) (resp. m(N+1)) entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .numkit import DomainError, NumericError
from .report import SolveReport

# Relative magnitude floor when picking the phase-normalization pivot.
_PIVOT_RTOL = 1e-8

# Default band tolerance of the ``staircase`` certificate and command.
BAND_TOL = 1e-9


@dataclass(frozen=True)
class StaircaseResult:
    """Change of basis plus the transformed operators and their band data.

    ``band_profile[i][r]`` is the 1-based largest column index of an entry of
    ``transformed[i]`` in row r+1 with modulus above the tolerance (0 for an
    empty row).
    """

    unitary: np.ndarray
    transformed: tuple[np.ndarray, ...]
    band_profile: tuple[np.ndarray, ...]


def _phase_fix(w: np.ndarray) -> np.ndarray:
    # Scale so the first significantly nonzero coordinate is real positive;
    # makes the accepted basis, hence U, deterministic.
    mags = np.abs(w)
    pivot = int(np.flatnonzero(mags > _PIVOT_RTOL * mags.max())[0])
    return w * (mags[pivot] / w[pivot])


def staircase_form(ops, selfadjoint_hint: bool = False,
                   tolerance: float = numkit.DEFAULT_TOL) -> StaircaseResult:
    """Compute the simultaneous staircase form of one or more operators.

    With ``selfadjoint_hint`` every input must be Hermitian (DomainError
    otherwise) and only direct images enter the stream, giving the thinner
    m(N+1) band.  The first basis vector is always exactly e_1.  Raises
    NumericError when the stream fails to span, as it does when
    ``tolerance`` rejects every offer.
    """
    mats = [numkit.as_square(a) for a in ops]
    if not mats:
        raise DomainError("need at least one operator")
    dim = mats[0].shape[0]
    if any(a.shape[0] != dim for a in mats):
        raise numkit.ShapeError("operators must share one dimension")
    if selfadjoint_hint:
        for a in mats:
            numkit.require_hermitian(a)

    basis = np.zeros((dim, dim), dtype=np.complex128)
    count = 0

    def offer(v: np.ndarray) -> None:
        nonlocal count
        u = numkit.gram_schmidt_step(v, basis[:, :count], tolerance)
        if u is not None:
            basis[:, count] = _phase_fix(u)
            count += 1

    for m in range(dim):
        if count == dim:
            break
        unit = np.zeros(dim, dtype=np.complex128)
        unit[m] = 1.0
        offer(unit)
        b = basis[:, m].copy()
        for a in mats:
            if count == dim:
                break
            offer(a @ b)
            if not selfadjoint_hint and count < dim:
                offer(a.conj().T @ b)
    if count < dim:
        raise NumericError(f"generating stream spanned only {count} of {dim} "
                           f"dimensions at tolerance {tolerance:g}")

    transformed = tuple(basis.conj().T @ a @ basis for a in mats)
    profile = []
    for t in transformed:
        big = np.abs(t) > tolerance
        profile.append(np.where(big.any(axis=1), big.shape[1] - np.argmax(big[:, ::-1], axis=1), 0))
    return StaircaseResult(
        unitary=basis,
        transformed=transformed,
        band_profile=tuple(np.asarray(p, dtype=np.int64) for p in profile),
    )


def band_bound_factor(n_ops: int, selfadjoint: bool) -> int:
    return n_ops + 1 if selfadjoint else 2 * n_ops + 1


def verify_band(result: StaircaseResult, n_ops: int, selfadjoint: bool,
                tolerance: float) -> bool:
    """Check the banded sparsity claim on every transformed operator.

    True iff for each operator, every entry of modulus above ``tolerance``
    at position (r, c) (1-based) satisfies c <= r * f and r <= c * f with
    f = 2*n_ops + 1 (n_ops + 1 in the self-adjoint case).
    """
    factor = band_bound_factor(n_ops, selfadjoint)
    for t in result.transformed:
        d = t.shape[0]
        idx = np.arange(1, d + 1)
        allowed = (idx[None, :] <= factor * idx[:, None]) & (idx[:, None] <= factor * idx[None, :])
        if (np.abs(t) > tolerance)[~allowed].any():
            return False
    return True


def certify(ops, selfadjoint: bool = False, tolerance: float = BAND_TOL) -> SolveReport:
    """The ``staircase`` certificate: rows for U's unitary defect, U e_1 = e_1
    exactly and :func:`verify_band`; U as ``unitary``, operator i as
    ``transformed_i`` and its band profile against r * f as table ``band_i``.
    """
    result = staircase_form(ops, selfadjoint_hint=selfadjoint, tolerance=tolerance)
    u, n_ops = result.unitary, len(result.transformed)
    rep = SolveReport(command="staircase")
    rep.check("unitary_defect", numkit.unitary_defect(u), 1e-9)
    e1 = np.eye(u.shape[0], 1, dtype=np.complex128)[:, 0]
    rep.check("fixes_e1", float(np.abs(u[:, 0] - e1).max()), 0.0,
              passed=bool((u[:, 0] == e1).all()))
    ok = verify_band(result, n_ops, selfadjoint, tolerance)
    rep.check("band_bound", 0.0 if ok else 1.0, 0.5)
    rep.matrices["unitary"] = u
    factor = band_bound_factor(n_ops, selfadjoint)
    for i, (t, profile) in enumerate(zip(result.transformed, result.band_profile)):
        rep.matrices[f"transformed_{i}"] = t
        rows = range(1, profile.size + 1)
        rep.tables[f"band_{i}"] = (("row_index", "max_col", "bound"), list(zip(
            rows, profile.tolist(), (r * factor for r in rows))))
    return rep


def diagonal_invariance_check(diag_matrix, unitary, tolerance: float) -> bool:
    """True iff ||U* D U - D||_F <= tolerance for diagonal D and unitary U."""
    d = numkit.as_square(diag_matrix)
    u = numkit.as_square(unitary)
    if d.shape != u.shape:
        raise numkit.ShapeError("dimension mismatch between D and U")
    return float(np.linalg.norm(u.conj().T @ d @ u - d)) <= tolerance
