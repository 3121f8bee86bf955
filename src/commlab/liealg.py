"""Finite-dimensional Lie theory on sl(r+1, C).

Matrix-unit root data, the Killing form computed from adjoint matrices, a
semisimplicity test via Gram nondegeneracy, the root-space self-commutator
solver, and the two-commutator additive decomposition.
"""

from __future__ import annotations

import numpy as np

from . import numkit, selfcomm
from .numkit import DomainError, NumericError
from .report import SolveReport

SPAN_RTOL = 1e-8


class SlRootData:
    """Matrix units E_jk of M_{r+1}(C) with the standard root conventions.

    H_j = E_jj - E_{j+1,j+1} for j = 1..r is the Cartan basis; the simple
    root through (j, j+1) is represented by the same matrix, since the
    functional it induces is H -> Tr((E_jj - E_{j+1,j+1}) H).  Indices are
    1-based to match the usual formulas; the stored arrays are 0-based.
    """

    def __init__(self, rank: int):
        if rank < 1:
            raise DomainError("rank must be >= 1")
        self.rank = rank
        self.dimension = rank + 1
        n = self.dimension
        # _units[j-1, k-1] is E_jk.
        self._units = np.eye(n * n, dtype=np.complex128).reshape(n, n, n, n)
        self._validate()

    def _validate(self) -> None:
        n = self.dimension
        units = self._units
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                # E_jk E_ql for every (q, l) at once: E_jl where q = k, else 0.
                got = units[j - 1, k - 1] @ units
                expect = np.zeros_like(units)
                expect[k - 1] = units[j - 1]
                if not np.array_equal(got, expect):
                    q, l, _, _ = np.argwhere(got != expect)[0] + 1
                    raise numkit.VerificationError(
                        f"matrix-unit relation fails at E_{j}{k} E_{q}{l}"
                    )
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if j == k:
                    continue
                bracket = numkit.commutator(self.unit(j, k), self.unit(k, j))
                if not np.array_equal(bracket, self.unit(j, j) - self.unit(k, k)):
                    raise numkit.VerificationError(
                        f"[E_{j}{k}, E_{k}{j}] != E_{j}{j} - E_{k}{k}"
                    )

    def unit(self, j: int, k: int) -> np.ndarray:
        return self._units[j - 1, k - 1].copy()

    def h(self, j: int) -> np.ndarray:
        """Cartan basis element H_j = E_jj - E_{j+1,j+1}, 1 <= j <= rank."""
        if not 1 <= j <= self.rank:
            raise DomainError(f"H index {j} outside 1..{self.rank}")
        return self.unit(j, j) - self.unit(j + 1, j + 1)

    def basis(self) -> list[np.ndarray]:
        """Off-diagonal units then H_1..H_r: a basis of sl(r+1, C)."""
        n = self.dimension
        out = [self.unit(j, k) for j in range(1, n + 1) for k in range(1, n + 1) if j != k]
        out.extend(self.h(j) for j in range(1, self.rank + 1))
        return out


def sl_basis(rank: int) -> list[np.ndarray]:
    return SlRootData(rank).basis()


def _basis_stack(algebra_basis) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    mats = [numkit.as_square(g) for g in algebra_basis]
    if not mats:
        raise DomainError("empty basis")
    n = mats[0].shape[0]
    if any(g.shape[0] != n for g in mats):
        raise numkit.ShapeError("basis matrices must share one dimension")
    stack = np.column_stack([g.reshape(-1) for g in mats])
    try:
        pinv = np.linalg.pinv(stack)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"pseudo-inverse did not converge on shape {stack.shape}: "
                           f"{exc}") from exc
    return mats, stack, pinv


def _expansion(vecs: np.ndarray, stack: np.ndarray, pinv: np.ndarray,
               what: str) -> np.ndarray:
    """Basis coefficients of each column of ``vecs``; DomainError for the first
    column whose least-squares residual exceeds SPAN_RTOL * (1 + its norm)."""
    coef = pinv @ vecs
    residual = np.linalg.norm(stack @ coef - vecs, axis=0)
    outside = np.flatnonzero(residual > SPAN_RTOL * (1.0 + np.linalg.norm(vecs, axis=0)))
    if outside.size:
        raise DomainError(f"{what} lies outside the span of the basis "
                          f"(expansion residual {residual[outside[0]]:.3e})")
    return coef


def _ad(x: np.ndarray, stack: np.ndarray, pinv: np.ndarray) -> np.ndarray:
    """ad(x) in the basis whose row-major vecs are the columns of ``stack``.

    (x (x) I - I (x) x^T) vec(g) is the row-major vec of xg - gx, so one
    product brackets x with the whole basis.
    """
    eye = np.eye(x.shape[0])
    return _expansion((np.kron(x, eye) - np.kron(eye, x.T)) @ stack, stack, pinv,
                      "a bracket (basis not closed?)")


def killing_form(x, w, algebra_basis) -> complex:
    """Tr(ad X . ad W) with adjoint matrices built in the given basis.

    Both arguments must lie in the span of the basis and the basis must be
    closed under brackets (least-squares expansion residual at most 1e-8
    relative); violations raise DomainError.
    """
    _, stack, pinv = _basis_stack(algebra_basis)
    x, w = numkit.as_square(x), numkit.as_square(w)
    _expansion(x.reshape(-1, 1), stack, pinv, "first argument")
    _expansion(w.reshape(-1, 1), stack, pinv, "second argument")
    return complex(np.trace(_ad(x, stack, pinv) @ _ad(w, stack, pinv)))


def killing_gram(algebra_basis) -> np.ndarray:
    """G_mn = B(g_m, g_n) on a linearly independent, bracket-closed basis.

    Linearly dependent or non-closed bases raise DomainError; a failed SVD
    or pseudo-inverse raises NumericError.
    """
    mats, stack, pinv = _basis_stack(algebra_basis)
    svals = numkit.singular_values(stack)
    if svals.min() <= 1e-10 * svals.max():
        raise DomainError("basis is not linearly independent")
    dim = len(mats)
    ads = np.empty((dim, dim, dim), dtype=np.complex128)
    for a, g in enumerate(mats):
        ads[a] = _ad(g, stack, pinv)
    # Tr(ad_b ad_a) = sum_ij ad_b[i, j] ad_a[j, i]: row a is one product.
    flat = ads.reshape(dim, dim * dim)
    gram = np.empty((dim, dim), dtype=np.complex128)
    for a in range(dim):
        gram[a] = flat @ ads[a].T.reshape(-1)
    return gram


def _nondegenerate(gram: np.ndarray) -> bool:
    """True iff the smallest singular value of ``gram`` is at least 1e-8 times the largest."""
    gsv = numkit.singular_values(gram)
    if gsv.max() == 0.0:
        return False
    return bool(gsv.min() >= 1e-8 * gsv.max())


def is_semisimple(algebra_basis) -> bool:
    """Nondegeneracy of the Killing Gram matrix on a bracket-closed basis;
    errors as for :func:`killing_gram`."""
    return _nondegenerate(killing_gram(algebra_basis))


def solve_sl(a) -> SolveReport:
    """Root-space solution of [Y*, Y] = A for Hermitian traceless A.

    The type (A) report in root-space vocabulary: the coefficient of H_j in
    the diagonalized target is the partial sum a_j, j = 1..r, and Y is the
    shift with weights sqrt(a_j) carried back to the original coordinates.
    The rows are the residual, the worst negative coefficient (within the
    slack type (A) grants its partial sums) and ||Y||_F.
    """
    rep = selfcomm.solve_type_A(a)
    coeffs = rep.details.pop("partial_sums")[:-1]
    residual, negativity, norm = rep.checks
    rep.command = "lie solve-sl"
    rep.checks = [residual]
    worst = float(-coeffs.min()) if coeffs.size else 0.0
    rep.check("coefficient_negativity", max(worst, 0.0), negativity.tolerance)
    rep.checks.append(norm)
    rep.details["coefficients"] = coeffs
    return rep


def certify_sl(n: int, killing: bool = False) -> SolveReport:
    """``lie semisimple``: nondegeneracy of sl(n)'s Killing Gram.  With
    ``killing`` (``lie killing``), first that Gram against 2n Tr(e_i e_j) on
    every basis pair at 1e-9 relative error; both sides are bilinear, so the
    row certifies B(X, W) = 2n Tr(XW) on all of sl(n)."""
    basis = sl_basis(n - 1)
    rep = SolveReport(command="lie killing" if killing else "lie semisimple")
    if killing:
        gram = killing_gram(basis)
        mats = np.array(basis)
        closed = 2 * n * np.einsum("iab,jba->ij", mats, mats)
        rep.check("killing_vs_closed_form",
                  (np.abs(gram - closed) / (1.0 + np.abs(closed))).max(), 1e-9)
        semisimple = _nondegenerate(gram)
    else:
        semisimple = is_semisimple(basis)
    rep.check("semisimple", 0.0 if semisimple else 1.0, 0.5)
    return rep


def oberwolfach_split(a) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Write traceless A as [X1, X2] + [Y1, Y2] inside sl.

    A splits into Hermitian parts A1, A2 with A = A1 + i A2, each solved as
    a self-commutator [W*, W]; the returned tuple is
    (W1*, W1, i W2*, W2).
    """
    a = numkit.require_traceless(a)
    a1 = (a + a.conj().T) / 2.0
    a2 = (a - a.conj().T) / 2.0j
    w1 = selfcomm.solve_type_A(a1).matrices["Y"]
    w2 = selfcomm.solve_type_A(a2).matrices["Y"]
    return w1.conj().T, w1, 1j * w2.conj().T, w2
