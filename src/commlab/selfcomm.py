"""Self-commutator solvers [Y*, Y] = T, each returning a SolveReport.

Type (A) works over all matrices (Fan and Fong): diagonalize, sort the
eigenvalues descending so the partial sums are nonnegative, and build a
weighted shift from their square roots.  Type (C) works inside the complex
symplectic algebra cut out by an anti-conjugation Jt: the spectrum pairs as
(lambda, -lambda), the kernel is paired as (v, -Jt v) in one pass, and the
solution is an anti-diagonal weighted shift between paired eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .numkit import DomainError, VerificationError
from .report import SolveReport


# ---------------------------------------------------------------------------
# type (A): all compact / finite matrices


def solve_type_A(t) -> SolveReport:
    """Solve [Y*, Y] = T for Hermitian traceless T.

    In the eigenbasis with eigenvalues c_1 >= ... >= c_d the solution is the
    weighted shift with sqrt(a_j) in position (j+1, j), a_j = c_1 + ... + c_j;
    these are nonnegative because the sorted prefix sums of a zero-sum list
    are.  The report rows are the residual ||[Y*, Y] - T||_F, the worst
    negative partial sum (within the trace test's slack) and ||Y||_F;
    ``details["partial_sums"]`` holds a_j.
    """
    t = numkit.as_square(t)
    scale = numkit.hs_norm(t)
    eig = numkit.hermitian_eigen(t, scale)  # rejects non-Hermitian input first
    numkit.require_traceless(t, scale)
    sums = np.cumsum(eig.values)
    dim = t.shape[0]
    yhat = np.zeros((dim, dim), dtype=np.complex128)
    yhat[np.arange(1, dim), np.arange(dim - 1)] = np.sqrt(np.clip(sums[:-1], 0.0, None))
    y = eig.vectors @ yhat @ eig.vectors.conj().T
    rep = SolveReport(command="solve-selfcomm type=A")
    rep.check("residual", numkit.hs_norm(numkit.self_commutator(y) - t),
              1e-9 * (1.0 + scale))
    # Sorted prefix sums are bounded below by min(0, tr T), so they may dip
    # as far below zero as the trace test lets the trace.
    worst = float(-sums.min()) if sums.size else 0.0
    rep.check("partial_sum_negativity", max(worst, 0.0), numkit.TRACE_RTOL * (1.0 + scale))
    rep.info("solution_hs_norm", numkit.hs_norm(y))
    rep.matrices["Y"] = y
    rep.details["partial_sums"] = sums
    return rep


# ---------------------------------------------------------------------------
# conjugate-linear isometries and the symplectic algebra


@dataclass(frozen=True)
class AntiConjugation:
    """Conjugate-linear isometry Jt with Jt^2 = -1, stored as v -> S conj(v).

    The fixed matrix S of the standard pairing on basis labels
    (1..m, -1..-m) sends e_n -> -e_{-n} and e_{-n} -> e_n, i.e.
    S = [[0, I], [-I, 0]].  Such a map forces even dimension.
    """

    matrix: np.ndarray

    def __post_init__(self):
        s = numkit.as_square(self.matrix)
        dim = s.shape[0]
        if numkit.unitary_defect(s) > 1e-12 * max(1, dim):
            raise DomainError("anti-conjugation fixed matrix must be unitary")
        if np.abs(s @ np.conj(s) + np.eye(dim)).max() > 1e-12:
            raise DomainError("anti-conjugation must square to -1 identity")
        if dim % 2:
            raise DomainError("anti-conjugation needs even dimension")

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def half(self) -> int:
        return self.dimension // 2

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ np.conj(v)

    def adjoint_twist(self, x: np.ndarray) -> np.ndarray:
        """Jt X* Jt^{-1} as a complex-linear matrix (Jt^{-1} = -Jt)."""
        s = self.matrix
        return -s @ x.T @ np.conj(s)


def make_anticonjugation(m: int) -> AntiConjugation:
    """Standard anti-conjugation on C^{2m} with the (1..m, -1..-m) pairing."""
    if m < 1:
        raise DomainError("need m >= 1")
    eye = np.eye(m)
    s = np.block([[np.zeros((m, m)), eye], [-eye, np.zeros((m, m))]])
    return AntiConjugation(matrix=s.astype(np.complex128))


def sp_defect(x, j: AntiConjugation) -> float:
    """||X + Jt X* Jt^{-1}||_F; zero exactly on the symplectic algebra."""
    x = numkit.as_square(x)
    if x.shape[0] != j.dimension:
        raise numkit.ShapeError(
            f"matrix of dimension {x.shape[0]} vs anti-conjugation on {j.dimension}"
        )
    return float(np.linalg.norm(x + j.adjoint_twist(x)))


def _require_sp(t: np.ndarray, j: AntiConjugation, scale: float) -> None:
    """DomainError unless sp_defect(T) <= 1e-9 (1 + scale), scale = ||T||_F."""
    if sp_defect(t, j) > 1e-9 * (1.0 + scale):
        raise DomainError("not in sp up to tolerance")


# ---------------------------------------------------------------------------
# type (C): spectral pairing and solver


def spectral_pairing(t, j: AntiConjugation, scale: float | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Paired eigendata for Hermitian T in the symplectic algebra.

    Returns ``(lam, basis)``: ``lam`` holds the m nonnegative eigenvalues in
    descending order and ``basis`` the columns (b_1..b_m, b_{-1}..b_{-m})
    where T b_n = lam_n b_n and b_{-n} = -Jt b_n spans the -lam_n eigenspace.
    Eigenvalues with modulus below 1e-9 * ||T||_F count as zero; each of
    their eigenvectors takes one Gram-Schmidt step against the kernel pairs
    found so far and, unless rejected, adds the pair (v, -Jt v).  ``scale``
    is ||T||_F when the caller has already computed it.
    """
    t = numkit.as_square(t)
    if scale is None:
        scale = numkit.hs_norm(t)
    eig = numkit.hermitian_eigen(t, scale)  # rejects non-Hermitian input first
    _require_sp(t, j, scale)
    w = eig.values
    sorted_w = np.sort(w)
    if np.abs(sorted_w + sorted_w[::-1]).max() > 1e-8 * (1.0 + scale):
        raise DomainError("eigenvalues do not pair as (lambda, -lambda)")
    ztol = 1e-9 * scale
    pos = np.flatnonzero(w > ztol)
    negs = np.flatnonzero(w < -ztol)
    zeros = np.flatnonzero(np.abs(w) <= ztol)
    if pos.size != negs.size:
        raise DomainError("unequal multiplicity of paired eigenvalues")
    if zeros.size % 2:
        raise DomainError("kernel dimension is odd")

    # One pass over the kernel: Jt^2 = -1 gives <v, Jt v> = 0, and a v
    # orthogonal to span{v_i, Jt v_i} has Jt v orthogonal to it as well.
    plus_vectors = [eig.vectors[:, i] for i in pos]
    pairs = np.empty((t.shape[0], 0), dtype=np.complex128)
    for v in eig.vectors[:, zeros].T:
        v = numkit.gram_schmidt_step(v, pairs, 1e-8)
        if v is not None:
            plus_vectors.append(v)
            pairs = np.column_stack([pairs, v, -j.apply(v)])

    m = j.half
    if len(plus_vectors) != m:
        raise DomainError(
            f"pairing produced {len(plus_vectors)} nonnegative directions, expected {m}"
        )
    b_plus = np.column_stack(plus_vectors)
    lam = np.concatenate([w[pos], np.zeros(m - pos.size)])
    return lam, np.column_stack([b_plus, -j.apply(b_plus)])


def solve_type_C(t, j: AntiConjugation) -> SolveReport:
    """Solve [Y*, Y] = T inside the symplectic algebra.

    Y = sum_n sqrt(lam_n) E_{-n, n} in the paired eigenbasis, transported
    back to the original coordinates.  The report records the symplectic
    membership defect of Y and the solve residual.
    """
    t = numkit.as_square(t)
    scale = numkit.hs_norm(t)
    lam, basis = spectral_pairing(t, j, scale)
    m = j.half
    yhat = np.zeros((2 * m, 2 * m), dtype=np.complex128)
    yhat[np.arange(m, 2 * m), np.arange(m)] = np.sqrt(np.clip(lam, 0.0, None))
    y = basis @ yhat @ basis.conj().T
    rep = SolveReport(command="solve-selfcomm type=C")
    rep.check("sp_membership_defect", sp_defect(y, j), 1e-8)
    rep.check(
        "residual",
        numkit.hs_norm(numkit.self_commutator(y) - t),
        1e-8 * (1.0 + scale),
    )
    rep.info("solution_hs_norm", numkit.hs_norm(y))
    rep.matrices["Y"] = y
    rep.details["eigenvalues"] = lam
    return rep


def split_type_C(t, j: AntiConjugation) -> tuple[np.ndarray, np.ndarray]:
    """Write T in sp as [X*, X] + i [Y*, Y] with X, Y in sp.

    Certifies at finite truncation the symplectic counterpart of
    :func:`commlab.liealg.oberwolfach_split`: since every Hermitian element
    of the complex symplectic algebra is a self-commutator inside it (the
    paper's sp version of Fan and Fong), every element of sp is a linear
    combination of two self-commutators of elements of sp.  T splits into
    Hermitian parts T1 = (T + T*)/2 and T2 = (T - T*)/(2i), both
    automatically in sp; each is solved by :func:`solve_type_C`.
    """
    t = numkit.as_square(t)
    _require_sp(t, j, numkit.hs_norm(t))
    t1 = (t + t.conj().T) / 2.0
    t2 = (t - t.conj().T) / 2.0j
    for name, part in (("Hermitian", t1), ("skew", t2)):
        if sp_defect(part, j) > 1e-8 * (1.0 + numkit.hs_norm(part)):
            raise VerificationError(
                f"{name} part left sp; input is inconsistent or badly conditioned"
            )
    x = solve_type_C(t1, j).matrices["Y"]
    y = solve_type_C(t2, j).matrices["Y"]
    return x, y
