"""Self-commutator solvers [Y*, Y] = T.

Type (A) works over all matrices: diagonalize, sort eigenvalues descending
so the partial sums are nonnegative, and build a weighted shift from their
square roots.  Type (C) works inside the complex symplectic algebra cut out
by an anti-conjugation: the spectrum pairs as (lambda, -lambda), and the
solution is an anti-diagonal weighted shift between paired eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numkit
from .numkit import DomainError, VerificationError
from .report import SolveReport

TRACE_RTOL = 1e-9
PREFIX_SUM_FLOOR = -1e-12


# ---------------------------------------------------------------------------
# type (A): all compact / finite matrices


def partial_sums_sorted(values: Sequence[float]) -> np.ndarray:
    """Cumulative sums of the descending rearrangement.

    For a list summing to zero every prefix sum of the descending order is
    nonnegative; inputs whose total differs from 0 by more than 1e-9 are
    rejected.
    """
    c = np.asarray(values, dtype=np.float64).reshape(-1)
    if c.size and abs(float(c.sum())) > TRACE_RTOL * (1.0 + float(np.abs(c).sum())):
        raise DomainError("trace-zero required")
    return np.cumsum(np.sort(c)[::-1])


@dataclass(frozen=True)
class TypeASolution:
    """Solver output for [Y*, Y] = T over plain matrices.

    ``partial_sums`` are the cumulative sums a_j of the eigenvalues in
    descending order, and ``residual`` is ||[Y*, Y] - T||_F.
    """

    partial_sums: np.ndarray
    solution: np.ndarray
    residual: float


def shift_from_partial_sums(a: np.ndarray, dim: int) -> np.ndarray:
    """Weighted shift with sqrt(a_j) in position (j+1, j), 1-based."""
    y = np.zeros((dim, dim), dtype=np.complex128)
    r = min(a.size, dim - 1)
    y[np.arange(1, r + 1), np.arange(r)] = np.sqrt(np.clip(a[:r], 0.0, None))
    return y


def solve_type_A(t) -> TypeASolution:
    """Solve [Y*, Y] = T for Hermitian traceless T.

    In the eigenbasis with eigenvalues c_1 >= ... >= c_d the solution is the
    weighted shift with weights sqrt(a_j), a_j = c_1 + ... + c_j; these are
    nonnegative because the sorted prefix sums of a zero-sum list are.
    """
    t = numkit.as_square(t)
    eig = numkit.hermitian_eigen(t)  # rejects non-Hermitian input first
    if abs(complex(np.trace(t))) > TRACE_RTOL * (1.0 + numkit.hs_norm(t)):
        raise DomainError("trace-zero required")
    sums = np.cumsum(eig.values)
    yhat = shift_from_partial_sums(sums[:-1], t.shape[0])
    y = eig.vectors @ yhat @ eig.vectors.conj().T
    residual = numkit.hs_norm(numkit.self_commutator(y) - t)
    return TypeASolution(partial_sums=sums, solution=y, residual=residual)


@dataclass(frozen=True)
class Rearrangement:
    """Greedy order with nonnegative prefix sums, plus the final-sum defect."""

    order: np.ndarray
    defect: float


def rearrange_type_A(values: Sequence[float]) -> Rearrangement:
    """Greedy rearrangement keeping every prefix sum nonnegative.

    Rule: with running sum s, take the largest unused negative term when
    s plus that term stays nonnegative, otherwise the largest unused
    nonnegative term.  If the nonnegative pool empties first the remaining
    negatives are appended in descending order and the final-sum defect is
    reported.
    """
    lam = np.asarray(values, dtype=np.float64).reshape(-1)
    by_value = np.argsort(-lam, kind="stable")
    pos = [i for i in by_value if lam[i] >= 0.0]
    neg = [i for i in by_value if lam[i] < 0.0]
    pos_at = 0
    neg_at = 0
    s = 0.0
    order = np.empty(lam.size, dtype=np.int64)
    for k in range(lam.size):
        take_neg = False
        if neg_at < len(neg):
            if s + lam[neg[neg_at]] >= PREFIX_SUM_FLOOR or pos_at >= len(pos):
                take_neg = True
        if take_neg:
            idx = neg[neg_at]
            neg_at += 1
        else:
            idx = pos[pos_at]
            pos_at += 1
        s += lam[idx]
        order[k] = idx
    return Rearrangement(order=order, defect=abs(s))


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


def in_sp(x, j: AntiConjugation, tolerance: float = 1e-9) -> bool:
    """Membership test for the type (C) algebra X = -Jt X* Jt^{-1}."""
    return sp_defect(x, j) <= tolerance


def project_to_sp(x, j: AntiConjugation) -> np.ndarray:
    """Average X onto the symplectic algebra: (X - Jt X* Jt^{-1}) / 2."""
    x = numkit.as_square(x)
    return (x - j.adjoint_twist(x)) / 2.0


# ---------------------------------------------------------------------------
# type (C): spectral pairing and solver


def spectral_pairing(t, j: AntiConjugation) -> tuple[np.ndarray, np.ndarray]:
    """Paired eigendata for Hermitian T in the symplectic algebra.

    Returns ``(lam, basis)``: ``lam`` holds the m nonnegative eigenvalues in
    descending order and ``basis`` the columns (b_1..b_m, b_{-1}..b_{-m})
    where T b_n = lam_n b_n and b_{-n} = -Jt b_n spans the -lam_n eigenspace.
    Eigenvalues with modulus below 1e-9 * ||T||_F count as zero and their
    (even-dimensional) eigenspace is paired internally through Jt.
    """
    t = numkit.as_square(t)
    eig = numkit.hermitian_eigen(t)  # rejects non-Hermitian input first
    scale = numkit.hs_norm(t)
    if sp_defect(t, j) > 1e-9 * (1.0 + scale):
        raise DomainError("not in sp up to tolerance")
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

    plus_vectors = [eig.vectors[:, i] for i in pos]
    lam = list(w[pos])
    kernel = eig.vectors[:, zeros]
    while kernel.shape[1]:
        v = kernel[:, 0]
        v = v / np.linalg.norm(v)
        vneg = -j.apply(v)
        plus_vectors.append(v)
        lam.append(0.0)
        rest = kernel[:, 1:]
        if rest.shape[1]:
            pair = np.column_stack([v, vneg])
            rest = rest - pair @ (pair.conj().T @ rest)
            kernel, _ = numkit.gram_schmidt(list(rest.T), tolerance=1e-8)
        else:
            kernel = rest

    m = j.half
    if len(plus_vectors) != m:
        raise DomainError(
            f"pairing produced {len(plus_vectors)} nonnegative directions, expected {m}"
        )
    b_plus = np.column_stack(plus_vectors)
    b_minus = np.column_stack([-j.apply(b_plus[:, i]) for i in range(m)])
    return np.asarray(lam, dtype=np.float64), np.column_stack([b_plus, b_minus])


def solve_type_C(t, j: AntiConjugation) -> SolveReport:
    """Solve [Y*, Y] = T inside the symplectic algebra.

    Y = sum_n sqrt(lam_n) E_{-n, n} in the paired eigenbasis, transported
    back to the original coordinates.  The report records the symplectic
    membership defect of Y and the solve residual.
    """
    lam, basis = spectral_pairing(t, j)
    m = j.half
    yhat = np.zeros((2 * m, 2 * m), dtype=np.complex128)
    yhat[np.arange(m, 2 * m), np.arange(m)] = np.sqrt(np.clip(lam, 0.0, None))
    y = basis @ yhat @ basis.conj().T
    scale = numkit.hs_norm(t)
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

    T splits into Hermitian parts T1 = (T + T*)/2 and T2 = (T - T*)/(2i),
    both automatically in sp; each is solved by :func:`solve_type_C`.
    """
    t = numkit.as_square(t)
    if sp_defect(t, j) > 1e-9 * (1.0 + numkit.hs_norm(t)):
        raise DomainError("not in sp up to tolerance")
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
