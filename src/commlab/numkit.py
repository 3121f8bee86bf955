"""Dense complex matrix kernel.

Commutators, Hilbert-Schmidt and trace norms, Hermitian eigendecomposition,
a twice-projected Gram-Schmidt step and the unitary defect.  Everything
downstream builds on these routines.  Scalars are double-precision complex throughout;
there is no arbitrary-precision path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Shared rejection / verification tolerance; matches the residual scale of
# the eigendecomposition at desk-scale dimensions.
DEFAULT_TOL = 1e-10

# Relative Hermitian-defect tolerance used by all Hermitian preconditions.
HERMITIAN_RTOL = 1e-9

# Relative trace tolerance of the trace-zero precondition.
TRACE_RTOL = 1e-9


class ShapeError(ValueError):
    """Operand shapes do not match the operation's requirements."""


class DomainError(ValueError):
    """Input violates a mathematical precondition (trace, symmetry, range)."""


class NumericError(RuntimeError):
    """A numerical kernel failed to converge."""


class VerificationError(RuntimeError):
    """A construction identity or certified check failed its tolerance."""


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got array of ndim {m.ndim}")
    if not np.isfinite(m).all():
        raise DomainError("matrix contains non-finite entries")
    return m


def as_square(a) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA for square matrices of equal dimension."""
    a = as_square(a)
    b = as_square(b)
    if a.shape != b.shape:
        raise ShapeError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def self_commutator(y) -> np.ndarray:
    """[Y*, Y] = Y*Y - YY*; Hermitian and trace-free up to rounding."""
    y = as_square(y)
    yh = y.conj().T
    return yh @ y - y @ yh


def hs_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(as_matrix(a)))


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values of a matrix; NumericError when the SVD does not converge."""
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD did not converge on shape {a.shape}: {exc}") from exc


def trace_norm(a) -> float:
    """Trace norm, computed as the sum of singular values."""
    return float(singular_values(as_matrix(a)).sum())


def hermitian_defect(a) -> float:
    """Frobenius distance to the adjoint, ||A - A*||_F."""
    a = as_square(a)
    return float(np.linalg.norm(a - a.conj().T))


def require_hermitian(a, rtol: float = HERMITIAN_RTOL,
                      scale: float | None = None) -> np.ndarray:
    """A as a square matrix, or DomainError when ||A - A*||_F > rtol (1 + ||A||_F).

    ``scale`` is ||A||_F when the caller has already computed it.
    """
    a = as_square(a)
    if scale is None:
        scale = hs_norm(a)
    if hermitian_defect(a) > rtol * (1.0 + scale):
        raise DomainError("matrix is not Hermitian within tolerance")
    return a


def require_traceless(a, scale: float | None = None) -> np.ndarray:
    """A as a square matrix, or DomainError when |tr A| > TRACE_RTOL (1 + ||A||_F).

    ``scale`` is ||A||_F when the caller has already computed it.
    """
    a = as_square(a)
    if scale is None:
        scale = hs_norm(a)
    if abs(complex(np.trace(a))) > TRACE_RTOL * (1.0 + scale):
        raise DomainError("trace-zero required")
    return a


@dataclass(frozen=True)
class EigenDecomposition:
    """Hermitian eigendecomposition with eigenvalues sorted non-increasing.

    Column j of ``vectors`` is the unit eigenvector for ``values[j]``.
    """

    values: np.ndarray
    vectors: np.ndarray


def descending_order(values: np.ndarray) -> np.ndarray:
    """Stable permutation sorting ``values`` non-increasing."""
    return np.argsort(-np.asarray(values), kind="stable")


def hermitian_eigen(a, scale: float | None = None) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Ties keep the order the underlying routine produced (stable sort, then
    index-ascending).  Raises DomainError for non-Hermitian input and
    NumericError when the eigensolver does not converge.  ``scale`` is
    ||A||_F when the caller has already computed it.
    """
    a = require_hermitian(a, scale=scale)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigh did not converge on shape {a.shape}: {exc}") from exc
    order = descending_order(w)
    return EigenDecomposition(
        values=np.ascontiguousarray(w[order]),
        vectors=np.ascontiguousarray(v[:, order]),
    )


def project_residual(v: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Residual of v against orthonormal columns, re-orthogonalized twice.

    Applying the classical projection twice keeps the loss of orthogonality
    at the rounding level without pivoting.
    """
    w = v - basis @ (basis.conj().T @ v)
    return w - basis @ (basis.conj().T @ w)


def gram_schmidt_step(v: np.ndarray, basis: np.ndarray,
                      tolerance: float = DEFAULT_TOL) -> np.ndarray | None:
    """Unit residual of v against orthonormal columns, or None if rejected.

    v is rejected when its projection residual has norm at most
    ``tolerance * (1 + ||v||)``.
    """
    w = project_residual(v, basis)
    norm_w = float(np.linalg.norm(w))
    if norm_w <= tolerance * (1.0 + float(np.linalg.norm(v))):
        return None
    return w / norm_w


def unitary_defect(u) -> float:
    """||U*U - I||_F."""
    u = as_square(u)
    eye = np.eye(u.shape[0], dtype=np.complex128)
    return float(np.linalg.norm(u.conj().T @ u - eye))

