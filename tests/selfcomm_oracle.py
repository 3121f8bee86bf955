"""Re-orthogonalising kernel pairing, kept as the oracle for ``commlab.selfcomm``.

This is the pairing ``spectral_pairing`` ran before it paired the kernel in
one pass: take the first remaining kernel vector v, append the pair
(v, -Jt v) and run Gram-Schmidt over the pair and the rest of the kernel
again.  ``gram_schmidt`` is the full-stream orthonormaliser that loop used.
The loop once projected the rest off the pair before Gram-Schmidt, which
measured a vector's rejection against the norm the pair left it: a unit
kernel vector with a 1.4e-8 residual then passed a 1e-8 threshold where the
one-pass rule, 1e-8 (1 + ||v||), rejects it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from commlab import numkit
from commlab.numkit import DEFAULT_TOL, DomainError, ShapeError
from commlab.selfcomm import AntiConjugation, sp_defect


def gram_schmidt(vectors: Sequence, tolerance: float = DEFAULT_TOL
                 ) -> tuple[np.ndarray, list[int]]:
    """Orthonormalize ``vectors`` in order.

    Returns ``(basis, accepted)`` where ``basis`` has orthonormal columns and
    ``accepted`` lists the input indices that produced a new column.  A vector
    is rejected (not an error) by the rule of ``numkit.gram_schmidt_step``.
    """
    vs = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in vectors]
    if not vs:
        raise ShapeError("no vectors given")
    dim = vs[0].size
    if any(v.size != dim for v in vs):
        raise ShapeError("vectors must share one dimension")
    basis = np.zeros((dim, min(dim, len(vs))), dtype=np.complex128)
    accepted: list[int] = []
    k = 0
    for idx, v in enumerate(vs):
        if k == dim:
            break
        u = numkit.gram_schmidt_step(v, basis[:, :k], tolerance)
        if u is None:
            continue
        basis[:, k] = u
        accepted.append(idx)
        k += 1
    return basis[:, :k].copy(), accepted


def spectral_pairing(t, j: AntiConjugation) -> tuple[np.ndarray, np.ndarray]:
    """``(lam, basis)`` as ``selfcomm.spectral_pairing``, with the old kernel loop."""
    t = numkit.as_square(t)
    eig = numkit.hermitian_eigen(t)
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
        # The pair leads the stream, so a kernel vector is rejected by its
        # residual relative to its own unit norm, not to what the pair left.
        basis, _ = gram_schmidt([v, vneg, *kernel[:, 1:].T], tolerance=1e-8)
        kernel = basis[:, 2:]

    m = j.half
    if len(plus_vectors) != m:
        raise DomainError(
            f"pairing produced {len(plus_vectors)} nonnegative directions, expected {m}"
        )
    b_plus = np.column_stack(plus_vectors)
    b_minus = np.column_stack([-j.apply(b_plus[:, i]) for i in range(m)])
    return np.asarray(lam, dtype=np.float64), np.column_stack([b_plus, b_minus])


def solution(t, j: AntiConjugation) -> np.ndarray:
    """Y of ``selfcomm.solve_type_C`` formed from the oracle pairing."""
    lam, basis = spectral_pairing(t, j)
    m = j.half
    yhat = np.zeros((2 * m, 2 * m), dtype=np.complex128)
    yhat[np.arange(m, 2 * m), np.arange(m)] = np.sqrt(np.clip(lam, 0.0, None))
    return basis @ yhat @ basis.conj().T
