"""Loop-based Killing Gram, kept as the oracle for ``commlab.liealg``.

This is the computation ``liealg`` ran before it moved to Kronecker adjoint
matrices and a row-by-row Gram: one bracket and one least-squares expansion
per pair (x, g), one trace per pair of adjoint matrices.
"""

from __future__ import annotations

import numpy as np

from commlab.liealg import SPAN_RTOL
from commlab.numkit import DomainError


def _expand(m, stack, pinv):
    vec = m.reshape(-1)
    coef = pinv @ vec
    residual = float(np.linalg.norm(stack @ coef - vec))
    if residual > SPAN_RTOL * (1.0 + float(np.linalg.norm(m))):
        raise DomainError("a bracket (basis not closed?) lies outside the span of "
                          f"the basis (expansion residual {residual:.3e})")
    return coef


def _ad_matrix(x, mats, stack, pinv):
    return np.column_stack([_expand(x @ g - g @ x, stack, pinv) for g in mats])


def killing_gram(algebra_basis) -> np.ndarray:
    mats = [np.asarray(g, dtype=np.complex128) for g in algebra_basis]
    stack = np.column_stack([g.reshape(-1) for g in mats])
    pinv = np.linalg.pinv(stack)
    svals = np.linalg.svd(stack, compute_uv=False)
    if svals.min() <= 1e-10 * svals.max():
        raise DomainError("basis is not linearly independent")
    ads = [_ad_matrix(g, mats, stack, pinv) for g in mats]
    dim = len(mats)
    gram = np.empty((dim, dim), dtype=np.complex128)
    for a in range(dim):
        for b in range(a, dim):
            gram[a, b] = gram[b, a] = np.trace(ads[a] @ ads[b])
    return gram


def is_semisimple(algebra_basis) -> bool:
    gsv = np.linalg.svd(killing_gram(algebra_basis), compute_uv=False)
    if gsv.max() == 0.0:
        return False
    return bool(gsv.min() >= 1e-8 * gsv.max())
