"""Shared generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from commlab import selfcomm


def random_complex(rng: np.random.Generator, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = random_complex(rng, d)
    return (g + g.conj().T) / 2.0


def random_traceless_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    h = random_hermitian(rng, d)
    return h - (np.trace(h) / d) * np.eye(d)


def project_to_sp(x: np.ndarray, j: selfcomm.AntiConjugation) -> np.ndarray:
    """Average X onto the symplectic algebra: (X - Jt X* Jt^{-1}) / 2."""
    return (x - j.adjoint_twist(x)) / 2.0


def random_sp(rng: np.random.Generator, j: selfcomm.AntiConjugation) -> np.ndarray:
    """Random member of the symplectic algebra (canonical averaging)."""
    return project_to_sp(random_complex(rng, j.dimension), j)


def random_sp_hermitian(rng: np.random.Generator,
                        j: selfcomm.AntiConjugation) -> np.ndarray:
    """Random Hermitian member of the symplectic algebra.

    Hermitian symmetrization commutes with the sp averaging, so one pass of
    each lands in the intersection.
    """
    t = random_sp(rng, j)
    return (t + t.conj().T) / 2.0


def paired_sp_hermitian(rng: np.random.Generator, j: selfcomm.AntiConjugation,
                        lam) -> np.ndarray:
    """U diag(lam, -lam) U* for a random unitary U = exp(iH), H Hermitian in sp.

    U lies in the symplectic group, so the result is a Hermitian member of
    sp with the prescribed paired spectrum; zeros in ``lam`` give a kernel
    of twice their number.
    """
    w, v = np.linalg.eigh(random_sp_hermitian(rng, j))
    u = (v * np.exp(1j * w)) @ v.conj().T
    lam = np.asarray(lam, dtype=np.float64)
    t = (u * np.concatenate([lam, -lam])) @ u.conj().T
    return (t + t.conj().T) / 2.0


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260809)
