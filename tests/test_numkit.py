import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selfcomm_oracle
from commlab import numkit
from commlab.minimize import OPTIMAL_A, OPTIMAL_B
from conftest import random_complex, random_hermitian


class TestCommutator:
    def test_identity_commutes(self, rng):
        b = random_complex(rng, 5)
        assert np.abs(numkit.commutator(np.eye(5), b)).max() == 0.0

    def test_self_commute(self, rng):
        a = random_complex(rng, 4)
        assert np.abs(numkit.commutator(a, a)).max() <= 1e-14 * numkit.hs_norm(a) ** 2

    def test_known_optimal_pair(self):
        target = np.diag([-1.0, 1 / 3, 1 / 3, 1 / 3])
        assert np.abs(numkit.commutator(OPTIMAL_A, OPTIMAL_B) - target).max() <= 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(numkit.ShapeError):
            numkit.commutator(np.eye(2), np.eye(3))
        with pytest.raises(numkit.ShapeError):
            numkit.commutator(np.ones((2, 3)), np.ones((3, 2)))

    def test_rejects_non_finite(self):
        bad = np.array([[np.nan, 0], [0, 0]])
        with pytest.raises(numkit.DomainError):
            numkit.commutator(bad, np.eye(2))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_trace_vanishes(self, seed, d):
        gen = np.random.default_rng(seed)
        a = random_complex(gen, d)
        b = random_complex(gen, d)
        tr = abs(complex(np.trace(numkit.commutator(a, b))))
        assert tr <= 1e-10 * (1.0 + numkit.hs_norm(a) * numkit.hs_norm(b))


class TestSelfCommutator:
    def test_zero(self):
        assert np.abs(numkit.self_commutator(np.zeros((3, 3)))).max() == 0.0

    def test_weighted_shift_telescopes(self):
        # Shift weights sqrt(1/3), sqrt(2/3), sqrt(1) below the diagonal;
        # direct multiplication gives the descending diagonal (1/3, 1/3,
        # 1/3, -1).
        y = np.zeros((4, 4), dtype=complex)
        y[1, 0] = math.sqrt(1 / 3)
        y[2, 1] = math.sqrt(2 / 3)
        y[3, 2] = 1.0
        got = numkit.self_commutator(y)
        assert np.abs(got - np.diag([1 / 3, 1 / 3, 1 / 3, -1.0])).max() <= 1e-15

    def test_random_trace_and_hermiticity(self, rng):
        y = random_complex(rng, 5)
        s = numkit.self_commutator(y)
        assert abs(complex(np.trace(s))) <= 1e-10
        assert numkit.hermitian_defect(s) <= 1e-12 * (1.0 + numkit.hs_norm(s))


class TestNorms:
    def test_hs_norm_optimal_factor(self):
        assert abs(numkit.hs_norm(OPTIMAL_A) - math.sqrt(4 / 3)) <= 1e-15

    def test_hs_norm_identity(self):
        for n in (1, 4, 9):
            assert numkit.hs_norm(np.eye(n)) == pytest.approx(math.sqrt(n), abs=1e-14)

    def test_hs_norm_pythagorean(self):
        assert numkit.hs_norm(np.diag([3.0, 4.0])) == pytest.approx(5.0, abs=1e-14)

    def test_trace_norm_recurring_target(self):
        assert numkit.trace_norm(np.diag([-1.0, 1 / 3, 1 / 3, 1 / 3])) == pytest.approx(
            2.0, abs=1e-13
        )

    def test_trace_norm_zero(self):
        assert numkit.trace_norm(np.zeros((4, 4))) == 0.0

    def test_trace_norm_rank_one(self, rng):
        u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        assert numkit.trace_norm(np.outer(u, v.conj())) == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 7))
    @settings(max_examples=60, deadline=None)
    def test_inequality_chain(self, seed, d):
        # ||A|| ||B|| >= ||AB - BA||_tr / 2, the Cauchy-Schwarz route.
        gen = np.random.default_rng(seed)
        a = random_complex(gen, d)
        b = random_complex(gen, d)
        lhs = numkit.hs_norm(a) * numkit.hs_norm(b)
        rhs = numkit.trace_norm(numkit.commutator(a, b)) / 2.0
        assert lhs >= rhs - 1e-9


def reconstruct(eig: numkit.EigenDecomposition) -> np.ndarray:
    return (eig.vectors * eig.values) @ eig.vectors.conj().T


class TestHermitianEigen:
    def test_diagonal_permutation(self):
        eig = numkit.hermitian_eigen(np.diag([1 / 3, -1.0, 1 / 3, 1 / 3]))
        assert np.allclose(eig.values, [1 / 3, 1 / 3, 1 / 3, -1.0], atol=1e-15)

    def test_two_by_two_flip(self):
        eig = numkit.hermitian_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(eig.values, [1.0, -1.0], atol=1e-14)

    def test_reconstruction(self, rng):
        a = random_hermitian(rng, 8)
        eig = numkit.hermitian_eigen(a)
        assert numkit.hs_norm(reconstruct(eig) - a) <= 1e-9 * (1 + numkit.hs_norm(a))
        assert (np.diff(eig.values) <= 1e-14).all()
        assert numkit.unitary_defect(eig.vectors) <= 1e-10 * 8
        pairing = a @ eig.vectors - eig.vectors * eig.values
        assert numkit.hs_norm(pairing) <= 1e-9 * (1 + numkit.hs_norm(a))

    def test_reconstruction_up_to_dim_64(self, rng):
        for d in (16, 64):
            a = random_hermitian(rng, d)
            eig = numkit.hermitian_eigen(a)
            assert numkit.hs_norm(reconstruct(eig) - a) <= 1e-9 * (1 + numkit.hs_norm(a))

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(numkit.DomainError):
            numkit.hermitian_eigen(random_complex(rng, 4))

    def test_eigh_failure_is_numeric_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(numkit.NumericError, match="did not converge"):
            numkit.hermitian_eigen(np.eye(3))


class TestGramSchmidt:
    """The step in numkit, and the full-stream loop kept in the selfcomm oracle."""

    def test_standard_basis(self):
        basis, accepted = selfcomm_oracle.gram_schmidt([np.eye(2)[:, 0], np.eye(2)[:, 1]])
        assert np.abs(basis - np.eye(2)).max() == 0.0
        assert accepted == [0, 1]

    def test_step_rejection_rule(self):
        e1, e2 = np.eye(2, dtype=complex)[:, 0], np.eye(2, dtype=complex)[:, 1]
        basis = e1[:, None]
        assert numkit.gram_schmidt_step(3 * e1, basis) is None
        assert np.array_equal(numkit.gram_schmidt_step(2 * e2 + 1e-3 * e1, basis), e2)
        # residual norm 0.1 against the bound tolerance * (1 + ||v||)
        v = 0.1 * e2 + 5.0 * e1
        assert numkit.gram_schmidt_step(v, basis, tolerance=0.1 / 6.0 * 1.01) is None
        assert numkit.gram_schmidt_step(v, basis, tolerance=0.1 / 6.0 * 0.99) is not None

    def test_dependent_vector_skipped(self):
        e1, e2 = np.eye(2)[:, 0], np.eye(2)[:, 1]
        basis, accepted = selfcomm_oracle.gram_schmidt([e1, 2 * e1, e2])
        assert accepted == [0, 2]
        assert np.abs(basis - np.eye(2)).max() <= 1e-15

    def test_generating_stream_of_optimal_factor(self):
        e = np.eye(4, dtype=complex)
        stream = [e[:, 0], OPTIMAL_A @ e[:, 0], OPTIMAL_A.conj().T @ e[:, 0],
                  e[:, 1], e[:, 2], e[:, 3]]
        basis, accepted = selfcomm_oracle.gram_schmidt(stream)
        assert basis.shape == (4, 4)
        assert np.abs(basis[:, 0] - e[:, 0]).max() == 0.0
        assert accepted == [0, 1, 2, 4]
        assert numkit.unitary_defect(basis) <= 1e-10 * 4

    @given(st.integers(0, 2**32 - 1), st.integers(2, 10), st.integers(1, 14))
    @settings(max_examples=60, deadline=None)
    def test_orthonormality(self, seed, d, count):
        gen = np.random.default_rng(seed)
        vectors = [gen.standard_normal(d) + 1j * gen.standard_normal(d)
                   for _ in range(count)]
        basis, accepted = selfcomm_oracle.gram_schmidt(vectors)
        k = basis.shape[1]
        assert len(accepted) == k
        if k:
            gram = basis.conj().T @ basis
            assert np.linalg.norm(gram - np.eye(k)) <= 1e-10 * k


class TestIsUnitary:
    def test_identity(self):
        assert numkit.unitary_defect(np.eye(3)) == 0.0

    def test_scaled_identity(self):
        assert numkit.unitary_defect(2 * np.eye(3)) == 3.0 * math.sqrt(3.0)

    def test_gram_schmidt_output(self, rng):
        vectors = [random_complex(rng, 6)[:, k] for k in range(6)]
        basis, _ = selfcomm_oracle.gram_schmidt(vectors)
        assert basis.shape == (6, 6)
        assert numkit.unitary_defect(basis) <= numkit.DEFAULT_TOL
