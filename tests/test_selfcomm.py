import itertools
import math
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commlab import numkit, selfcomm
from commlab.numkit import DomainError
import selfcomm_oracle
from conftest import (
    paired_sp_hermitian,
    project_to_sp,
    random_complex,
    random_sp,
    random_sp_hermitian,
    random_traceless_hermitian,
)


def type_a_sums(values) -> np.ndarray:
    """Partial sums a_j that solve_type_A reports for the target diag(values)."""
    return selfcomm.solve_type_A(np.diag(values).astype(complex)).details["partial_sums"]


class TestPartialSums:
    def test_recurring_example(self):
        got = type_a_sums([1 / 3, 1 / 3, 1 / 3, -1.0])
        assert np.allclose(got, [1 / 3, 2 / 3, 1.0, 0.0], atol=1e-15)

    def test_all_zero(self):
        assert np.array_equal(type_a_sums([0.0, 0.0]), [0.0, 0.0])

    def test_nonzero_sum_rejected(self):
        with pytest.raises(DomainError, match="trace-zero"):
            type_a_sums([1.0, 1.0, -1.0])

    def test_randomized_prefix_sums(self):
        # 10^4 centered lists of length <= 50: every prefix sum of the
        # descending sort stays above -1e-12.
        gen = np.random.default_rng(99)
        for _ in range(10_000):
            size = int(gen.integers(1, 51))
            c = gen.standard_normal(size)
            c -= c.mean()
            assert type_a_sums(c).min() >= -1e-12

    @given(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_prefix_sums_property(self, values):
        c = np.asarray(values) - np.mean(values)
        rep = selfcomm.solve_type_A(np.diag(c).astype(complex))
        assert rep.checks[0].name == "residual" and rep.checks[0].passed
        assert rep.details["partial_sums"].min() >= -1e-9 * (1 + np.abs(c).sum())

    def test_descending_order_against_enumeration(self):
        # The descending order the solver uses is among the orders whose
        # prefix sums all stay nonnegative, so no greedy rearrangement is needed.
        values = [1.0, -1.0, 0.5, -0.5]
        valid = {
            tuple(np.cumsum(np.asarray(values)[list(perm)]))
            for perm in itertools.permutations(range(4))
            if np.cumsum(np.asarray(values)[list(perm)]).min() >= -1e-12
        }
        assert tuple(type_a_sums(values)) in valid


class TestSolveTypeA:
    def test_recurring_example_norm(self):
        t = np.diag([1 / 3, 1 / 3, 1 / 3, -1.0]).astype(complex)
        rep = selfcomm.solve_type_A(t)
        assert rep.passed
        assert rep.checks[0].measured <= 1e-9 * (1 + numkit.hs_norm(t))
        assert abs(numkit.hs_norm(rep.matrices["Y"]) - math.sqrt(2)) <= 1e-12
        assert np.allclose(rep.details["partial_sums"], [1 / 3, 2 / 3, 1.0, 0.0], atol=1e-15)

    def test_report_rows(self, rng):
        t = random_traceless_hermitian(rng, 5)
        rep = selfcomm.solve_type_A(t)
        assert rep.command == "solve-selfcomm type=A"
        assert [row.name for row in rep.checks] == [
            "residual", "partial_sum_negativity", "solution_hs_norm"]
        scale = numkit.hs_norm(t)
        assert [row.tolerance for row in rep.checks] == [
            1e-9 * (1.0 + scale), numkit.TRACE_RTOL * (1.0 + scale), float("inf")]
        y = rep.matrices["Y"]
        assert rep.checks[0].measured == numkit.hs_norm(numkit.self_commutator(y) - t)
        assert rep.checks[2].measured == numkit.hs_norm(y)

    def test_zero(self):
        rep = selfcomm.solve_type_A(np.zeros((4, 4)))
        assert np.abs(rep.matrices["Y"]).max() == 0.0

    def test_random_residuals(self, rng):
        for d in (2, 5, 10, 16):
            t = random_traceless_hermitian(rng, d)
            rep = selfcomm.solve_type_A(t)
            assert rep.passed
            assert rep.checks[0].measured <= 1e-9 * (1 + numkit.hs_norm(t))
            assert rep.details["partial_sums"].min() >= -1e-12

    def test_nilpotent_in_diagonalizing_basis(self, rng):
        d = 8
        t = random_traceless_hermitian(rng, d)
        y = selfcomm.solve_type_A(t).matrices["Y"]
        w, v = np.linalg.eigh(t)
        vecs = v[:, numkit.descending_order(w)]
        yhat = vecs.conj().T @ y @ vecs
        assert np.abs(np.triu(yhat)).max() <= 1e-12  # strictly below the diagonal
        assert np.abs(np.linalg.matrix_power(yhat, d)).max() <= 1e-9

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(DomainError):
            selfcomm.solve_type_A(random_complex(rng, 4))

    def test_rejects_nonzero_trace(self):
        with pytest.raises(DomainError, match="trace-zero"):
            selfcomm.solve_type_A(np.diag([1.0, 1.0]))

    def test_non_hermitian_reported_before_trace(self):
        with pytest.raises(DomainError, match="not Hermitian"):
            selfcomm.solve_type_A(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_one_hermitian_check_per_solve(self, rng, monkeypatch):
        calls = []
        defect = numkit.hermitian_defect
        monkeypatch.setattr(numkit, "hermitian_defect", lambda a: calls.append(1) or defect(a))
        selfcomm.solve_type_A(random_traceless_hermitian(rng, 5))
        assert len(calls) == 1

    def test_one_norm_of_t_per_solve(self, rng, monkeypatch):
        # One ||T|| serves the Hermitian check, the trace test and the
        # tolerances; the other two are the residual's and Y's.
        calls = []
        norm = numkit.hs_norm
        monkeypatch.setattr(numkit, "hs_norm", lambda a: calls.append(1) or norm(a))
        selfcomm.solve_type_A(random_traceless_hermitian(rng, 5))
        assert len(calls) == 3

    def test_trace_within_the_trace_slack_passes(self):
        # The trace test accepts |tr T| up to TRACE_RTOL (1 + ||T||_F), and
        # the last partial sum is the trace, so it may dip that far below 0.
        rep = selfcomm.solve_type_A(np.diag([1.0, -1.0 - 1e-10]))
        assert rep.passed
        assert rep.checks[1].measured == pytest.approx(1e-10, rel=1e-6)


class TestAntiConjugation:
    def test_m1_formula(self):
        j = selfcomm.make_anticonjugation(1)
        v = np.array([2.0 + 1.0j, -3.0 + 4.0j])
        got = j.apply(v)
        assert np.allclose(got, [np.conj(v[1]), -np.conj(v[0])], atol=1e-16)

    def test_squares_to_minus_identity(self, rng):
        j = selfcomm.make_anticonjugation(3)
        for _ in range(10):
            v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            assert np.abs(j.apply(j.apply(v)) + v).max() <= 1e-12

    def test_isometry_and_orthogonality(self, rng):
        j = selfcomm.make_anticonjugation(4)
        for _ in range(100):
            v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            w = j.apply(v)
            assert abs(np.linalg.norm(w) - np.linalg.norm(v)) <= 1e-12 * np.linalg.norm(v)
            assert abs(np.vdot(v, w)) <= 1e-12 * np.linalg.norm(v) ** 2

    def test_odd_dimension_rejected(self):
        bad = np.zeros((3, 3))
        with pytest.raises(DomainError):
            selfcomm.AntiConjugation(matrix=bad)


class TestMembership:
    def test_zero_in_sp(self):
        j = selfcomm.make_anticonjugation(2)
        assert selfcomm.sp_defect(np.zeros((4, 4)), j) == 0.0

    def test_pair_shift_in_sp(self):
        # E_{-1,1} in the (1, -1) labeling is the unit at row 1, column 0.
        j = selfcomm.make_anticonjugation(1)
        x = np.zeros((2, 2), dtype=complex)
        x[1, 0] = 1.0
        assert selfcomm.sp_defect(x, j) <= 1e-12

    def test_identity_not_in_sp(self):
        j = selfcomm.make_anticonjugation(2)
        assert selfcomm.sp_defect(np.eye(4), j) > 1e-9

    def test_sp_closure_under_bracket(self, rng):
        j = selfcomm.make_anticonjugation(4)
        for _ in range(5):
            x = random_sp(rng, j)
            w = random_sp(rng, j)
            assert selfcomm.sp_defect(numkit.commutator(x, w), j) <= 1e-10 * (
                1 + numkit.hs_norm(x) * numkit.hs_norm(w)
            )

    def test_sp_projection_idempotent(self, rng):
        j = selfcomm.make_anticonjugation(3)
        x = random_sp(rng, j)
        again = project_to_sp(x, j)
        assert np.abs(again - x).max() <= 1e-12

    def test_dimension_mismatch(self):
        j = selfcomm.make_anticonjugation(2)
        with pytest.raises(numkit.ShapeError):
            selfcomm.sp_defect(np.eye(6), j)


class TestSpectralPairing:
    def test_paired_diagonal(self):
        j = selfcomm.make_anticonjugation(1)
        lam, basis = selfcomm.spectral_pairing(np.diag([1.0, -1.0]).astype(complex), j)
        assert np.allclose(lam, [1.0])
        assert numkit.unitary_defect(basis) <= 1e-12

    def test_zero_matrix_even_kernel(self):
        j = selfcomm.make_anticonjugation(2)
        lam, basis = selfcomm.spectral_pairing(np.zeros((4, 4)), j)
        assert np.allclose(lam, [0.0, 0.0])
        assert numkit.unitary_defect(basis) <= 1e-10

    def test_random_pairing(self, rng):
        j = selfcomm.make_anticonjugation(5)
        for _ in range(10):
            t = random_sp_hermitian(rng, j)
            lam, basis = selfcomm.spectral_pairing(t, j)
            assert (lam >= 0).all()
            # multiset check: the spectrum equals its own negation
            w = np.sort(np.linalg.eigvalsh(t))
            assert np.abs(w + w[::-1]).max() <= 1e-8
            assert numkit.unitary_defect(basis) <= 1e-8

    def test_pairing_with_kernel(self, rng):
        # embed a 4-dimensional kernel by zeroing two weight pairs
        j = selfcomm.make_anticonjugation(4)
        lam0 = np.array([1.5, 0.7, 0.0, 0.0])
        t = np.diag(np.concatenate([lam0, -lam0])).astype(complex)
        lam, basis = selfcomm.spectral_pairing(t, j)
        assert np.allclose(np.sort(lam), np.sort(lam0), atol=1e-12)
        recon = basis @ np.diag(np.concatenate([lam, -lam])) @ basis.conj().T
        assert np.abs(recon - t).max() <= 1e-10

    def test_rejects_non_sp(self, rng):
        j = selfcomm.make_anticonjugation(2)
        t = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        with pytest.raises(DomainError, match="not in sp"):
            selfcomm.spectral_pairing(t, j)


@st.composite
def clustered_spectra(draw):
    """(m, relative offsets, kernel pairs): up to m - 1 eigenvalue pairs
    within 1e-6 relative of the zero threshold, then exact kernel pairs."""
    m = draw(st.integers(2, 10))
    small = draw(st.lists(st.floats(-1e-6, 1e-6), min_size=1, max_size=m - 1))
    return m, small, draw(st.integers(0, m - 1 - len(small)))


def pairing_outcome(pairing, t, j):
    """``pairing(t, j)``, or the DomainError verdict it raises.

    The verdict is the message without the count of directions found, which
    depends on the order in which a kernel that is not Jt-invariant (an
    eigenvalue pair at the zero threshold) gets orthogonalised.
    """
    try:
        return pairing(t, j)
    except DomainError as exc:
        return re.sub(r"produced \d+", "produced N", str(exc))


class TestKernelPairingOracle:
    """The one-pass kernel pairing against the re-orthogonalising loop it replaced."""

    @staticmethod
    def assert_same(t, j):
        got = pairing_outcome(selfcomm.spectral_pairing, t, j)
        want = pairing_outcome(selfcomm_oracle.spectral_pairing, t, j)
        if isinstance(want, str):
            assert got == want
            return
        assert not isinstance(got, str), got
        assert got[0].tobytes() == want[0].tobytes()  # lambda bit for bit
        # Eigenvectors at the zero threshold are resolved only to ~1e-7, so
        # the paired basis is as unitary as the oracle's, not more.
        assert numkit.unitary_defect(got[1]) <= (numkit.unitary_defect(want[1])
                                                 + 1e-12 * j.dimension)
        # array_equal counts -0.0 == 0.0: Y agrees up to the sign of zeros.
        assert np.array_equal(selfcomm.solve_type_C(t, j).matrices["Y"],
                              selfcomm_oracle.solution(t, j))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_kernels_of_every_even_dimension(self, seed, m, data):
        k = data.draw(st.integers(0, m), label="kernel pairs")
        gen = np.random.default_rng(seed)
        j = selfcomm.make_anticonjugation(m)
        lam = np.concatenate([gen.uniform(0.1, 2.0, m - k), np.zeros(k)])
        self.assert_same(paired_sp_hermitian(gen, j, lam), j)

    @given(st.integers(0, 2**32 - 1), clustered_spectra())
    # A pair 1.000001 times the zero threshold: the computed kernel is
    # Jt-invariant only to about 1e-8, the size of the rejection tolerance.
    @example(10, (10, [9.333442874161169e-07], 2))
    @settings(max_examples=60, deadline=None)
    def test_eigenvalues_clustered_at_the_zero_threshold(self, seed, spectrum):
        # lambda = (1 + delta) * 1e-9 * ||T||_F for the small pairs, so they
        # fall on either side of the zero threshold, or straddle it.
        m, small, zeros = spectrum
        gen = np.random.default_rng(seed)
        j = selfcomm.make_anticonjugation(m)
        big = gen.uniform(0.1, 2.0, m - len(small) - zeros)
        ztol = 1e-9 * math.sqrt(2.0 * float(big @ big))
        lam = np.concatenate([big, ztol * (1.0 + np.asarray(small)), np.zeros(zeros)])
        self.assert_same(paired_sp_hermitian(gen, j, lam), j)

    def test_rejections_agree(self, rng):
        j = selfcomm.make_anticonjugation(3)
        for t in (np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), random_sp_hermitian(rng, j) + 1e-3):
            self.assert_same(t.astype(complex), j)

    def test_large_kernel_in_one_pass(self, rng):
        # d = 256 with a 252-dimensional kernel: the re-orthogonalising loop
        # took seconds here; best of three guards against a stalled host.
        j = selfcomm.make_anticonjugation(128)
        t = paired_sp_hermitian(rng, j, np.concatenate([[1.5, 0.7], np.zeros(126)]))
        times = []
        for _ in range(3):
            start = time.perf_counter()
            rep = selfcomm.solve_type_C(t, j)
            times.append(time.perf_counter() - start)
        assert rep.passed
        assert np.array_equal(rep.details["eigenvalues"][2:], np.zeros(126))
        assert min(times) < 0.5


class TestSolveTypeC:
    def test_two_pair_example(self):
        j = selfcomm.make_anticonjugation(2)
        t = np.diag([1.0, 0.5, -1.0, -0.5]).astype(complex)
        rep = selfcomm.solve_type_C(t, j)
        y = rep.matrices["Y"]
        nonzero = np.abs(y) > 1e-12
        assert nonzero.sum() == 2
        vals = sorted(np.abs(y[nonzero]))
        assert vals == pytest.approx([math.sqrt(0.5), 1.0], abs=1e-12)
        assert numkit.hs_norm(numkit.self_commutator(y) - t) <= 1e-10

    def test_zero(self):
        j = selfcomm.make_anticonjugation(2)
        rep = selfcomm.solve_type_C(np.zeros((4, 4)), j)
        assert np.abs(rep.matrices["Y"]).max() == 0.0

    def test_random_instances(self, rng):
        for m in (2, 4, 8):
            j = selfcomm.make_anticonjugation(m)
            t = random_sp_hermitian(rng, j)
            rep = selfcomm.solve_type_C(t, j)
            assert rep.passed
            y = rep.matrices["Y"]
            got = np.sort(np.linalg.eigvalsh(numkit.self_commutator(y)))
            want = np.sort(np.linalg.eigvalsh(t))
            assert np.abs(got - want).max() <= 1e-7

    def test_one_norm_of_t_per_solve(self, rng, monkeypatch):
        # One ||T|| serves the Hermitian check, the pairing's thresholds and
        # the residual tolerance; the other two are the residual's and Y's.
        j = selfcomm.make_anticonjugation(3)
        t = random_sp_hermitian(rng, j)
        calls = []
        norm = numkit.hs_norm
        monkeypatch.setattr(numkit, "hs_norm", lambda a: calls.append(1) or norm(a))
        selfcomm.solve_type_C(t, j)
        assert len(calls) == 3

    def test_non_hermitian_rejected_as_such(self, rng):
        j = selfcomm.make_anticonjugation(3)
        for t in (random_sp(rng, j), np.triu(np.ones((6, 6)))):
            with pytest.raises(DomainError, match="not Hermitian"):
                selfcomm.solve_type_C(t, j)

    def test_one_hermitian_check_per_solve(self, rng, monkeypatch):
        calls = []
        defect = numkit.hermitian_defect
        monkeypatch.setattr(numkit, "hermitian_defect", lambda a: calls.append(1) or defect(a))
        j = selfcomm.make_anticonjugation(4)
        assert selfcomm.solve_type_C(random_sp_hermitian(rng, j), j).passed
        assert len(calls) == 1


class TestSplitTypeC:
    def test_hermitian_input_kills_skew_branch(self, rng):
        j = selfcomm.make_anticonjugation(3)
        t = random_sp_hermitian(rng, j)
        x, y = selfcomm.split_type_C(t, j)
        assert np.abs(y).max() <= 1e-12
        assert numkit.hs_norm(numkit.self_commutator(x) - t) <= 1e-8 * (
            1 + numkit.hs_norm(t)
        )

    def test_skew_hermitian_input_kills_hermitian_branch(self, rng):
        j = selfcomm.make_anticonjugation(3)
        h = random_sp_hermitian(rng, j)
        t = 1j * h  # skew-Hermitian, still in sp
        x, y = selfcomm.split_type_C(t, j)
        assert np.abs(x).max() <= 1e-12

    def test_random_reconstruction(self, rng):
        j = selfcomm.make_anticonjugation(4)
        for _ in range(5):
            t = random_sp(rng, j)
            x, y = selfcomm.split_type_C(t, j)
            recon = numkit.self_commutator(x) + 1j * numkit.self_commutator(y)
            assert numkit.hs_norm(recon - t) <= 1e-8 * (1 + numkit.hs_norm(t))


class TestUnitaryEquivalence:
    def test_conjugated_anticonjugation(self, rng):
        # V Jt V* is again an anti-conjugation and Ad_V carries one
        # symplectic algebra onto the other.
        m = 3
        j = selfcomm.make_anticonjugation(m)
        q, _ = np.linalg.qr(random_complex(rng, 2 * m))
        j2 = selfcomm.AntiConjugation(matrix=q @ j.matrix @ q.T)
        for _ in range(5):
            x = random_sp(rng, j)
            moved = q @ x @ q.conj().T
            assert selfcomm.sp_defect(moved, j2) <= 1e-9 * (1 + numkit.hs_norm(x))
