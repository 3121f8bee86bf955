import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commlab import idealseq, selfcomm
from commlab.numkit import DomainError
from commlab.sequences import PowerLog

# Decay-convention grid (p, q) meaning d_n = n^-p * log(n+1)^-q, realized as
# PowerLog(1, -p, -q).
GRID_P = (0.5, 1.0, 1.5)
GRID_Q = (0.0, 1.0, 2.0, 3.0)


def decay(p: float, q: float) -> PowerLog:
    return PowerLog(1.0, -p, -q)


class TestClassify:
    def test_gap_family(self):
        # d_n = 1/(n log^2(n+1)): summable, but the log weight tips it over.
        verdict = idealseq.classify_hsii(decay(1.0, 2.0))
        assert verdict.in_trace_class is True
        assert verdict.in_commutator_class is False

    def test_fast_decay_both(self):
        verdict = idealseq.classify_hsii(decay(2.0, 0.0))
        assert verdict.in_trace_class is True
        assert verdict.in_commutator_class is True
        # numeric corroboration: partial sums settle under zeta(2)
        assert verdict.diagnostics["partial_sum"] < 1.7

    def test_harmonic_neither(self):
        verdict = idealseq.classify_hsii(decay(1.0, 0.0))
        assert verdict.in_trace_class is False
        assert verdict.in_commutator_class is False
        # harmonic partial sums grow like log n
        assert verdict.diagnostics["log_slope"] == pytest.approx(1.0, abs=0.05)

    def test_explicit_indeterminate(self):
        verdict = idealseq.classify_hsii([1.0, 0.5, 0.25, 0.125])
        assert verdict.in_trace_class is None
        assert verdict.in_commutator_class is None
        assert verdict.diagnostics["partial_sum"] == pytest.approx(1.875)

    def test_commutator_implies_trace_on_grid(self):
        for p in GRID_P:
            for q in GRID_Q:
                verdict = idealseq.classify_hsii(decay(p, q))
                if verdict.in_commutator_class:
                    assert verdict.in_trace_class

    def test_termwise_dominance_preserves_divergence(self):
        # smaller decay exponents mean larger terms: a family dominating a
        # divergent one diverges too
        for p1 in GRID_P:
            for q1 in GRID_Q:
                g = idealseq.classify_hsii(decay(p1, q1))
                for p0 in GRID_P:
                    for q0 in GRID_Q:
                        if p0 <= p1 and q0 <= q1:
                            f = idealseq.classify_hsii(decay(p0, q0))
                            if g.in_trace_class is False:
                                assert f.in_trace_class is False
                            if g.in_commutator_class is False:
                                assert f.in_commutator_class is False


class TestTypeAPrefix:
    """A finite signed prefix is a self-commutator spectrum exactly when its
    positive and negative mass balance; the type (A) solver's trace test on
    diag(prefix) decides it."""

    def test_plain_balanced(self):
        rep = selfcomm.solve_type_A(np.diag([1.0, -1.0, 0.0, 0.0]))
        assert rep.passed
        assert rep.details["partial_sums"][-1] == 0.0

    def test_recurring_target_spectrum(self):
        rep = selfcomm.solve_type_A(np.diag([1 / 3, 1 / 3, 1 / 3, -1.0]))
        assert rep.passed
        assert rep.details["partial_sums"].max() == pytest.approx(1.0)
        assert rep.details["partial_sums"][-1] == pytest.approx(0.0, abs=1e-15)

    def test_unbalanced(self):
        with pytest.raises(DomainError, match="trace-zero"):
            selfcomm.solve_type_A(np.diag([1.0, 1.0, -1.0]))


class TestCertificates:
    def test_family_rows(self):
        rep = idealseq.certify_family(decay(1.0, 2.0))
        rows = {row.name: row.measured for row in rep.checks}
        assert rep.command == "seq classify" and rep.passed
        assert (rows["in_trace_class"], rows["in_commutator_class"]) == (1.0, 0.0)
        assert rows["diag_terms"] == 4096.0

    def test_explicit_verdicts_are_nan(self):
        rows = {r.name: r.measured for r in idealseq.certify_family([1.0, 0.5]).checks}
        assert np.isnan(rows["in_trace_class"]) and np.isnan(rows["in_commutator_class"])

    def test_mean(self):
        rep = idealseq.certify_mean([1.0, 0.0, 0.0, 0.0])
        assert rep.command == "seq mean"
        assert np.allclose(rep.matrices["mean"], [1.0, 0.5, 1 / 3, 0.25], atol=1e-15)
        assert [(r.name, r.measured) for r in rep.checks] == [
            ("terms", 4.0), ("final_mean", 0.25)]
        assert [r.measured for r in idealseq.certify_mean([]).checks] == [0.0, 0.0]


class TestArithmeticMean:
    def test_single_spike(self):
        got = idealseq.arithmetic_mean_sequence([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(got, [1.0, 0.5, 1 / 3, 0.25], atol=1e-15)

    def test_reorders_by_modulus(self):
        # (1/3, 1/3, 1/3, -1) re-sorts to (-1, 1/3, 1/3, 1/3); the running
        # means are then -1, -1/3, -1/9 and 0.
        got = idealseq.arithmetic_mean_sequence([1 / 3, 1 / 3, 1 / 3, -1.0])
        assert np.allclose(got, [-1.0, -1 / 3, -1 / 9, 0.0], atol=1e-15)

    def test_all_zero(self):
        assert np.abs(idealseq.arithmetic_mean_sequence([0.0] * 5)).max() == 0.0

    def test_exact_zero_tail_for_dyadic_list(self):
        got = idealseq.arithmetic_mean_sequence([1.0, 0.5, -1.5])
        assert got[-1] == 0.0

    def test_stable_tie_break(self):
        # equal moduli keep their original relative order
        got = idealseq.arithmetic_mean_sequence([1.0, -1.0, 1.0])
        assert np.allclose(got, [1.0, 0.0, 1 / 3], atol=1e-16)

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_trace_zero_lists_end_near_zero(self, values):
        lam = np.asarray(values, dtype=float)
        lam = np.concatenate([lam, [-lam.sum()]])
        got = idealseq.arithmetic_mean_sequence(lam)
        scale = 1.0 + np.abs(lam).sum()
        assert abs(got[-1]) <= 1e-12 * scale
