import numpy as np
import pytest

from commlab.numkit import DomainError
from commlab.sequences import PowerLog, WeightSequence


class TestPowerLog:
    def test_terms_formula(self):
        fam = PowerLog(2.0, 0.5, -1.0)
        n = np.arange(1, 9, dtype=float)
        expect = 2.0 * np.sqrt(n) / np.log(n + 1)
        assert np.allclose(fam.terms(8), expect, rtol=1e-15)

    def test_negative_coeff_rejected(self):
        with pytest.raises(DomainError):
            PowerLog(-1.0)

    def test_zero_coeff_everything_converges(self):
        fam = PowerLog(0.0, 3.0, 3.0)
        assert fam.is_summable()
        assert fam.is_log_weighted_summable()
        assert fam.ratio_to_index_vanishes()

    def test_growth_conditions(self):
        assert PowerLog(1.0, 0.5).ratio_to_index_vanishes()          # sqrt(n)
        assert PowerLog(1.0, 0.0, 1.0).ratio_to_index_vanishes()     # log(n+1)
        assert not PowerLog(1.0, 2.0).ratio_to_index_vanishes()      # n^2
        assert PowerLog(1.0, 1.0, -1.0).ratio_to_index_vanishes()    # n/log
        assert not PowerLog(1.0, 1.0).ratio_to_index_vanishes()      # n


class TestWeightSequence:
    def test_powerlog_prefix_matches_family(self):
        w = WeightSequence.powerlog(1.0, 0.5, count=10)
        assert np.allclose(w.values(10), np.sqrt(np.arange(1, 11)), rtol=1e-15)
        # longer requests re-materialize from the closed form
        assert w.values(20).size == 20

    def test_explicit_too_short(self):
        w = WeightSequence.explicit([1.0, 2.0])
        assert np.allclose(w.values(2), [1.0, 2.0])
        with pytest.raises(DomainError):
            w.values(3)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            WeightSequence.explicit([1.0, np.inf])

    def test_non_finite_extension_rejected(self):
        # The prefix d_1..d_3 of n^400 is finite; d_6 and beyond overflow.
        w = WeightSequence.powerlog(1.0, 400.0, count=3)
        assert np.isfinite(w.values(3)).all()
        with pytest.raises(DomainError, match="non-finite"):
            w.values(9)
