import functools
import math
import warnings

import numpy as np
import pytest

from commlab import minimize, numkit
from commlab.numkit import DomainError, NumericError
from conftest import random_complex
import minimize_oracle


def central_difference_gradients(a, b, target, mu, h=1e-6):
    """Entrywise central differences of the penalty value (the oracle)."""
    def value(aa, bb):
        r = aa @ bb - bb @ aa - target
        return (np.linalg.norm(aa) ** 2 + np.linalg.norm(bb) ** 2
                + mu * np.linalg.norm(r) ** 2)

    def grad_wrt(m, other, first):
        g = np.zeros_like(m)
        for i in range(m.shape[0]):
            for k in range(m.shape[1]):
                for unit in (1.0, 1.0j):
                    e = np.zeros_like(m)
                    e[i, k] = unit * h
                    if first:
                        diff = value(m + e, other) - value(m - e, other)
                    else:
                        diff = value(other, m + e) - value(other, m - e)
                    g[i, k] += unit * diff / (2 * h)
        return g

    return grad_wrt(a, b, True), grad_wrt(b, a, False)


class TestLowerBound:
    def test_recurring_target(self):
        assert minimize.lower_bound_certificate(
            np.diag([-1.0, 1 / 3, 1 / 3, 1 / 3])
        ) == pytest.approx(1.0, abs=1e-13)

    def test_three_dim_target(self):
        assert minimize.lower_bound_certificate(
            np.diag([-1.0, 0.5, 0.5])
        ) == pytest.approx(1.0, abs=1e-13)

    def test_zero(self):
        assert minimize.lower_bound_certificate(np.zeros((3, 3))) == 0.0


class TestPenaltyGradient:
    def test_all_zero(self):
        z = np.zeros((3, 3))
        ga, gb, value = minimize.penalty_gradient(z, z, z, 5.0)
        assert value == 0.0
        assert np.abs(ga).max() == 0.0 and np.abs(gb).max() == 0.0

    def test_finite_difference_oracle(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 5))
            a, b, t = (random_complex(rng, d) for _ in range(3))
            mu = float(rng.uniform(0.5, 20.0))
            ga, gb, _ = minimize.penalty_gradient(a, b, t, mu)
            na, nb = central_difference_gradients(a, b, t, mu)
            scale = 1.0 + max(np.abs(ga).max(), np.abs(gb).max())
            assert np.abs(ga - na).max() / scale <= 1e-5
            assert np.abs(gb - nb).max() / scale <= 1e-5

    def test_feasible_point_gradient_is_regularizer(self):
        # At the known optimal pair the residual vanishes, so even a huge
        # penalty weight leaves only the norm term.
        ga, _, _ = minimize.penalty_gradient(
            minimize.OPTIMAL_A, minimize.OPTIMAL_B, minimize.OPTIMAL_TARGET, 1e6
        )
        assert np.abs(ga - 2 * minimize.OPTIMAL_A).max() <= 1e-6

    def test_stacked_matches_per_slice_calls(self, rng):
        for d in (2, 3, 4):
            a = np.stack([random_complex(rng, d) for _ in range(7)])
            b = np.stack([random_complex(rng, d) for _ in range(7)])
            t = random_complex(rng, d)
            mu = rng.uniform(0.5, 1e4, size=7)
            ga, gb, value = minimize.penalty_gradient(a, b, t, mu)
            assert ga.shape == gb.shape == (7, d, d) and value.shape == (7,)
            for r in range(7):
                ga1, gb1, v1 = minimize.penalty_gradient(a[r], b[r], t, mu[r])
                scale = 1.0 + max(np.abs(ga1).max(), np.abs(gb1).max())
                assert np.abs(ga[r] - ga1).max() / scale <= 1e-14
                assert np.abs(gb[r] - gb1).max() / scale <= 1e-14
                assert abs(value[r] - v1) / (1.0 + v1) <= 1e-14

    def test_stacked_finite_difference_oracle(self, rng):
        d = 3
        a = np.stack([random_complex(rng, d) for _ in range(4)])
        b = np.stack([random_complex(rng, d) for _ in range(4)])
        t = random_complex(rng, d)
        mu = rng.uniform(0.5, 20.0, size=4)
        ga, gb, _ = minimize.penalty_gradient(a, b, t, mu)
        for r in range(4):
            na, nb = central_difference_gradients(a[r], b[r], t, mu[r])
            scale = 1.0 + max(np.abs(ga[r]).max(), np.abs(gb[r]).max())
            assert np.abs(ga[r] - na).max() / scale <= 1e-5
            assert np.abs(gb[r] - nb).max() / scale <= 1e-5

    def test_shape_mismatch_rejected(self):
        a = np.zeros((2, 3, 3))
        with pytest.raises(numkit.ShapeError):
            minimize.penalty_gradient(a, np.zeros((3, 3, 3)), np.zeros((3, 3)), 1.0)
        with pytest.raises(numkit.ShapeError):
            minimize.penalty_gradient(a, a, np.zeros((2, 2)), 1.0)
        with pytest.raises(numkit.ShapeError):
            minimize.penalty_gradient(np.zeros(3), np.zeros(3), np.zeros((3, 3)), 1.0)


class TestCertify:
    def test_certified_search(self):
        cfg = minimize.MinimizeConfig(target=np.diag([1.0, -1.0]), restarts=3, seed=11)
        rep = minimize.certify(cfg)
        res = minimize.minimize_commutator(cfg)
        assert rep.failure is None and rep.passed
        assert [row.name for row in rep.checks] == [
            "feasibility", "objective", "lower_bound", "objective_above_bound"]
        assert rep.checks[1].measured == res.objective
        assert (rep.matrices["best_a"] == res.best_a).all()
        header, rows = rep.tables["restarts"]
        assert header[0] == "restart" and len(rows) == 3

    def test_uncertified_search_sets_failure(self):
        cfg = minimize.MinimizeConfig(target=np.diag([1.0, -1.0]), restarts=1, max_iters=2)
        rep = minimize.certify(cfg)
        assert isinstance(rep.failure, NumericError)
        assert "no restart reached feasibility" in str(rep.failure)
        assert not rep.passed  # the feasibility row fails
        assert sorted(rep.matrices) == ["best_a", "best_b"] and list(rep.tables) == ["restarts"]


class TestVerifyOptimalPair:
    def test_passes(self):
        rep = minimize.verify_optimal_pair()
        assert rep.passed
        names = [row.name for row in rep.checks]
        assert "commutator_max_error" in names
        assert "staircase_zero_pattern" in names


def diagonal_equations(a, b) -> np.ndarray:
    """Diagonal of [A, B] through the entrywise bilinear expansion.

    Entry i is sum_k (a_ik b_ki - b_ik a_ki); an independent path that must
    agree with the diagonal of the matrix-product commutator.
    """
    return np.einsum("ik,ki->i", a, b) - np.einsum("ik,ki->i", b, a)


class TestDiagonalEquations:
    def test_optimal_pair(self):
        got = diagonal_equations(minimize.OPTIMAL_A, minimize.OPTIMAL_B)
        assert np.abs(got - np.array([-1.0, 1 / 3, 1 / 3, 1 / 3])).max() <= 1e-15

    def test_equal_arguments(self, rng):
        a = random_complex(rng, 4)
        assert np.abs(diagonal_equations(a, a)).max() <= 1e-12

    def test_matches_commutator_diagonal(self, rng):
        a, b = random_complex(rng, 4), random_complex(rng, 4)
        got = diagonal_equations(a, b)
        want = np.diag(numkit.commutator(a, b))
        assert np.abs(got - want).max() <= 1e-12


class TestMinimizeCommutator:
    def test_zero_target(self):
        cfg = minimize.MinimizeConfig(target=np.zeros((3, 3)), restarts=2, seed=0)
        res = minimize.minimize_commutator(cfg)
        assert res.objective == 0.0
        assert res.feasibility == 0.0
        assert res.certified
        assert [(t.stop_reason, t.converged, t.iterations) for t in res.restarts] == [
            ("gtol", True, 0), ("gtol", True, 0)]

    def test_two_dim_target_reaches_known_minimum(self):
        # [E12, E21] = diag(1, -1) with both norms 1, matching the universal
        # lower bound, so the optimum is exactly 1.
        cfg = minimize.MinimizeConfig(
            target=np.diag([1.0, -1.0]), restarts=6, seed=11, max_iters=8000
        )
        res = minimize.minimize_commutator(cfg)
        assert res.certified
        assert res.objective == pytest.approx(1.0, abs=1e-4)
        assert res.objective >= res.lower_bound - 1e-6

    def test_repeated_runs_bit_identical(self):
        cfg = minimize.MinimizeConfig(target=np.diag([1.0, -1.0]), restarts=4, seed=3)
        r1 = minimize.minimize_commutator(cfg)
        r2 = minimize.minimize_commutator(cfg)
        assert (r1.best_a == r2.best_a).all()
        assert (r1.best_b == r2.best_b).all()
        assert r1.objective == r2.objective
        assert r1.restarts == r2.restarts

    @pytest.mark.parametrize("target", [
        np.diag([1.0, -1.0]),
        np.diag([-1.0, 0.5, 0.5]),
        minimize.OPTIMAL_TARGET,
    ], ids=["2x2", "3x3", "4x4"])
    def test_restart_count_gives_bit_identical_prefixes(self, target):
        # Restart r depends only on (seed, r): a larger stack reproduces a
        # smaller one's traces, final pairs and best pair bit for bit.
        target = numkit.as_square(target)
        lb = minimize.lower_bound_certificate(target)
        starts = [minimize._initial_pair(target, 2026, r, lb) for r in range(50)]
        a50, b50, iters50, reasons50 = minimize._descend(
            np.stack([s[0] for s in starts]), np.stack([s[1] for s in starts]),
            target, 20000)
        stacked = [minimize._balanced_trace(r, a50[r], b50[r], target,
                                            iters50[r], reasons50[r])
                   for r in range(50)]
        for n in (1, 10, 50):
            res = minimize.minimize_commutator(
                minimize.MinimizeConfig(target=target, restarts=n, seed=2026))
            assert res.restarts == [t for t, _, _ in stacked[:n]]
            assert any((a == res.best_a).all() and (b == res.best_b).all()
                       for _, a, b in stacked[:n])

    def test_running_best_never_increases(self):
        cfg = minimize.MinimizeConfig(target=np.diag([1.0, -1.0]), restarts=6, seed=5)
        res = minimize.minimize_commutator(cfg)
        feasible = [t.objective for t in res.restarts
                    if t.feasibility <= minimize.FEASIBILITY_TOL]
        running = np.minimum.accumulate(feasible)
        assert (np.diff(running) <= 0).all()
        assert res.objective <= running[-1] + minimize.OBJECTIVE_TIE

    def test_infeasible_budget_flagged_not_raised(self):
        cfg = minimize.MinimizeConfig(
            target=np.diag([1.0, -1.0]), restarts=1, seed=0, max_iters=2
        )
        res = minimize.minimize_commutator(cfg)
        assert not res.certified
        assert res.feasibility > minimize.FEASIBILITY_TOL
        assert [(t.stop_reason, t.converged) for t in res.restarts] == [("budget", False)]

    def test_config_validation(self):
        with pytest.raises(DomainError):
            minimize.MinimizeConfig(target=np.eye(3))
        with pytest.raises(DomainError):
            minimize.MinimizeConfig(target=np.zeros((2, 2)), restarts=0)


class TestScalarOracle:
    """The stacked descent against one-restart-at-a-time scalar loops."""

    @pytest.mark.parametrize("target", [
        np.diag([1.0, -1.0]),
        np.diag([-1.0, 0.5, 0.5]),
        minimize.OPTIMAL_TARGET,
    ], ids=["2x2", "3x3", "4x4"])
    def test_agrees_restart_by_restart(self, target):
        cfg = minimize.MinimizeConfig(target=target, restarts=8, seed=2026)
        res = minimize.minimize_commutator(cfg)
        for trace in res.restarts:
            want, _, _ = minimize_oracle.run_restart(
                cfg.target, cfg.seed, trace.restart, cfg.max_iters)
            assert ((trace.feasibility <= minimize.FEASIBILITY_TOL)
                    == (want.feasibility <= minimize.FEASIBILITY_TOL))
            assert abs(trace.objective - want.objective) <= 1e-6

    def test_budget_exit_matches_exactly(self):
        # Two steps from the same start leave no room for rounding to steer
        # the two paths apart.
        target = numkit.as_square(np.diag([1.0, -1.0]))
        cfg = minimize.MinimizeConfig(target=target, restarts=3, seed=0, max_iters=2)
        res = minimize.minimize_commutator(cfg)
        for trace in res.restarts:
            want, _, _ = minimize_oracle.run_restart(target, 0, trace.restart, 2)
            assert trace.iterations == want.iterations == 2
            assert trace.stop_reason == want.stop_reason == "budget"
            assert abs(trace.objective - want.objective) <= 1e-12


def _random_traceless(d: int) -> np.ndarray:
    g = random_complex(np.random.default_rng(5), d)
    return g - (np.trace(g) / d) * np.eye(d)


STACKED_TARGETS = {
    "2x2": np.diag([1.0, -1.0]),
    "3x3": np.diag([-1.0, 0.5, 0.5]),
    "4x4": minimize.OPTIMAL_TARGET,
    "5x5": _random_traceless(5),
    "zero": np.zeros((3, 3)),
}
# Every target at 1, 7 and 50 restarts and budgets of 2, 40 and 20000
# steps, except that the random 5x5 target spends any budget it gets (10-50 s
# per case at 20000 steps on a 2-vCPU machine), so it stops at 40.
STACKED_CASES = [
    (name, restarts, max_iters)
    for name in STACKED_TARGETS
    for restarts in (1, 7, 50)
    for max_iters in (2, 40, 20000)
    if not (name == "5x5" and max_iters == 20000)
]


@functools.cache
def stacked_outcomes(name: str, restarts: int, max_iters: int):
    """(``_descend``'s, the stacked oracle's) (a, b, iters, reasons).

    Both run with warnings raised as errors, so a masked quotient or a
    masked trial cannot hide a division by zero or an overflow.
    """
    target = numkit.as_square(STACKED_TARGETS[name])
    lb = minimize.lower_bound_certificate(target)
    starts = [minimize._initial_pair(target, 2026, r, lb) for r in range(restarts)]
    a, b = np.stack([s[0] for s in starts]), np.stack([s[1] for s in starts])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return (minimize._descend(a, b, target, max_iters),
                minimize_oracle.stacked_descend(a, b, target, max_iters))


class TestStackedOracle:
    """The descent against the stacked descent that carries nothing between steps."""

    @pytest.mark.parametrize("name,restarts,max_iters", STACKED_CASES)
    def test_bit_identical(self, name, restarts, max_iters):
        got, want = stacked_outcomes(name, restarts, max_iters)
        for label, x, y in zip(("a", "b", "iters", "reasons"), got, want):
            assert x.dtype == y.dtype and x.shape == y.shape, label
            assert x.tobytes() == y.tobytes(), label

    def test_cases_reach_every_exit(self):
        reasons = {minimize.STOP_REASONS[code]
                   for case in STACKED_CASES for code in stacked_outcomes(*case)[1][3]}
        assert {"gtol", "stagnation", "budget"} <= reasons


class TestStopReason:
    def test_recurring_target_restarts_converge(self):
        cfg = minimize.MinimizeConfig(
            target=minimize.OPTIMAL_TARGET, restarts=50, seed=2026
        )
        res = minimize.minimize_commutator(cfg)
        assert any(t.converged for t in res.restarts)
        for t in res.restarts:
            assert t.stop_reason in minimize.STOP_REASONS
            assert t.converged == (t.feasibility <= minimize.FEASIBILITY_TOL
                                   and t.stop_reason in ("gtol", "stagnation"))
