"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime against the stated budget."""

import math
import time

import numpy as np

from commlab import anderson, idealseq, liealg, minimize, numkit, selfcomm, staircase
from commlab.sequences import PowerLog, WeightSequence
from conftest import (
    random_complex,
    random_sp_hermitian,
    random_traceless_hermitian,
)
from test_minimize import central_difference_gradients

ROOT43 = math.sqrt(4.0 / 3.0)


def report(number: int, description: str, elapsed: float, budget: float) -> None:
    print(f"criterion {number:02d} PASS ({elapsed:.3f}s < {budget:g}s): {description}")
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


def test_criterion_01_exact_optimal_pair():
    minimize.verify_optimal_pair()  # warm-up (imports, allocator)
    t0 = time.perf_counter()
    rep = minimize.verify_optimal_pair()
    elapsed = time.perf_counter() - t0
    assert rep.passed
    comm = numkit.commutator(minimize.OPTIMAL_A, minimize.OPTIMAL_B)
    assert np.abs(comm - np.diag([-1.0, 1 / 3, 1 / 3, 1 / 3])).max() <= 1e-15
    assert abs(numkit.hs_norm(minimize.OPTIMAL_A) - ROOT43) <= 1e-15
    assert abs(numkit.hs_norm(minimize.OPTIMAL_B) - ROOT43) <= 1e-15
    report(1, "known optimal pair certified at 1e-15", elapsed, 1e-3)


def test_criterion_02_minimum_recovered():
    t0 = time.perf_counter()
    cfg4 = minimize.MinimizeConfig(
        target=minimize.OPTIMAL_TARGET, restarts=50, seed=2026
    )
    res4 = minimize.minimize_commutator(cfg4)
    assert res4.certified
    assert ROOT43 - 1e-3 <= res4.objective <= ROOT43 + 1e-2

    cfg3 = minimize.MinimizeConfig(
        target=np.diag([-1.0, 0.5, 0.5]).astype(complex), restarts=50, seed=2026
    )
    res3 = minimize.minimize_commutator(cfg3)
    assert res3.certified
    assert 1.0 - 1e-3 <= res3.objective <= 1.0 + 1e-2
    elapsed = time.perf_counter() - t0
    report(
        2,
        f"minima recovered: {res4.objective:.6f} ~ sqrt(4/3), "
        f"{res3.objective:.6f} ~ 1",
        elapsed,
        30.0,
    )


def test_criterion_03_positive_diagonal_construction():
    t0 = time.perf_counter()
    block_count = 10
    interior_dim = (block_count - 1) * block_count // 2  # all but last two rows

    for weights in (
        WeightSequence.powerlog(1.0, 0.5, count=block_count + 1),
        WeightSequence.powerlog(1.0, 0.0, 1.0, count=block_count + 1),
    ):
        rep = anderson.verify_positive_commutator(weights, block_count, 1e-10)
        assert rep.details["dimension"] == 66
        assert rep.passed
        means = rep.details["block_means"]
        assert min(means[: block_count - 1]) > 0.0
        # measured per-block diagonal agrees with the multiplicity-graded
        # eigenvalue list, settling the indexing question empirically
        c, z = anderson.build_modified(weights, block_count)
        w = numkit.commutator(anderson.assemble(c), anderson.assemble(z))
        profile = anderson.eigenvalue_profile(weights, anderson.DIFFERENCES, interior_dim)
        assert np.abs(np.diag(w)[:interior_dim].real - profile).max() <= 1e-10

    ones = WeightSequence.powerlog(1.0, 0.0, 0.0, count=block_count + 1)
    c, z = anderson.build_modified(ones, block_count)
    w = numkit.commutator(anderson.assemble(c), anderson.assemble(z))
    projection = np.zeros_like(w)
    projection[0, 0] = 1.0
    assert np.abs((w - projection)[:interior_dim, :interior_dim]).max() <= 1e-10
    elapsed = time.perf_counter() - t0
    report(3, "positive diagonal at truncation 66, rank-one limit case", elapsed, 1.0)


def test_criterion_04_block_identities():
    t0 = time.perf_counter()
    for n in range(1, 13):
        # brute-force multiplication oracle, independent of identity_checks
        a, b, x, y = anderson.make_blocks(n)
        a1, b1, x1, y1 = anderson.make_blocks(n + 1)
        eye = np.eye(n + 1)
        assert np.abs(b @ x - y @ a + eye / (n + 1)).max() <= 1e-12
        assert np.abs(a1 @ y1 - x1 @ b1 - eye / (n + 1)).max() <= 1e-12
        assert np.abs(b1 @ y - y1 @ b).max() <= 1e-12
        assert np.abs(a @ x1 - x @ a1).max() <= 1e-12
        assert anderson.identity_checks(n).passed
    elapsed = time.perf_counter() - t0
    report(4, "five block identities hold for n <= 12 at 1e-12", elapsed, 1.0)


def test_criterion_05_type_a_solver():
    t0 = time.perf_counter()
    gen = np.random.default_rng(5)
    for _ in range(500):
        d = int(gen.integers(2, 17))
        t = random_traceless_hermitian(gen, d)
        rep = selfcomm.solve_type_A(t)
        assert rep.checks[0].name == "residual"
        assert rep.checks[0].measured <= 1e-9 * (1.0 + numkit.hs_norm(t))
    example = selfcomm.solve_type_A(np.diag([1 / 3, 1 / 3, 1 / 3, -1.0]).astype(complex))
    assert abs(numkit.hs_norm(example.matrices["Y"]) - math.sqrt(2)) <= 1e-12
    elapsed = time.perf_counter() - t0
    report(5, "500 random instances solved, shift norm sqrt(2) on the 4x4 case",
           elapsed, 10.0)


def test_criterion_06_type_c_solver():
    t0 = time.perf_counter()
    gen = np.random.default_rng(6)
    for k in range(200):
        m = int(gen.integers(1, 9))
        j = selfcomm.make_anticonjugation(m)
        t = random_sp_hermitian(gen, j)
        if k % 5 == 0:
            # exercise kernels: project out a paired eigenvalue
            lam, basis = selfcomm.spectral_pairing(t, j)
            lam[-1] = 0.0
            t = basis @ np.diag(np.concatenate([lam, -lam])) @ basis.conj().T
            t = (t + t.conj().T) / 2.0
        w = np.linalg.eigvalsh(t)
        ws = np.sort(w)
        assert np.abs(ws + ws[::-1]).max() <= 1e-8  # (lambda, -lambda) pairing
        kernel_dim = int((np.abs(w) <= 1e-9 * numkit.hs_norm(t)).sum())
        assert kernel_dim % 2 == 0
        rep = selfcomm.solve_type_C(t, j)
        y = rep.matrices["Y"]
        assert selfcomm.sp_defect(y, j) <= 1e-8
        assert numkit.hs_norm(numkit.self_commutator(y) - t) <= 1e-8 * (
            1.0 + numkit.hs_norm(t)
        )
    elapsed = time.perf_counter() - t0
    report(6, "200 symplectic instances solved with paired spectra", elapsed, 10.0)


def test_criterion_07_staircase_bounds():
    t0 = time.perf_counter()
    gen = np.random.default_rng(7)
    trials = 100
    for n_ops in (1, 2, 3):
        for d in (8, 16, 32, 64):
            for trial in range(trials):
                hermitian = trial % 2 == 1
                ops = [random_complex(gen, d) for _ in range(n_ops)]
                if hermitian:
                    ops = [(o + o.conj().T) / 2 for o in ops]
                res = staircase.staircase_form(
                    ops, selfadjoint_hint=hermitian, tolerance=1e-9
                )
                assert staircase.verify_band(res, n_ops, hermitian, 1e-9)
                assert numkit.unitary_defect(res.unitary) <= 1e-9
                assert res.unitary[0, 0] == 1.0
                assert np.abs(res.unitary[1:, 0]).max() == 0.0
    elapsed = time.perf_counter() - t0
    report(7, "band bounds over 1200 random trials, N in {1,2,3}, d up to 64",
           elapsed, 60.0)


def test_criterion_08_lie_suite():
    t0 = time.perf_counter()
    gen = np.random.default_rng(8)
    for n in (2, 3, 4, 5):
        basis = liealg.sl_basis(n - 1)
        assert liealg.is_semisimple(basis)
        for _ in range(20):
            x = random_complex(gen, n)
            x -= np.trace(x) / n * np.eye(n)
            w = random_complex(gen, n)
            w -= np.trace(w) / n * np.eye(n)
            lhs = liealg.killing_form(x, w, basis)
            rhs = 2.0 * n * complex(np.trace(x @ w))
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))
    abelian = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    assert not liealg.is_semisimple(abelian)
    for _ in range(100):
        a = random_complex(gen, 6)
        a -= np.trace(a) / 6 * np.eye(6)
        x1, x2, y1, y2 = liealg.oberwolfach_split(a)
        recon = numkit.commutator(x1, x2) + numkit.commutator(y1, y2)
        assert numkit.hs_norm(recon - a) <= 1e-8 * (1.0 + numkit.hs_norm(a))
    elapsed = time.perf_counter() - t0
    report(8, "Killing form, semisimplicity and 100 two-commutator splits",
           elapsed, 10.0)


def test_criterion_09_sequence_classifier():
    t0 = time.perf_counter()
    gap = idealseq.classify_hsii(PowerLog(1.0, -1.0, -2.0))
    assert gap.in_trace_class is True
    assert gap.in_commutator_class is False
    for p in (0.5, 1.0, 1.5):
        for q in (0.0, 1.0, 2.0, 3.0):
            verdict = idealseq.classify_hsii(PowerLog(1.0, -p, -q))
            if verdict.in_commutator_class:
                assert verdict.in_trace_class
            for p2 in (0.5, 1.0, 1.5):
                for q2 in (0.0, 1.0, 2.0, 3.0):
                    if p2 <= p and q2 <= q:
                        bigger = idealseq.classify_hsii(PowerLog(1.0, -p2, -q2))
                        if verdict.in_trace_class is False:
                            assert bigger.in_trace_class is False
                        if verdict.in_commutator_class is False:
                            assert bigger.in_commutator_class is False
    elapsed = time.perf_counter() - t0
    report(9, "trace-class/commutator-class gap family and grid monotonicity",
           elapsed, 1.0)


def test_criterion_10_gradient_check():
    t0 = time.perf_counter()
    gen = np.random.default_rng(10)
    for _ in range(100):
        d = int(gen.integers(2, 6))
        a, b, t = (random_complex(gen, d) for _ in range(3))
        mu = float(gen.uniform(0.1, 50.0))
        ga, gb, _ = minimize.penalty_gradient(a, b, t, mu)
        na, nb = central_difference_gradients(a, b, t, mu)
        scale = 1.0 + max(np.abs(ga).max(), np.abs(gb).max())
        assert np.abs(ga - na).max() / scale <= 1e-5
        assert np.abs(gb - nb).max() / scale <= 1e-5
    elapsed = time.perf_counter() - t0
    report(10, "penalty gradients match central differences on 100 instances",
           elapsed, 5.0)
