import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from anderson_oracle import block_product_figures, loop_verify

from commlab import anderson, cli, numkit
from commlab.numkit import DomainError, VerificationError
from commlab.sequences import WeightSequence

SQRT_N = WeightSequence.powerlog(1.0, 0.5, count=16)
LOG_N = WeightSequence.powerlog(1.0, 0.0, 1.0, count=16)
CONST = WeightSequence.powerlog(1.0, 0.0, 0.0, count=16)


def spectral_norm(m) -> float:
    return float(np.linalg.svd(m, compute_uv=False).max())


class TestMakeBlocks:
    def test_n1_literals(self):
        a, b, x, y = anderson.make_blocks(1)
        assert np.array_equal(a, np.array([[1.0, 0.0]]))
        assert np.array_equal(x, np.array([[0.0, 1.0]]))
        assert np.array_equal(b, np.array([[0.0], [-0.5]]))
        assert np.array_equal(y, np.array([[0.5], [0.0]]))

    def test_shapes(self):
        for n in (1, 2, 5):
            a, b, x, y = anderson.make_blocks(n)
            assert a.shape == x.shape == (n, n + 1)
            assert b.shape == y.shape == (n + 1, n)

    def test_operator_norms(self):
        # Singular values are read off the disjoint nonzero positions; the
        # SVD is the independent oracle here.
        a2, b2, _, _ = anderson.make_blocks(2)
        assert spectral_norm(a2) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert spectral_norm(b2) == pytest.approx(math.sqrt(2) / 3, abs=1e-15)
        for n in (1, 3, 7):
            a, b, x, y = anderson.make_blocks(n)
            assert spectral_norm(a) == pytest.approx(1 / math.sqrt(n), abs=1e-14)
            assert spectral_norm(x) == pytest.approx(1 / math.sqrt(n), abs=1e-14)
            assert spectral_norm(b) == pytest.approx(math.sqrt(n) / (n + 1), abs=1e-14)
            assert spectral_norm(y) == pytest.approx(math.sqrt(n) / (n + 1), abs=1e-14)

    def test_super_cross_vanishes(self):
        for n in (1, 2, 6):
            a, _, x, _ = anderson.make_blocks(n)
            a1, _, x1, _ = anderson.make_blocks(n + 1)
            assert np.abs(a @ x1 - x @ a1).max() <= 1e-16

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            anderson.make_blocks(0)

    def test_runs_are_the_nonzero_entries(self):
        for n in (1, 2, 5):
            blocks = anderson.make_blocks(n)
            for blk, run, offset in zip(blocks, anderson.block_runs(n), (0, -1, 1, 0)):
                assert np.array_equal(np.diagonal(blk, offset)[:n], run)
                assert np.count_nonzero(blk) == n


class TestIdentityChecks:
    def test_first_identity_scalar_one(self):
        a1, b1, x1, y1 = anderson.make_blocks(1)
        assert np.abs(a1 @ y1 - x1 @ b1 - 1.0).max() <= 1e-16

    def test_down_up_value(self):
        # Direct multiplication pins the denominator: the product lives on
        # the block of size n+1 and equals -I/(n+1), not -I/n.
        for n in (1, 2, 3):
            _, b, x, y = anderson.make_blocks(n)
            a, _, _, _ = anderson.make_blocks(n)
            got = b @ x - y @ a
            assert got.shape == (n + 1, n + 1)
            assert np.abs(got + np.eye(n + 1) / (n + 1)).max() <= 1e-15

    def test_all_identities_small(self):
        for n in (1, 2, 3, 5):
            rep = anderson.identity_checks(n)
            assert rep.passed
            assert len(rep.checks) == 5

    def test_rejects_bad_index(self):
        with pytest.raises(DomainError):
            anderson.identity_checks(0)


class TestAssemble:
    def test_dimensions(self):
        for bc, dim in ((1, 3), (2, 6), (5, 21)):
            c, _ = anderson.build_modified(CONST, bc)
            assert c.dimension == dim
            assert anderson.assemble(c).shape == (dim, dim)

    def test_block_placement(self):
        c, _ = anderson.build_modified(CONST, 2)
        dense = anderson.assemble(c)
        a1, b1, _, _ = anderson.make_blocks(1)
        assert np.array_equal(dense[0:1, 1:3], a1)
        assert np.array_equal(dense[1:3, 0:1], b1)
        # diagonal blocks stay zero
        assert np.abs(np.diag(dense)).max() == 0.0

    def test_shape_violation(self):
        with pytest.raises(numkit.ShapeError):
            anderson.BlockTriDiagonalOperator(
                super_blocks=(np.zeros((2, 2)),),
                sub_blocks=(np.zeros((2, 1)),),
            )


class TestBuildModified:
    def test_unscaled_gives_rank_one_projection(self):
        c, z = anderson.build_modified(CONST, 10)
        w = numkit.commutator(anderson.assemble(c), anderson.assemble(z))
        p = np.zeros_like(w)
        p[0, 0] = 1.0
        interior = 10 * 11 // 2  # all but the last block row
        assert np.abs((w - p)[:interior, :interior]).max() <= 1e-10

    def test_zero_weights(self):
        zero = WeightSequence.explicit([0.0] * 8)
        c, z = anderson.build_modified(zero, 4)
        w = numkit.commutator(anderson.assemble(c), anderson.assemble(z))
        assert np.abs(w).max() == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            anderson.build_modified(WeightSequence.explicit([1.0, -1.0, 1.0]), 2)

    def test_prefix_requirement(self):
        with pytest.raises(DomainError):
            anderson.build_modified(WeightSequence.explicit([1.0, 1.0]), 2)


class TestVerifyPositiveCommutator:
    def test_sqrt_weights(self):
        rep = anderson.verify_positive_commutator(SQRT_N, 8)
        assert rep.passed
        means = rep.details["block_means"]
        assert means[0] == pytest.approx(1.0, abs=1e-12)  # d_1
        assert all(m > 0 for m in means[:-2])

    def test_constant_weights_interior_zero(self):
        rep = anderson.verify_positive_commutator(CONST, 8)
        means = rep.details["block_means"]
        assert np.abs(means[1:-2]).max() <= 1e-12

    def test_measured_matches_stated_eigenvalue_list(self):
        # The multiplicity-graded list (d_1, (d_2-d_1)/2 x2, ...) must agree
        # entrywise with the measured diagonal of the assembled commutator
        # away from the truncation boundary.
        bc = 8
        c, z = anderson.build_modified(SQRT_N, bc)
        w = numkit.commutator(anderson.assemble(c), anderson.assemble(z))
        interior = (bc - 1) * bc // 2  # block rows 1..bc-1
        profile = anderson.eigenvalue_profile(SQRT_N, anderson.DIFFERENCES, interior)
        assert np.abs(np.diag(w)[:interior].real - profile).max() <= 1e-12

    def test_scaling_invariance(self):
        base = anderson.verify_positive_commutator(SQRT_N, 6).details["block_means"]
        for t in (0.0, 2.0, 10.0):
            scaled = WeightSequence.explicit(t * SQRT_N.values(8))
            means = anderson.verify_positive_commutator(scaled, 6).details["block_means"]
            assert np.abs(means - t * base).max() <= 1e-10 * (1.0 + t)

    def test_interior_failure_raises(self):
        with pytest.raises(VerificationError):
            anderson.verify_positive_commutator(SQRT_N, 6, tolerance=1e-30)

    def test_block_count_floor(self):
        with pytest.raises(DomainError):
            anderson.verify_positive_commutator(SQRT_N, 2)

    def test_large_truncation(self):
        # Dense dimension 7381: one assembled complex matrix would take
        # about 870 MB, so only the block path can reach this size.
        t0 = time.perf_counter()
        rep = anderson.verify_positive_commutator(SQRT_N, 120)
        elapsed = time.perf_counter() - t0
        assert rep.passed and all(row.passed for row in rep.checks)
        assert rep.details["dimension"] == 7381
        assert elapsed < 2.0

    def test_480_blocks_fast(self):
        # Dense dimension 116,281; the runs take O(m^2) time.
        weights = WeightSequence.powerlog(1.0, 0.5, count=481)
        anderson.verify_positive_commutator(weights, 8)
        t0 = time.perf_counter()
        rep = anderson.verify_positive_commutator(weights, 480)
        elapsed = time.perf_counter() - t0
        assert rep.passed and rep.details["dimension"] == 481 * 482 // 2
        assert elapsed < 0.25

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError, match="nonnegative"):
            anderson.verify_positive_commutator(
                WeightSequence.explicit([1.0, 2.0, -1.0, 3.0, 4.0]), 4)

    def test_non_finite_extension_rejected(self):
        # A 3-term prefix of n^400 extended to 9 terms overflows from d_6 on;
        # NaN blocks would pass every `dev > tolerance` test unseen.
        with pytest.raises(DomainError, match="non-finite"):
            anderson.verify_positive_commutator(WeightSequence.powerlog(1, 400, count=3), 8)

    def test_traced_peak_at_2000_blocks(self):
        # 2000 blocks: dense dimension about 2e6, 4m dense blocks would take
        # tens of GB.  The chunk arrays are bounded by _CHUNK entries and the
        # rest is O(m), so the traced peak stays far below 16 MB.
        weights = WeightSequence.powerlog(1.0, -0.5, count=2001)
        tracemalloc.start()
        try:
            anderson.verify_positive_commutator(weights, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_large_truncation_under_address_space_cap(self, tmp_path):
        # 2000 blocks: dense dimension about 2e6.  Building the blocks
        # densely would need O(m^3) memory (tens of GB); the runs need
        # O(m).  The cap applies to the child process only; one BLAS thread
        # keeps the buffers OpenBLAS reserves per core out of the budget.
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "commlab.cli", "anderson-verify",
             "--weights", "powerlog:1,-0.5,0", "--blocks", "2000",
             "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120, preexec_fn=cap)
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == "check_name,value,tolerance,pass"
        assert len(lines) > 4 and all(line.endswith(",1") for line in lines[1:])
        assert len((tmp_path / "blocks.csv").read_text().splitlines()) == 2002


def oracle_weights(count: int) -> dict[str, WeightSequence]:
    n = np.arange(1.0, count + 1.0)
    return {
        "sqrt": WeightSequence.powerlog(1.0, 0.5, count=count),
        "log": WeightSequence.powerlog(1.0, 0.0, 1.0, count=count),
        "cbrt": WeightSequence.powerlog(1.0, 1 / 3, count=count),
        "constant": WeightSequence.powerlog(1.0, 0.0, 0.0, count=count),
        "zero": WeightSequence.explicit(np.zeros(count)),
        "non_monotone": WeightSequence.explicit(n ** 0.5 * (1.5 + np.sin(n))),
    }


ORACLE_WEIGHTS = oracle_weights(61)

# The weight strings of the benchmark's anderson-verify jobs.
BENCHMARK_WEIGHTS = ("powerlog:1,-0.5,0", "powerlog:1,0,-1",
                     "powerlog:1,-0.3333333333333333,0")


def dense_oracle(weights: WeightSequence, block_count: int) -> dict:
    """Every verifier figure recomputed from the assembled dense commutator."""
    c, z = anderson.build_modified(weights, block_count)
    w = numkit.commutator(anderson.assemble(c), anderson.assemble(z))
    nblocks = block_count + 1
    start = [k * (k - 1) // 2 for k in range(1, nblocks + 2)]
    rows = [slice(start[k - 1], start[k]) for k in range(1, nblocks + 1)]
    predicted = anderson.telescoped_profile(weights.values(nblocks))
    support = np.zeros(w.shape, dtype=bool)
    out = dict(means=np.empty(nblocks), diag=0.0, boundary=0.0,
               shift=0.0, boundary_shift=0.0)
    for k in range(1, nblocks + 1):
        s = rows[k - 1]
        support[s, s] = True
        out["means"][k - 1] = np.diag(w[s, s]).real.mean()
        dev = np.abs(w[s, s] - predicted[k - 1] * np.eye(k)).max()
        key = "diag" if k <= nblocks - 2 else "boundary"
        out[key] = max(out[key], dev)
    for k in range(1, nblocks - 1):
        r, s = rows[k - 1], rows[k + 1]
        support[r, s] = support[s, r] = True
        mass = max(np.abs(w[r, s]).max(), np.abs(w[s, r]).max())
        key = "shift" if k + 2 <= nblocks - 2 else "boundary_shift"
        out[key] = max(out[key], mass)
    out["off_support"] = np.abs(w[~support]).max()
    return out


class TestDenseOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_WEIGHTS))
    @pytest.mark.parametrize("block_count", range(3, 31))
    def test_block_path_matches_dense_commutator(self, name, block_count):
        weights = ORACLE_WEIGHTS[name]
        rep = anderson.verify_positive_commutator(weights, block_count)
        dense = dense_oracle(weights, block_count)
        tol = 1e-13 * (1.0 + np.abs(weights.values(block_count + 1)).max())
        # The pentadiagonal support is exact, which is what lets the
        # verifier report off_tridiagonal_mass as structural.
        assert dense["off_support"] == 0.0
        measured = {row.name: row.measured for row in rep.checks}
        assert measured == {
            "off_tridiagonal_mass": 0.0,
            "interior_shift_mass": pytest.approx(dense["shift"], abs=tol),
            "interior_diagonal_residual": pytest.approx(dense["diag"], abs=tol),
        }
        assert np.abs(rep.details["block_means"] - dense["means"]).max() <= tol
        assert rep.details["boundary_residual"] == pytest.approx(dense["boundary"], abs=tol)
        assert rep.details["boundary_shift_mass"] == pytest.approx(
            dense["boundary_shift"], abs=tol)
        assert rep.details["dimension"] == (block_count + 1) * (block_count + 2) // 2

    def test_never_assembles(self, monkeypatch):
        def dense_path(*args):
            raise AssertionError("verifier took the dense path")

        # No dense block either: the verifier works on block_runs alone.
        for module, name in ((numkit, "commutator"), (anderson, "assemble"),
                             (anderson, "build_modified"), (anderson, "make_blocks")):
            monkeypatch.setattr(module, name, dense_path)
        assert anderson.verify_positive_commutator(SQRT_N, 12).passed


def oracle_cases(count: int = 61):
    weights = oracle_weights(count)
    for name in sorted(weights):
        yield pytest.param(weights[name], id=name)
    for text in BENCHMARK_WEIGHTS:
        yield pytest.param(cli.parse_weights(text, count=count), id=text)


class TestBlockProductOracle:
    """The run verifier against the dense block products it replaced."""

    @pytest.mark.parametrize("weights", oracle_cases())
    def test_bit_identical(self, weights):
        for block_count in range(3, 61):
            want = block_product_figures(weights, block_count, numkit.DEFAULT_TOL)
            assert want["failures"] == []
            rep = anderson.verify_positive_commutator(weights, block_count)
            assert {row.name: row.measured for row in rep.checks} == want["checks"]
            for key in ("block_means", "predicted_profile"):
                got = rep.details[key]
                assert got.tobytes() == want[key].tobytes(), (key, block_count)
            for key in ("boundary_residual", "boundary_shift_mass", "dimension"):
                assert rep.details[key] == want[key], (key, block_count)

    @pytest.mark.parametrize("weights", oracle_cases())
    def test_same_failing_blocks(self, weights):
        for block_count in (3, 17, 40):
            want = block_product_figures(weights, block_count, 1e-17)
            if not want["failures"]:
                assert anderson.verify_positive_commutator(weights, block_count, 1e-17).passed
                continue
            with pytest.raises(VerificationError) as err:
                anderson.verify_positive_commutator(weights, block_count, 1e-17)
            assert str(err.value).startswith(f"diagonal block(s) {want['failures']} ")


def verifier_figures(verify, weights, block_count: int, tolerance: float):
    """Everything a verifier reports, as bytes: the error it raises, or its
    check rows and ``details``.  Bytes keep signed zeros apart."""
    try:
        rep = verify(weights, block_count, tolerance)
    except (DomainError, VerificationError) as err:
        return type(err).__name__, str(err)
    rows = [(row.name, np.float64(row.measured).tobytes(), row.tolerance, row.passed)
            for row in rep.checks]
    details = {key: (np.asarray(value).dtype.str, np.asarray(value).tobytes())
               for key, value in rep.details.items()}
    return rows, details


class TestLoopOracle:
    """The chunked verifier against the per-block loop it replaced."""

    @pytest.mark.parametrize("weights", oracle_cases(count=121))
    def test_bit_identical(self, weights, monkeypatch):
        # A budget of 1 entry ends a chunk after every block row; 7 and 64
        # give chunks of several rows, then single rows as blocks widen, so
        # the last chunk takes a different shape at each block count.  Each
        # block count runs under one budget and one tolerance, in turn.
        cases = [(1, numkit.DEFAULT_TOL), (7, numkit.DEFAULT_TOL), (64, numkit.DEFAULT_TOL),
                 (1, 1e-17), (7, 1e-17), (64, 1e-17)]
        for bc in range(3, 121):
            budget, tol = cases[bc % len(cases)]
            monkeypatch.setattr(anderson, "_CHUNK", budget)
            want = verifier_figures(loop_verify, weights, bc, tol)
            got = verifier_figures(anderson.verify_positive_commutator, weights, bc, tol)
            assert got == want, (budget, tol, bc)

    @pytest.mark.parametrize("block_count", [300, 480])
    def test_bit_identical_at_default_budget(self, block_count):
        assert anderson._chunk_rows(1) < block_count  # several chunks
        weights = WeightSequence.powerlog(1.0, 0.5, count=block_count + 1)
        for tol in (numkit.DEFAULT_TOL, 1e-17):
            assert (verifier_figures(anderson.verify_positive_commutator, weights,
                                     block_count, tol)
                    == verifier_figures(loop_verify, weights, block_count, tol))

    def test_failing_blocks_listed(self):
        # At 1e-17 rounding alone fails some interior blocks, so the lists
        # compared above are not all empty.
        weights = ORACLE_WEIGHTS["sqrt"]
        with pytest.raises(VerificationError, match=r"diagonal block\(s\) \[\d"):
            loop_verify(weights, 40, 1e-17)

    @pytest.mark.parametrize("weights, block_count", [
        (WeightSequence.explicit([1.0, 2.0, -1.0, 3.0, 4.0]), 4),
        (WeightSequence.powerlog(1, 400, count=3), 8),
        (WeightSequence.explicit([1.0, 2.0, 3.0]), 4),
        (SQRT_N, 2),
    ], ids=["negative", "non_finite", "short_prefix", "too_few_blocks"])
    def test_same_rejections(self, weights, block_count):
        want = verifier_figures(loop_verify, weights, block_count, numkit.DEFAULT_TOL)
        assert want[0] == "DomainError"
        assert verifier_figures(anderson.verify_positive_commutator, weights, block_count,
                                numkit.DEFAULT_TOL) == want


class TestAdmissible:
    """The growth rows of the ``anderson-verify`` certificate."""

    @staticmethod
    def rows(weights, block_count=8):
        return {row.name: row for row in anderson.certify(weights, block_count).checks}

    def test_sqrt_admissible(self):
        row = self.rows(SQRT_N)["admissible_growth"]
        assert row.measured == 0.0 and row.passed

    def test_log_admissible(self):
        assert self.rows(LOG_N)["admissible_growth"].passed

    def test_quadratic_not_admissible(self):
        fast = WeightSequence.powerlog(1.0, 2.0, count=8)
        row = self.rows(fast, 7)["admissible_growth"]
        assert row.measured == 1.0 and not row.passed

    def test_explicit_reports_only(self):
        rows = self.rows(WeightSequence.explicit([1.0, 4.0, 9.0, 16.0]), 3)
        assert "admissible_growth" not in rows
        assert rows["tail_max_ratio"].measured == pytest.approx(4.0)  # d_n/n peaks at the tail

    def test_blocks_table(self):
        rep = anderson.certify(SQRT_N, 8)
        header, rows = rep.tables["blocks"]
        assert header == ("block_index", "diagonal_value", "residual")
        means = rep.details["block_means"]
        assert rows == [(k + 1, float(means[k]),
                         float(abs(means[k] - rep.details["predicted_profile"][k])))
                        for k in range(9)]


class TestEigenvalueProfile:
    def test_differences_example(self):
        w = WeightSequence.explicit([1.0, 3.0, 6.0])
        got = anderson.eigenvalue_profile(w, anderson.DIFFERENCES, 6)
        assert np.allclose(got, np.ones(6), atol=1e-15)

    def test_cesaro_example(self):
        w = WeightSequence.explicit([1.0, 1.0, 1.0])
        got = anderson.eigenvalue_profile(w, anderson.CESARO_FORM, 6)
        assert np.allclose(got, [1.0, 0.5, 0.5, 1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_zero_weights(self):
        w = WeightSequence.explicit([0.0, 0.0, 0.0])
        assert np.abs(anderson.eigenvalue_profile(w, anderson.DIFFERENCES, 6)).max() == 0.0

    def test_insufficient_prefix(self):
        with pytest.raises(DomainError):
            anderson.eigenvalue_profile(WeightSequence.explicit([1.0]), anderson.DIFFERENCES, 6)

    def test_unknown_parameterization(self):
        with pytest.raises(DomainError):
            anderson.eigenvalue_profile(CONST, "nope", 3)
