import numpy as np
import pytest

import liealg_oracle
from commlab import liealg, numkit, selfcomm
from commlab.numkit import DomainError
from conftest import random_complex, random_traceless_hermitian


def random_sl(rng, n):
    g = random_complex(rng, n)
    return g - (np.trace(g) / n) * np.eye(n)


class TestSlRootData:
    def test_unit_relations_exact(self):
        data = liealg.SlRootData(3)  # validated on construction
        e12 = data.unit(1, 2)
        e23 = data.unit(2, 3)
        assert np.array_equal(e12 @ e23, data.unit(1, 3))
        assert np.abs(e12 @ data.unit(3, 1)).max() == 0.0

    def test_cartan_basis(self):
        data = liealg.SlRootData(2)
        h1 = data.h(1)
        assert np.array_equal(h1, np.diag([1.0, -1.0, 0.0]).astype(complex))

    def test_bracket_of_opposite_root_vectors(self):
        data = liealg.SlRootData(3)
        for j in range(1, 4):
            got = numkit.commutator(data.unit(j, j + 1), data.unit(j + 1, j))
            assert np.array_equal(got, data.h(j))

    def test_distinct_simple_roots_commute(self):
        # [E_{j+1,j}, E_{k,k+1}] = 0 exactly for j != k
        r = 4
        data = liealg.SlRootData(r)
        for j in range(1, r + 1):
            for k in range(1, r + 1):
                if j == k:
                    continue
                got = numkit.commutator(data.unit(j + 1, j), data.unit(k, k + 1))
                assert np.abs(got).max() == 0.0

    def test_basis_size(self):
        assert len(liealg.sl_basis(2)) == 8  # 3^2 - 1


class TestKillingForm:
    def test_sl2_cartan_value(self):
        # Brute-force adjoint matrices; the classical identity 2n Tr(XW)
        # with n = 2 gives 2*2*Tr(H1^2) = 8 as the cross-check.
        data = liealg.SlRootData(1)
        h1 = data.h(1)
        val = liealg.killing_form(h1, h1, data.basis())
        assert val == pytest.approx(8.0, abs=1e-12)

    def test_symmetry(self, rng):
        basis = liealg.sl_basis(2)
        x, w = random_sl(rng, 3), random_sl(rng, 3)
        assert liealg.killing_form(x, w, basis) == pytest.approx(
            liealg.killing_form(w, x, basis), abs=1e-9
        )

    def test_sl3_closed_form(self, rng):
        basis = liealg.sl_basis(2)
        for _ in range(20):
            x, w = random_sl(rng, 3), random_sl(rng, 3)
            lhs = liealg.killing_form(x, w, basis)
            rhs = 6.0 * complex(np.trace(x @ w))
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))

    def test_outside_span_rejected(self):
        basis = liealg.sl_basis(1)
        with pytest.raises(DomainError, match="span"):
            liealg.killing_form(np.eye(2), np.eye(2), basis)


class TestSemisimple:
    def test_sl2_and_sl3(self):
        assert liealg.is_semisimple(liealg.sl_basis(1))
        assert liealg.is_semisimple(liealg.sl_basis(2))

    def test_abelian_diagonal_fails(self):
        basis = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        assert not liealg.is_semisimple(basis)

    def test_not_closed_rejected(self):
        data = liealg.SlRootData(1)
        with pytest.raises(DomainError):
            liealg.is_semisimple([data.unit(1, 2), data.unit(2, 1)])

    def test_dependent_basis_rejected(self):
        data = liealg.SlRootData(1)
        e = data.unit(1, 2)
        with pytest.raises(DomainError, match="independent"):
            liealg.is_semisimple([e, 2 * e])


class TestAgainstLoopOracle:
    """The Kronecker ad-matrices and row-by-row Gram against the per-pair loops."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_sl_gram_entries_and_verdict(self, n):
        basis = liealg.sl_basis(n - 1)
        want = liealg_oracle.killing_gram(basis)
        got = liealg.killing_gram(basis)
        assert np.abs(got - want).max() <= 1e-12 * (1.0 + np.abs(want).max())
        assert liealg.is_semisimple(basis) == liealg_oracle.is_semisimple(basis) is True

    def test_random_basis_of_sl3(self, rng):
        # A generic basis: the ad-matrices are dense, not 0/1 patterns.
        coords = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        units = liealg.sl_basis(2)
        basis = [sum(c * u for c, u in zip(row, units)) for row in coords]
        want = liealg_oracle.killing_gram(basis)
        got = liealg.killing_gram(basis)
        assert np.abs(got - want).max() <= 1e-12 * (1.0 + np.abs(want).max())

    def test_abelian_verdict(self):
        basis = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        assert liealg.is_semisimple(basis) is liealg_oracle.is_semisimple(basis) is False

    def test_not_closed_rejected_by_both(self):
        data = liealg.SlRootData(2)
        basis = [data.unit(1, 2), data.unit(2, 1), data.unit(1, 3)]
        for impl in (liealg, liealg_oracle):
            with pytest.raises(DomainError, match="basis not closed"):
                impl.killing_gram(basis)

    def test_dependent_rejected_by_both(self):
        e = liealg.SlRootData(1).unit(1, 2)
        for impl in (liealg, liealg_oracle):
            with pytest.raises(DomainError, match="independent"):
                impl.killing_gram([e, 2 * e, e.T])


class TestValidate:
    def test_names_the_first_failing_pair(self):
        data = liealg.SlRootData(2)
        data._units = data._units.copy()
        data._units[2, 0, 2, 1] = 1.0  # E_31 gains a stray entry at (3, 2)
        # E_13 E_31 = E_11 + E_12 is the first product, in (j, k, q, l) order, to fail.
        with pytest.raises(numkit.VerificationError, match="E_13 E_31"):
            data._validate()


class TestSolveSl:
    def test_rank_one_case(self):
        rep = liealg.solve_sl(np.diag([1.0, -1.0]).astype(complex))
        assert rep.passed
        assert np.allclose(rep.details["coefficients"], [1.0])
        y = rep.matrices["Y"]
        assert numkit.hs_norm(numkit.self_commutator(y) - np.diag([1.0, -1.0])) <= 1e-12

    def test_zero(self):
        rep = liealg.solve_sl(np.zeros((3, 3)))
        assert np.abs(rep.matrices["Y"]).max() == 0.0
        assert np.abs(rep.details["coefficients"]).max() == 0.0

    def test_recurring_example_coefficients(self):
        rep = liealg.solve_sl(np.diag([1 / 3, 1 / 3, 1 / 3, -1.0]).astype(complex))
        assert np.allclose(rep.details["coefficients"], [1 / 3, 2 / 3, 1.0], atol=1e-15)

    def test_same_pipeline_as_type_A(self, rng):
        a = random_traceless_hermitian(rng, 6)
        rep = liealg.solve_sl(a)
        sol = selfcomm.solve_type_A(a)
        assert (rep.matrices["Y"] == sol.matrices["Y"]).all()
        assert rep.checks[0] == sol.checks[0] and rep.checks[2] == sol.checks[2]
        assert np.array_equal(rep.details["coefficients"], sol.details["partial_sums"][:-1])

    def test_report_rows(self, rng):
        rep = liealg.solve_sl(random_traceless_hermitian(rng, 4))
        assert rep.command == "lie solve-sl"
        assert [row.name for row in rep.checks] == [
            "residual", "coefficient_negativity", "solution_hs_norm"]
        assert list(rep.details) == ["coefficients"]

    def test_coefficients_take_the_partial_sum_slack(self, rng):
        # The coefficients are type (A)'s first partial sums, so their row
        # takes the tolerance of type (A)'s partial_sum_negativity row.
        for a in (random_traceless_hermitian(rng, 5), np.diag([-5e-11, -5e-11])):
            rep = liealg.solve_sl(a)
            assert rep.passed
            assert rep.checks[1].tolerance == selfcomm.solve_type_A(a).checks[1].tolerance


class TestCertifySl:
    def test_killing_rows(self):
        rep = liealg.certify_sl(3, killing=True)
        assert rep.command == "lie killing" and rep.passed
        assert [row.name for row in rep.checks] == ["killing_vs_closed_form", "semisimple"]
        assert rep.checks == liealg.certify_sl(3, killing=True).checks

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_closed_form_row_covers_every_pair(self, monkeypatch, n):
        # With the loop oracle's Gram in place of the library's, the row is
        # the worst relative deviation from 2n Tr(e_i e_j) over all pairs,
        # and both rows come from that one Gram.
        grams = []

        def oracle_gram(basis):
            grams.append(liealg_oracle.killing_gram(basis))
            return grams[-1]

        monkeypatch.setattr(liealg, "killing_gram", oracle_gram)
        rep = liealg.certify_sl(n, killing=True)
        assert len(grams) == 1
        basis = liealg.sl_basis(n - 1)
        worst = max(abs(grams[0][i, k] - 2 * n * np.trace(x @ w))
                    / (1.0 + abs(2 * n * np.trace(x @ w)))
                    for i, x in enumerate(basis) for k, w in enumerate(basis))
        assert rep.checks[0].measured == worst
        assert rep.checks[1].measured == (0.0 if liealg_oracle.is_semisimple(basis) else 1.0)

    def test_one_wrong_gram_entry_fails_the_closed_form_row(self, monkeypatch):
        real = liealg.killing_gram

        def perturbed(basis):
            gram = real(basis)
            gram[2, 5] += 1e-6 * (1.0 + abs(gram[2, 5]))
            return gram

        monkeypatch.setattr(liealg, "killing_gram", perturbed)
        closed_form, semisimple = liealg.certify_sl(4, killing=True).checks
        assert not closed_form.passed and closed_form.measured >= 1e-6
        assert semisimple.passed

    def test_no_random_numbers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("certify_sl drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert liealg.certify_sl(4, killing=True).passed

    def test_semisimple_rows(self):
        rep = liealg.certify_sl(4)
        assert rep.command == "lie semisimple"
        assert [(row.name, row.measured, row.passed) for row in rep.checks] == [
            ("semisimple", 0.0, True)]


class TestOberwolfachSplit:
    def test_hermitian_kills_second_commutator(self, rng):
        a = random_traceless_hermitian(rng, 5)
        x1, x2, y1, y2 = liealg.oberwolfach_split(a)
        assert np.abs(numkit.commutator(y1, y2)).max() <= 1e-12
        assert numkit.hs_norm(numkit.commutator(x1, x2) - a) <= 1e-9 * (
            1 + numkit.hs_norm(a)
        )

    def test_skew_kills_first_commutator(self, rng):
        a = 1j * random_traceless_hermitian(rng, 5)
        x1, x2, y1, y2 = liealg.oberwolfach_split(a)
        assert np.abs(numkit.commutator(x1, x2)).max() <= 1e-12

    def test_random_reconstruction(self, rng):
        for _ in range(10):
            a = random_sl(rng, 6)
            x1, x2, y1, y2 = liealg.oberwolfach_split(a)
            recon = numkit.commutator(x1, x2) + numkit.commutator(y1, y2)
            assert numkit.hs_norm(recon - a) <= 1e-8 * (1 + numkit.hs_norm(a))

    def test_rejects_nonzero_trace(self):
        with pytest.raises(DomainError, match="trace-zero"):
            liealg.oberwolfach_split(np.eye(3))
