import numpy as np
import pytest

from commlab import numkit, staircase
from commlab.minimize import OPTIMAL_A, OPTIMAL_TARGET
from commlab.numkit import DomainError
from conftest import random_complex, random_hermitian


def e1(d: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[0] = 1.0
    return v


class TestStaircaseForm:
    def test_single_hermitian_tridiagonal_growth(self, rng):
        # One Hermitian operator with a cyclic vector: row n stops by 2n.
        a = random_hermitian(rng, 8)
        res = staircase.staircase_form([a], selfadjoint_hint=True, tolerance=1e-9)
        profile = res.band_profile[0]
        for n in range(1, 9):
            assert profile[n - 1] <= 2 * n
        assert staircase.verify_band(res, 1, True, 1e-9)

    def test_diagonal_stays_diagonal(self):
        a = np.diag(np.arange(1.0, 7.0)).astype(complex)
        res = staircase.staircase_form([a])
        off = res.transformed[0] - np.diag(np.diag(res.transformed[0]))
        assert np.abs(off).max() <= 1e-12
        assert np.abs(res.unitary - np.eye(6)).max() <= 1e-12

    def test_optimal_factor_pattern(self):
        # The banded form of the known optimal factor zeroes the (1,4)
        # corner and everything below row 2 in column 1.
        res = staircase.staircase_form([OPTIMAL_A])
        t = res.transformed[0]
        assert abs(t[0, 3]) <= 1e-14
        assert abs(t[2, 0]) <= 1e-14
        assert abs(t[3, 0]) <= 1e-14

    def test_fixes_e1_exactly(self, rng):
        ops = [random_complex(rng, 12) for _ in range(2)]
        res = staircase.staircase_form(ops)
        assert (res.unitary[:, 0] == e1(12)).all()
        assert numkit.unitary_defect(res.unitary) <= 1e-9

    def test_spectrum_preserved(self, rng):
        ops = [random_hermitian(rng, 16) for _ in range(2)]
        res = staircase.staircase_form(ops, selfadjoint_hint=True)
        for a, t in zip(ops, res.transformed):
            before = np.sort(np.linalg.eigvalsh(a))
            after = np.sort(np.linalg.eigvalsh((t + t.conj().T) / 2))
            assert np.abs(before - after).max() <= 1e-8

    def test_selfadjoint_hint_rejects_non_hermitian(self, rng):
        with pytest.raises(DomainError):
            staircase.staircase_form([random_complex(rng, 5)], selfadjoint_hint=True)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(numkit.ShapeError):
            staircase.staircase_form([random_complex(rng, 3), random_complex(rng, 4)])

    def test_stream_that_cannot_span_raises(self, rng):
        # Every offer is rejected at tolerance 10, so no basis can form.
        with pytest.raises(numkit.NumericError, match="spanned only 0 of 5"):
            staircase.staircase_form([random_hermitian(rng, 5)], tolerance=10.0)

    @pytest.mark.parametrize("ops, selfadjoint, offers", [
        ([np.diag([1.0, 2.0, 3.0, 4.0])], True, 7),
        ([OPTIMAL_A], False, 5),
        ([np.diag(np.arange(6.0)), np.eye(6, k=1) + np.eye(6, k=-1)], True, 15),
    ])
    def test_one_projection_per_offer(self, monkeypatch, ops, selfadjoint, offers):
        calls = []
        project = numkit.project_residual

        def counted(v, basis):
            calls.append(basis.shape[1])
            return project(v, basis)

        monkeypatch.setattr(numkit, "project_residual", counted)
        staircase.staircase_form(ops, selfadjoint_hint=selfadjoint)
        assert len(calls) == offers

    def test_deterministic(self, rng):
        ops = [random_complex(rng, 10)]
        r1 = staircase.staircase_form(ops)
        r2 = staircase.staircase_form(ops)
        assert (r1.unitary == r2.unitary).all()


class TestVerifyBand:
    def test_diagonal_trivially_true(self):
        a = np.diag([1.0, 2.0, 3.0]).astype(complex)
        res = staircase.staircase_form([a])
        assert staircase.verify_band(res, 1, False, 1e-9)

    def test_random_collections(self, rng):
        for n_ops, d in ((1, 8), (2, 16), (3, 32)):
            ops = [random_complex(rng, d) for _ in range(n_ops)]
            res = staircase.staircase_form(ops, tolerance=1e-9)
            assert staircase.verify_band(res, n_ops, False, 1e-9)
            herm = [(o + o.conj().T) / 2 for o in ops]
            resh = staircase.staircase_form(herm, selfadjoint_hint=True, tolerance=1e-9)
            assert staircase.verify_band(resh, n_ops, True, 1e-9)

    def test_untransformed_dense_fails(self, rng):
        d = 32
        dense = random_complex(rng, d)
        fake = staircase.StaircaseResult(
            unitary=np.eye(d, dtype=complex),
            transformed=(dense,),
            band_profile=(np.full(d, d, dtype=np.int64),),
        )
        assert not staircase.verify_band(fake, 1, False, 1e-9)


class TestCertify:
    def test_rows_matrices_and_tables(self, rng):
        ops = [random_hermitian(rng, 9), random_hermitian(rng, 9)]
        rep = staircase.certify(ops, selfadjoint=True, tolerance=1e-9)
        assert rep.command == "staircase" and rep.passed
        assert [row.name for row in rep.checks] == ["unitary_defect", "fixes_e1", "band_bound"]
        assert sorted(rep.matrices) == ["transformed_0", "transformed_1", "unitary"]
        res = staircase.staircase_form(ops, selfadjoint_hint=True, tolerance=1e-9)
        assert (rep.matrices["unitary"] == res.unitary).all()
        header, rows = rep.tables["band_1"]
        assert header == ("row_index", "max_col", "bound")
        assert rows == [(r + 1, int(res.band_profile[1][r]), 3 * (r + 1)) for r in range(9)]


class TestDiagonalInvariance:
    def test_identity_with_any_unitary(self, rng):
        q, _ = np.linalg.qr(random_complex(rng, 5))
        assert staircase.diagonal_invariance_check(np.eye(5), q, 1e-12)

    def test_optimal_target_preserved(self):
        res = staircase.staircase_form([OPTIMAL_A])
        assert staircase.diagonal_invariance_check(OPTIMAL_TARGET, res.unitary, 1e-10)

    def test_swap_breaks_distinct_diagonal(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert not staircase.diagonal_invariance_check(np.diag([1.0, 2.0]), swap, 1e-9)
