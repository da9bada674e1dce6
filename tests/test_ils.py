import warnings

import numpy as np
import pytest
import scipy.linalg

from ilscond import (
    IllConditionedWarning,
    IlsProblem,
    NotPositiveDefinite,
    NumericallySingular,
    SignatureSplit,
    check_spd,
    kappa_2ils,
    solve_ils,
)
from ilscond import ils
from ilscond.bench import gen_example2
from ilscond.ils import SpdFactor

from conftest import directional_derivative, random_ils


class TestSignatureSplit:
    def test_apply_flips_trailing_block(self):
        s = SignatureSplit(2, 1)
        np.testing.assert_array_equal(s.apply([1.0, 2.0, 3.0]), [1.0, 2.0, -3.0])

    def test_matrix_rows(self):
        s = SignatureSplit(1, 2)
        A = np.arange(6.0).reshape(3, 2)
        out = s.apply(A)
        np.testing.assert_array_equal(out[0], A[0])
        np.testing.assert_array_equal(out[1:], -A[1:])

    def test_invalid(self):
        with pytest.raises(ValueError):
            SignatureSplit(0, 3)

    def test_float_counts_rejected(self):
        with pytest.raises(TypeError, match="p must be an integer"):
            SignatureSplit(6.0, 2.0)


class TestCheckSpd:
    def test_gram_case(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((10, 4))
        factor = check_spd(A, SignatureSplit(10, 0))
        M, chol = factor.M, factor.chol
        np.testing.assert_allclose(M, A.T @ A, rtol=1e-14)
        np.testing.assert_allclose(chol @ chol.T, M, rtol=0, atol=1e-12)

    def test_rank_one_oracle_indefinite(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        # a1 a1^T + a2 a2^T - a3 a3^T computed by hand
        expected = (
            np.outer(A[0], A[0]) + np.outer(A[1], A[1]) - np.outer(A[2], A[2])
        )
        np.testing.assert_array_equal(expected, [[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(NotPositiveDefinite):
            check_spd(A, SignatureSplit(2, 1))

    def test_rank_one_oracle_definite(self):
        A = np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        expected = (
            np.outer(A[0], A[0]) + np.outer(A[1], A[1]) - np.outer(A[2], A[2])
        )
        np.testing.assert_array_equal(expected, [[3.0, -1.0], [-1.0, 3.0]])
        M = check_spd(A, SignatureSplit(2, 1)).M
        np.testing.assert_array_equal(M, expected)
        np.testing.assert_allclose(np.linalg.eigvalsh(M), [2.0, 4.0], rtol=1e-14)

    def test_diagnose_reports_eigenvalue(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NotPositiveDefinite, match="eigenvalue"):
            check_spd(A, SignatureSplit(2, 1), diagnose=True)

    def test_split_mismatch(self):
        with pytest.raises(ValueError):
            check_spd(np.eye(3), SignatureSplit(2, 2))


class TestQrCertificate:
    """A^T J A = F^T F certified from A = QR, with M formed only when read."""

    def test_factor_reproduces_normal_matrix(self, rng):
        for _ in range(10):
            prob = random_ils(rng)
            F = prob.factor.chol.T
            np.testing.assert_array_equal(F, np.triu(F))
            M = prob.M
            np.testing.assert_allclose(F.T @ F, M, rtol=0, atol=1e-13 * np.abs(M).max())

    def test_normal_matrix_formed_only_when_read(self, rng, monkeypatch):
        calls = []
        original = ils._signed_gram

        def counted(A, split):
            calls.append(1)
            return original(A, split)

        monkeypatch.setattr(ils, "_signed_gram", counted)
        prob = random_ils(rng)
        prob.solution
        kappa_2ils(prob)
        assert calls == []
        M = prob.M
        assert prob.M is M and len(calls) == 1

    def test_numerically_singular_names_the_bound(self, rng):
        Q, _ = np.linalg.qr(rng.standard_normal((12, 4)))
        A = Q * np.array([1.0, 1e-3, 1e-9, 1e-17])
        with pytest.raises(NumericallySingular, match=r"1/\(max\(m, n\) eps\)"):
            IlsProblem(A, rng.standard_normal(12), SignatureSplit(12, 0))

    def test_fewer_rows_than_columns_is_singular(self, rng):
        with pytest.warns(UserWarning, match="m >= n always"):
            with pytest.raises(NumericallySingular, match="3 rows and 5 columns"):
                IlsProblem(rng.standard_normal((3, 5)), np.ones(3), SignatureSplit(3, 0))

    @pytest.mark.parametrize("kappa, warns", [(1e11, False), (1e13, True)])
    def test_warning_reads_eps_times_cond_f(self, kappa, warns):
        # A^T J A = (3/4) U^T D^2 U here, so cond(F) = cond(A) = kappa
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            prob, _, _ = gen_example2(20, 8, 12, kappa, 1.0, 0)
        flagged = [w for w in log if issubclass(w.category, IllConditionedWarning)]
        assert prob.ill_conditioned == warns
        assert len(flagged) == int(warns)
        assert prob.factor.cond == pytest.approx(kappa, rel=1e-3)

    @pytest.mark.parametrize("n", [25, 120])
    def test_solve_bits_match_cho_solve(self, n, rng):
        B = rng.standard_normal((2 * n, n))
        M = B.T @ B
        V = rng.standard_normal((n, 7))
        factor = SpdFactor(M, "M")
        expected = scipy.linalg.cho_solve((np.linalg.cholesky(0.5 * (M + M.T)), True), V)
        np.testing.assert_array_equal(factor.solve(V), expected)
        np.testing.assert_array_equal(factor.solve(V[:, 0]), expected[:, 0])


class TestSolve:
    def test_identity_system(self):
        prob = IlsProblem(np.eye(2), [1.0, 2.0], SignatureSplit(2, 0))
        sol = prob.solution
        np.testing.assert_allclose(sol.x, [1.0, 2.0], rtol=1e-15)
        np.testing.assert_allclose(sol.r, 0.0, atol=1e-15)

    def test_hand_checked_indefinite_instance(self):
        A = np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        b = np.array([2.0, 2.0, 0.0])
        prob = IlsProblem(A, b, SignatureSplit(2, 1))
        sol = solve_ils(prob)
        np.testing.assert_allclose(sol.x, [2.0, 2.0], rtol=1e-14)
        np.testing.assert_allclose(sol.r, [-2.0, -2.0, -4.0], rtol=1e-14)

    def test_normal_equation_residual(self, rng):
        for _ in range(10):
            prob = random_ils(rng)
            sol = prob.solution
            rhs = prob.A.T @ prob.j_apply(prob.b)
            resid = np.linalg.norm(prob.M @ sol.x - rhs)
            bound = 1e-10 * (
                np.linalg.norm(prob.M) * np.linalg.norm(sol.x) + np.linalg.norm(rhs)
            )
            assert resid <= bound

    def test_lls_reduction_matches_qr_oracle(self, rng):
        for _ in range(10):
            A = rng.standard_normal((20, 8))
            b = rng.standard_normal(20)
            prob = IlsProblem(A, b, SignatureSplit(20, 0))
            x_qr, *_ = scipy.linalg.lstsq(A, b, lapack_driver="gelsy")
            err = np.linalg.norm(prob.solution.x - x_qr) / np.linalg.norm(x_qr)
            assert err <= 1e-10

    def test_positive_definiteness_witness(self, rng):
        prob = random_ils(rng)
        for _ in range(20):
            z = rng.standard_normal(prob.n)
            assert z @ prob.M @ z > 0.0

    def test_warns_when_not_genuinely_overdetermined(self):
        with pytest.warns(UserWarning, match="m > n"):
            with pytest.raises(NotPositiveDefinite):
                IlsProblem(np.eye(2), [1.0, 1.0], SignatureSplit(1, 1))


class TestBoundaryValidation:
    """Bad data fails in the constructor with a message naming the argument."""

    def _data(self, rng):
        return rng.standard_normal((8, 3)), rng.standard_normal(8)

    def test_complex_a_rejected(self, rng):
        A, b = self._data(rng)
        with pytest.raises(ValueError, match="A must be real"):
            IlsProblem(A + 1e-3j, b, SignatureSplit(6, 2))

    def test_nan_in_a_rejected(self, rng):
        A, b = self._data(rng)
        A[2, 1] = np.nan
        with pytest.raises(ValueError, match="A has non-finite entries"):
            IlsProblem(A, b, SignatureSplit(6, 2))

    def test_inf_in_b_rejected(self, rng):
        A, b = self._data(rng)
        b[0] = np.inf
        with pytest.raises(ValueError, match="b has non-finite entries"):
            IlsProblem(A, b, SignatureSplit(6, 2))


class TestApplyMinv:
    def test_m_itself_gives_identity(self, rng):
        prob = random_ils(rng)
        out = prob.apply_minv(prob.M)
        np.testing.assert_allclose(out, np.eye(prob.n), atol=1e-10)

    def test_two_by_two_adjugate(self):
        A = np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        prob = IlsProblem(A, np.zeros(3), SignatureSplit(2, 1))
        # M = [[3,-1],[-1,3]], inverse = [[3,1],[1,3]]/8
        np.testing.assert_allclose(
            prob.apply_minv(np.array([1.0, 0.0])), [3.0 / 8.0, 1.0 / 8.0], rtol=1e-14
        )

    def test_empty_block(self, rng):
        prob = random_ils(rng)
        out = prob.apply_minv(np.zeros((prob.n, 0)))
        assert out.shape == (prob.n, 0)

    def test_dimension_mismatch(self, rng):
        prob = random_ils(rng)
        with pytest.raises(ValueError):
            prob.apply_minv(np.ones(prob.n + 1))


class TestFrechetDerivative:
    def test_finite_difference_converges_first_order(self, rng):
        # halving the step should halve the error
        for _ in range(5):
            prob = random_ils(rng, m=14, n=5)
            L = np.eye(prob.n)
            dA = rng.standard_normal(prob.A.shape)
            db = rng.standard_normal(prob.m)
            analytic = directional_derivative(prob, L, dA, db)
            errs = []
            for t in (1e-3, 5e-4, 2.5e-4):
                pert = IlsProblem(prob.A + t * dA, prob.b + t * db, prob.split)
                fd = (pert.solution.x - prob.solution.x) / t
                errs.append(np.linalg.norm(fd - analytic))
            assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.2)
            assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.2)
