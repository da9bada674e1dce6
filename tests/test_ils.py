import warnings

import numpy as np
import pytest
import scipy.linalg

import ilscond.ils
from ilscond import (
    CondParams,
    IllConditionedWarning,
    IlsProblem,
    NotPositiveDefinite,
    NumericallySingular,
    SignatureSplit,
    TlsProblem,
    estimate_kappa2_pce,
    kappa_2ils,
    kappa_unified,
)
from ilscond.bench import gen_example1, gen_example2
from ilscond.ils import SpdFactor

from conftest import directional_derivative, random_ils, signed_gram


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
    """The definiteness certificate that IlsProblem runs on construction."""

    def test_gram_case(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((10, 4))
        chol = IlsProblem(A, np.zeros(10), SignatureSplit(10, 0)).factor.chol
        M = signed_gram(A, SignatureSplit(10, 0))
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
            IlsProblem(A, np.zeros(3), SignatureSplit(2, 1))

    def test_rank_one_oracle_definite(self):
        A = np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        expected = (
            np.outer(A[0], A[0]) + np.outer(A[1], A[1]) - np.outer(A[2], A[2])
        )
        np.testing.assert_array_equal(expected, [[3.0, -1.0], [-1.0, 3.0]])
        F = IlsProblem(A, np.zeros(3), SignatureSplit(2, 1)).factor.chol.T
        np.testing.assert_allclose(np.linalg.eigvalsh(F.T @ F), [2.0, 4.0], rtol=1e-14)

    def test_failure_reports_eigenvalue(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NotPositiveDefinite, match="eigenvalue") as info:
            IlsProblem(A, np.zeros(3), SignatureSplit(2, 1))
        # R_p = I up to signs, so I - W W^T = [[0, -1], [-1, 0]]
        assert "-1.000e+00" in str(info.value)

    @pytest.mark.filterwarnings("error")
    def test_split_mismatch(self):
        with pytest.raises(ValueError):
            IlsProblem(np.eye(3), np.zeros(3), SignatureSplit(2, 2))


class TestQrCertificate:
    """A^T J A = F^T F certified from A_p = Q_p R_p, without forming M."""

    def test_factor_reproduces_normal_matrix(self, rng):
        for _ in range(10):
            prob = random_ils(rng)
            F = prob.factor.chol.T
            np.testing.assert_array_equal(F, np.triu(F))
            M = signed_gram(prob.A, prob.split)
            np.testing.assert_allclose(F.T @ F, M, rtol=0, atol=1e-13 * np.abs(M).max())

    @pytest.mark.parametrize("gen, cholesky_calls", [
        pytest.param(lambda: gen_example1(60, 25, 40, 3, 1.0, 0), 0, id="ex1-Aq-zero"),
        pytest.param(lambda: gen_example2(60, 25, 40, 1e4, 1.0, 0), 1, id="ex2"),
    ])
    def test_cholesky_of_c_skipped_when_aq_is_zero(self, gen, cholesky_calls, monkeypatch):
        # A_q = 0 makes C = I - W W^T = I exactly, so F = R_p is taken without a Cholesky
        calls = []
        original = np.linalg.cholesky

        def counted(C):
            calls.append(C.shape)
            return original(C)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        prob, _, _ = gen()
        assert len(calls) == cholesky_calls
        assert np.all(prob.A[prob.p:] == 0) == (cholesky_calls == 0)
        # the solution still satisfies A^T J r = 0
        r = prob.solution.r
        assert np.linalg.norm(prob.A.T @ prob.split.apply(r)) <= 1e-12 * (
            np.linalg.norm(prob.A) * np.linalg.norm(r) + np.linalg.norm(prob.A.T @ prob.b))

    def test_numerically_singular_names_the_bound(self, rng):
        Q, _ = np.linalg.qr(rng.standard_normal((12, 4)))
        A = Q * np.array([1.0, 1e-3, 1e-9, 1e-17])
        with pytest.raises(NumericallySingular, match=r"1/\(max\(m, n\) eps\)"):
            IlsProblem(A, rng.standard_normal(12), SignatureSplit(12, 0))

    @pytest.mark.filterwarnings("error")
    def test_fewer_rows_than_columns_is_singular(self, rng):
        with pytest.raises(NumericallySingular, match="3 rows and 5 columns"):
            IlsProblem(rng.standard_normal((3, 5)), np.ones(3), SignatureSplit(3, 0))

    def test_fewer_positive_rows_than_columns_is_not_definite(self, rng, monkeypatch):
        # A^T J A <= A_p^T A_p, whose rank is at most p < n: refused before any QR
        def no_qr(*args, **kwargs):
            raise AssertionError("a QR was taken")

        monkeypatch.setattr(ilscond.ils, "dgeqrf", no_qr)
        message = r"p = 3 rows carry signature \+1 for n = 5 columns"
        with pytest.raises(NotPositiveDefinite, match=message) as info:
            IlsProblem(rng.standard_normal((9, 5)), np.ones(9), SignatureSplit(3, 6))
        assert not isinstance(info.value, NumericallySingular)

    def test_ill_conditioned_warning_names_the_caller(self, rng):
        Q, _ = np.linalg.qr(rng.standard_normal((12, 4)))
        A = Q * np.array([1.0, 1e-3, 1e-9, 1e-13])
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            prob = IlsProblem(A, rng.standard_normal(12), SignatureSplit(12, 0))
        flagged = [w for w in log if issubclass(w.category, IllConditionedWarning)]
        assert prob.ill_conditioned and len(flagged) == 1
        assert flagged[0].filename == __file__

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
        chol = np.linalg.cholesky(M)
        factor = SpdFactor(chol.T)
        expected = scipy.linalg.cho_solve((chol, True), V)
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
        sol = prob.solution
        np.testing.assert_allclose(sol.x, [2.0, 2.0], rtol=1e-14)
        np.testing.assert_allclose(sol.r, [-2.0, -2.0, -4.0], rtol=1e-14)

    def test_normal_equation_residual(self, rng):
        for _ in range(10):
            prob = random_ils(rng)
            sol = prob.solution
            rhs = prob.A.T @ prob.split.apply(prob.b)
            M = signed_gram(prob.A, prob.split)
            resid = np.linalg.norm(M @ sol.x - rhs)
            bound = 1e-10 * (
                np.linalg.norm(M) * np.linalg.norm(sol.x) + np.linalg.norm(rhs)
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
        M = signed_gram(prob.A, prob.split)
        for _ in range(20):
            z = rng.standard_normal(prob.n)
            assert z @ M @ z > 0.0

    @pytest.mark.filterwarnings("error")
    def test_warns_when_not_genuinely_overdetermined(self):
        # m = n with q > 0 leaves p < n: the error comes with no warning before it
        with pytest.raises(NotPositiveDefinite):
            IlsProblem(np.eye(2), [1.0, 1.0], SignatureSplit(1, 1))


def _l_routes(L):
    """Every kind of route that reads L: the map, the 2-norm and (inf, inf) values, the PCE."""
    return [lambda prob: prob.jacobian(L),
            lambda prob: kappa_2ils(prob, CondParams(L=L)),
            lambda prob: kappa_unified(prob, CondParams(L=L), np.inf, np.inf),
            lambda prob: estimate_kappa2_pce(prob, CondParams(L=L), seed=0)]


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

    @pytest.mark.parametrize("calls, message", [
        pytest.param(_l_routes(1j * np.eye(3)), "L must be real", id="complex-L"),
        pytest.param(_l_routes(np.full((3, 3), np.nan)), "L has non-finite", id="nan-L"),
        pytest.param(_l_routes(np.zeros((3, 0))), "L has no columns", id="column-free-L"),
        pytest.param(_l_routes(np.ones((3, 3, 1))), "L must be a matrix", id="3d-L"),
        # every route applies the one L check: n rows and at most n columns,
        # with no transposed 1 x n row or 1-D vector accepted in place of a column
        pytest.param(_l_routes(np.ones((2, 2))), "L must have 3 rows, got 2", id="short-L"),
        pytest.param(_l_routes(np.ones((3, 4))), "L may have at most n columns", id="wide-L"),
        pytest.param(_l_routes(np.ones((1, 3))), "L must have 3 rows, got 1", id="row-L"),
        pytest.param(_l_routes(np.ones(3)), "L must be a matrix", id="vector-L"),
        pytest.param([lambda prob: IlsProblem(prob.A, prob.b[:-1], prob.split)],
                     "b has length 7, expected 8", id="short-b-ils"),
        pytest.param([lambda prob: TlsProblem(prob.A, prob.b[:-1])],
                     "b has length 7, expected 8", id="short-b-tls"),
        pytest.param([lambda prob: SignatureSplit(prob.p, -1)], "q must be nonnegative",
                     id="negative-q"),
        pytest.param([lambda prob: IlsProblem(np.zeros((8, 0)), prob.b, prob.split)],
                     "A has no columns", id="column-free-A-ils"),
        pytest.param([lambda prob: TlsProblem(np.zeros((8, 0)), prob.b)],
                     "A has no columns", id="column-free-A-tls"),
    ])
    def test_bad_l_or_column_free_a_rejected(self, rng, calls, message):
        prob = IlsProblem(*self._data(rng), SignatureSplit(6, 2))
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call(prob)


class TestApplyMinv:
    def test_m_itself_gives_identity(self, rng):
        prob = random_ils(rng)
        out = prob.factor.solve(signed_gram(prob.A, prob.split))
        np.testing.assert_allclose(out, np.eye(prob.n), atol=1e-10)

    def test_two_by_two_adjugate(self):
        A = np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        prob = IlsProblem(A, np.zeros(3), SignatureSplit(2, 1))
        # M = [[3,-1],[-1,3]], inverse = [[3,1],[1,3]]/8
        np.testing.assert_allclose(
            prob.factor.solve(np.array([1.0, 0.0])), [3.0 / 8.0, 1.0 / 8.0], rtol=1e-14
        )

    def test_empty_block(self, rng):
        prob = random_ils(rng)
        out = prob.factor.solve(np.zeros((prob.n, 0)))
        assert out.shape == (prob.n, 0)

    def test_dimension_mismatch(self, rng):
        prob = random_ils(rng)
        with pytest.raises(ValueError):
            prob.factor.solve(np.ones(prob.n + 1))


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
