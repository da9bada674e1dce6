import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ilscond.exact
from ilscond import (
    CondParams,
    IlsProblem,
    SignatureSplit,
    UndefinedConditionNumber,
    kappa_2ils,
    kappa_componentwise,
    kappa_mixed,
    kappa_unified,
)
from ilscond.bench import gen_example2
from ilscond import TlsProblem
from ilscond.exact import ROWSUM_BLOCK_ENTRIES, JacobianMg
from ilscond.kron import ddagger, entrywise_div, vec

from conftest import (
    dense_generator_map,
    dense_mg_oracle,
    directional_derivative,
    peak_traced_bytes,
    random_ils,
    rowsums_error_bound,
    rowsums_oracle,
)


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def weighted_dense_norm(dense, params, m, n):
    """SVD spectral norm of diag(xi^ddagger) * dense * diag([vec(psi); beta])."""
    w = np.concatenate([vec(params.weights("psi", (m, n))), params.weights("beta", (m,))])
    rows = ddagger(params.weights("xi", (dense.shape[0],)))
    return np.linalg.norm(rows[:, None] * dense * w[None, :], 2)


class TestBuildMg:
    def test_action_matches_directional_derivative(self, rng):
        prob = random_ils(rng, m=12, n=5)
        L = rng.standard_normal((prob.n, 3))
        mg = dense_generator_map(prob.jacobian(L))
        for _ in range(10):
            dA = rng.standard_normal(prob.A.shape)
            db = rng.standard_normal(prob.m)
            expected = directional_derivative(prob, L, dA, db)
            got = mg @ np.concatenate([vec(dA), db])
            assert np.linalg.norm(got - expected) <= 1e-10 * max(
                1.0, np.linalg.norm(expected)
            )

    def test_dense_matches_kronecker_oracle(self, rng):
        for _ in range(5):
            prob = random_ils(rng, m=6, n=3)
            L = rng.standard_normal((prob.n, 3))
            dense = dense_generator_map(prob.jacobian(L))
            oracle = dense_mg_oracle(prob, L)
            np.testing.assert_allclose(dense, oracle, rtol=0, atol=1e-12 * np.abs(oracle).max())

    def test_zero_residual_identity_rows(self):
        # A = I, J = I, b in range(A): r = 0 so rows collapse to (-e_i x^T, e_i)
        n = 4
        b = np.arange(1.0, n + 1)
        prob = IlsProblem(np.eye(n), b, SignatureSplit(n, 0))
        mg = dense_generator_map(prob.jacobian())
        x = prob.solution.x
        for i in range(n):
            np.testing.assert_allclose(mg[i, : n * n], vec(-np.outer(np.eye(n)[i], x)), atol=1e-14)
            np.testing.assert_allclose(mg[i, n * n:], np.eye(n)[i], atol=1e-14)


class TestKappaUnified:
    def test_two_norm_matches_closed_form(self, rng):
        prob = random_ils(rng, m=8, n=4)
        params = CondParams(psi=1.3, beta=0.7, xi=2.0)
        assert rel_err(
            kappa_unified(prob, params, 2, 2), kappa_2ils(prob, params)
        ) <= 1e-10

    def test_inf_norm_matches_mixed(self, rng):
        prob = random_ils(rng, m=8, n=4)
        ltx = prob.solution.x
        params = CondParams(
            psi=prob.A, beta=prob.b, xi=np.full(prob.n, np.max(np.abs(ltx)))
        )
        assert rel_err(
            kappa_unified(prob, params, np.inf, np.inf), kappa_mixed(prob)
        ) <= 1e-12

    def test_inf_norm_matches_componentwise(self, rng):
        prob = random_ils(rng, m=8, n=4)
        params = CondParams(psi=prob.A, beta=prob.b, xi=prob.solution.x)
        assert rel_err(
            kappa_unified(prob, params, np.inf, np.inf), kappa_componentwise(prob)
        ) <= 1e-12

    def test_xi_scaling_halves(self, rng):
        prob = random_ils(rng, m=8, n=4)
        k1 = kappa_unified(prob, CondParams(xi=1.0), 2, 2)
        k2 = kappa_unified(prob, CondParams(xi=2.0), 2, 2)
        assert rel_err(k1, 2.0 * k2) <= 1e-12

    def test_unsupported_norm_pair(self, rng):
        prob = random_ils(rng, m=8, n=4)
        with pytest.raises(NotImplementedError):
            kappa_unified(prob, CondParams(), 2, np.inf)

    @pytest.mark.parametrize("mu, nu", [(2, np.inf), (np.inf, 2), (1, 1)])
    def test_unsupported_norm_pair_checked_before_any_work(self, rng, mu, nu):
        prob = random_ils(rng, m=8, n=4)
        with pytest.raises(NotImplementedError):
            kappa_unified(prob, CondParams(), mu, nu)
        assert prob._identity_jacobian is None

    def test_elementwise_zero_weight_drops_column(self, rng):
        prob = random_ils(rng, m=7, n=3)
        psi = np.ones(prob.A.shape)
        psi[0, 0] = 0.0
        params = CondParams(psi=psi, beta=np.ones(prob.m))
        dense = dense_mg_oracle(prob)
        w = np.concatenate([vec(psi), np.ones(prob.m)])
        expected = np.linalg.norm(dense * w[None, :], 2)
        assert rel_err(kappa_unified(prob, params, 2, 2), expected) <= 1e-12


class TestWeightedGram:
    def test_gram_equals_product_of_dense_map(self, rng):
        prob = random_ils(rng, m=9, n=4)
        jac = prob.jacobian(rng.standard_normal((prob.n, 3)))
        Wa = rng.standard_normal(prob.A.shape)
        wb = rng.standard_normal(prob.m)
        s = rng.standard_normal(jac.k)
        F = s[:, None] * dense_generator_map(jac) * np.concatenate([vec(Wa), wb])[None, :]
        expected = F @ F.T
        np.testing.assert_allclose(
            jac.weighted_gram(Wa, wb, s), expected, rtol=0,
            atol=1e-12 * np.abs(expected).max(),
        )

    def test_scalar_weights_partial_l_match_kronecker_oracle(self, rng):
        for _ in range(5):
            prob = random_ils(rng, m=10, n=5)
            L = rng.standard_normal((prob.n, 2))
            params = CondParams(L=L, psi=1.3, beta=0.7, xi=2.0)
            expected = weighted_dense_norm(dense_mg_oracle(prob, L), params, prob.m, prob.n)
            assert rel_err(kappa_unified(prob, params, 2, 2), expected) <= 1e-12

    def test_elementwise_weights_with_zeros_match_kronecker_oracle(self, rng):
        prob = random_ils(rng, m=12, n=5)
        psi = np.abs(rng.standard_normal(prob.A.shape))
        psi[0, 0] = psi[3, 2] = 0.0
        beta = np.abs(rng.standard_normal(prob.m))
        beta[4] = 0.0
        params = CondParams(psi=psi, beta=beta)
        expected = weighted_dense_norm(dense_mg_oracle(prob), params, prob.m, prob.n)
        assert rel_err(kappa_unified(prob, params, 2, 2), expected) <= 1e-12

    def test_elementwise_xi_with_zero_entry_matches_kronecker_oracle(self, rng):
        prob = random_ils(rng, m=11, n=4)
        xi = np.abs(rng.standard_normal(prob.n)) + 0.1
        xi[2] = 0.0
        params = CondParams(xi=xi)
        expected = weighted_dense_norm(dense_mg_oracle(prob), params, prob.m, prob.n)
        assert rel_err(kappa_unified(prob, params, 2, 2), expected) <= 1e-12

    def test_near_zero_residual_matches_kronecker_oracle(self, rng):
        prob = random_ils(rng, m=12, n=5, rho=1e-12)
        L = rng.standard_normal((prob.n, 3))
        params = CondParams(L=L, psi=0.9, beta=1.4)
        expected = weighted_dense_norm(dense_mg_oracle(prob, L), params, prob.m, prob.n)
        assert rel_err(kappa_unified(prob, params, 2, 2), expected) <= 1e-12

    @pytest.mark.filterwarnings("ignore::ilscond.ils.IllConditionedWarning")
    @pytest.mark.parametrize("kappa", [1e8, 1e10])
    @pytest.mark.parametrize("rho", [1.0, 1e-12])
    def test_ill_conditioned_example2(self, rng, kappa, rho):
        # cond(A^T J A) ~ kappa^2, so an LU-built oracle differs from the
        # Cholesky generators by eps * kappa^2; the dense map assembled from
        # the same generators isolates the Gram kernel's own error.
        prob, _, _ = gen_example2(40, 12, 28, kappa, rho, seed=3)
        L = rng.standard_normal((prob.n, 4))
        for params in (CondParams(), CondParams(L=L, psi=0.7, beta=1.3, xi=2.0)):
            dense = dense_generator_map(prob.jacobian(params.l_matrix(prob.n)))
            got = kappa_unified(prob, params, 2, 2)
            assert rel_err(got, weighted_dense_norm(dense, params, prob.m, prob.n)) <= 1e-12
            assert rel_err(got, kappa_2ils(prob, params)) <= 1e-9

    def test_does_not_materialise_the_map(self, rng):
        # the scalar-weight path reads the k x (2m + n) S, the elementwise one
        # a few m x n arrays; the k x (m n + m) map would hold 8 k (m n + m) bytes
        prob = random_ils(rng, m=400, n=40)
        cases = [
            CondParams(L=rng.standard_normal((prob.n, 20)), psi=1.2, xi=0.5),
            CondParams(psi=np.abs(rng.standard_normal(prob.A.shape)),
                       beta=np.abs(rng.standard_normal(prob.m))),
        ]
        for params, k in zip(cases, (20, prob.n)):
            peak = peak_traced_bytes(lambda: kappa_unified(prob, params, 2, 2))
            assert peak < 8 * k * (prob.m * prob.n + prob.m) / 2


def check_rowsums(jac, Wa, wb):
    """The |Mg| row sums agree across block heights exactly, and with the row loop to rounding.

    Block heights: one row per block (ROWSUM_BLOCK_ENTRIES = 1), the
    default, and the whole map in one block (2^30).  Against the row-by-row
    loop the a-priori bound is 2 (m n + m + 2) eps times the sum of the
    magnitudes of the terms.
    """
    results = []
    for entries in (1, ROWSUM_BLOCK_ENTRIES, 1 << 30):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ilscond.exact, "ROWSUM_BLOCK_ENTRIES", entries)
            results.append(jac.abs_weighted_rowsums(Wa, wb))
    for got in results[1:]:
        assert np.array_equal(got, results[0])
    assert np.all(np.abs(results[0] - rowsums_oracle(jac, Wa, wb))
                  <= rowsums_error_bound(jac, Wa, wb))


class TestBlockedRowsums:
    """The blocked |Mg| row sums: independent of the block height, the row loop's to rounding."""

    def test_partial_last_block(self, rng):
        prob = random_ils(rng, m=60, n=40)
        jac = prob.jacobian()
        height = ROWSUM_BLOCK_ENTRIES // (prob.m * prob.n)
        assert jac.k > height and jac.k % height != 0
        check_rowsums(jac, np.abs(prob.A), np.abs(prob.b))

    def test_one_row_per_block_above_the_cap(self, rng):
        prob = random_ils(rng, m=300, n=230)
        assert prob.m * prob.n > ROWSUM_BLOCK_ENTRIES
        jac = prob.jacobian(rng.standard_normal((prob.n, 3)))
        check_rowsums(jac, np.abs(prob.A), np.abs(prob.b))

    def test_elementwise_weights_with_zeros(self, rng):
        prob = random_ils(rng, m=50, n=30)
        jac = prob.jacobian()
        Wa = np.abs(rng.standard_normal((prob.m, prob.n)))
        Wa[rng.random(Wa.shape) < 0.3] = 0.0
        wb = np.abs(rng.standard_normal(prob.m))
        wb[::4] = 0.0
        check_rowsums(jac, Wa, wb)

    def test_tls_map(self, rng):
        A = rng.standard_normal((30, 8))
        tls = TlsProblem(A, A @ rng.standard_normal(8) + 0.3 * rng.standard_normal(30))
        check_rowsums(tls.jacobian(), np.abs(tls.A), np.abs(tls.b))


@given(st.integers(0, 2**32 - 1), st.sampled_from(("ils", "tls")), st.booleans(),
       st.floats(0.0, 0.9))
def test_rowsums_property(seed, kind, consistent, zero_share):
    """Small ILS and TLS maps, w = 0 (a consistent b) and zero weights included."""
    rng = np.random.default_rng(seed)
    if kind == "ils":
        prob = random_ils(rng)
    else:
        m, n = int(rng.integers(4, 16)), int(rng.integers(1, 4))
        A = rng.standard_normal((m, n))
        prob = TlsProblem(A, A @ rng.standard_normal(n) + 0.3 * rng.standard_normal(m))
    jac = prob.jacobian(rng.standard_normal((prob.n, int(rng.integers(1, prob.n + 1)))))
    if consistent:
        # the w -> 0 limit: r = 0 for a b in the range of A
        jac = JacobianMg(np.zeros(jac.m), jac.U, jac.V, jac.x, jac.A, jac.b)
    Wa = np.abs(rng.standard_normal((jac.m, jac.n)))
    Wa[rng.random(Wa.shape) < zero_share] = 0.0
    wb = np.abs(rng.standard_normal(jac.m))
    wb[rng.random(jac.m) < zero_share] = 0.0
    check_rowsums(jac, Wa, wb)


class TestCondParamsValidation:
    @pytest.mark.parametrize("name, value", [
        pytest.param("psi", np.inf, id="psi-inf"),
        pytest.param("beta", np.inf, id="beta-inf"),
        pytest.param("xi", np.nan, id="xi-nan"),
        pytest.param("psi", np.array([[1.0, np.nan], [0.0, 2.0]]), id="psi-elementwise-nan"),
        pytest.param("beta", np.array([1.0, -np.inf]), id="beta-elementwise-inf"),
        pytest.param("xi", np.array([np.nan, 1.0]), id="xi-elementwise-nan"),
        # a scalar weight must also be positive
        pytest.param("psi", 0.0, id="psi-zero"),
        pytest.param("beta", -1.0, id="beta-negative"),
        pytest.param("xi", 0, id="xi-zero"),
    ])
    def test_non_finite_weight_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            CondParams(**{name: value})

    def test_zero_elementwise_weights_accepted(self):
        CondParams(psi=np.zeros((3, 2)), beta=np.zeros(3), xi=np.zeros(2))

    @pytest.mark.parametrize("name, shape, expected", [
        ("psi", (5, 3), r"\(6, 3\)"), ("psi", (3, 6), r"\(6, 3\)"),
        ("beta", (4,), r"\(6,\)"), ("xi", (2,), r"\(3,\)"),
    ])
    def test_mis_shaped_weight_named(self, rng, name, shape, expected):
        prob = random_ils(rng, m=6, n=3)
        message = f"{name} must be a scalar or an array of shape {expected}"
        with pytest.raises(ValueError, match=message):
            kappa_unified(prob, CondParams(**{name: np.ones(shape)}), np.inf, np.inf)


class TestKappa2:
    def test_identity_zero_rhs(self):
        n = 3
        prob = IlsProblem(np.eye(n), np.zeros(n), SignatureSplit(n, 0))
        assert kappa_2ils(prob, CondParams()) == pytest.approx(1.0, rel=1e-12)

    def test_factored_equals_kronecker_oracle(self, rng):
        for _ in range(10):
            prob = random_ils(rng, m=12, n=5)
            params = CondParams(psi=0.9, beta=1.4, xi=0.6)
            expected = weighted_dense_norm(dense_mg_oracle(prob), params, prob.m, prob.n)
            assert rel_err(kappa_2ils(prob, params), expected) <= 1e-9

    def test_matches_unified_brute_force(self, rng):
        for _ in range(5):
            prob = random_ils(rng, m=10, n=4)
            L = rng.standard_normal((prob.n, 2))
            params = CondParams(L=L)
            assert rel_err(
                kappa_2ils(prob, params), kappa_unified(prob, params, 2, 2)
            ) <= 1e-9

    def test_scalar_weight_required(self, rng):
        prob = random_ils(rng, m=8, n=4)
        with pytest.raises(ValueError):
            kappa_2ils(prob, CondParams(psi=np.ones(prob.A.shape)))

    def test_homogeneity_in_xi(self, rng):
        prob = random_ils(rng, m=9, n=4)
        for c in (0.5, 3.0):
            assert rel_err(
                kappa_2ils(prob, CondParams(xi=c)), kappa_2ils(prob, CondParams()) / c
            ) <= 1e-13


class TestKappaInf:
    def test_identity_rhs_of_ones(self):
        # r = 0, x = b = ones: |Mg||vec(A,b)| = |x| + |b| = 2 per row
        n = 5
        prob = IlsProblem(np.eye(n), np.ones(n), SignatureSplit(n, 0))
        assert kappa_mixed(prob) == pytest.approx(2.0, rel=1e-14)
        assert kappa_componentwise(prob) == pytest.approx(2.0, rel=1e-14)

    def test_matches_dense_absolute_oracle(self, rng):
        for _ in range(5):
            prob = random_ils(rng, m=10, n=4)
            dense = np.abs(dense_mg_oracle(prob))
            absvec = np.abs(np.concatenate([vec(prob.A), prob.b]))
            num = dense @ absvec
            ltx = prob.solution.x
            expected_m = num.max() / np.abs(ltx).max()
            expected_c = np.max(np.abs(entrywise_div(num, np.abs(ltx))))
            assert rel_err(kappa_mixed(prob), expected_m) <= 1e-12
            assert rel_err(kappa_componentwise(prob), expected_c) <= 1e-12

    def test_least_squares_reduction_matches_dense_oracle(self, rng):
        # q = 0 follows the same code path and reproduces the plain least
        # squares mixed/componentwise values
        A = rng.standard_normal((11, 4))
        b = rng.standard_normal(11)
        prob = IlsProblem(A, b, SignatureSplit(11, 0))
        dense = np.abs(dense_mg_oracle(prob))
        num = dense @ np.abs(np.concatenate([vec(A), b]))
        ltx = prob.solution.x
        assert rel_err(kappa_mixed(prob), num.max() / np.abs(ltx).max()) <= 1e-12
        exp_c = np.max(np.abs(entrywise_div(num, np.abs(ltx))))
        assert rel_err(kappa_componentwise(prob), exp_c) <= 1e-12

    def test_single_column_l_bounded_by_identity(self, rng):
        prob = random_ils(rng, m=9, n=4)
        j = 2
        ej = np.eye(prob.n)[:, [j]]
        km_full = kappa_mixed(prob)
        km_j = kappa_mixed(prob, CondParams(L=ej))
        # the numerator of row j is shared; only the denominator can differ
        assert km_j <= km_full * np.abs(prob.solution.x).max() / max(
            abs(prob.solution.x[j]), 1e-300
        ) + 1e-12

    def test_zero_solution_component_finite(self):
        A = np.eye(2)
        b = np.array([1.0, 0.0])
        prob = IlsProblem(A, b, SignatureSplit(2, 0))
        # x = (1, 0): the zero component divides via the 0^ddagger rule
        val = kappa_componentwise(prob)
        assert np.isfinite(val)
        dense = np.abs(dense_mg_oracle(prob))
        num = dense @ np.abs(np.concatenate([vec(A), b]))
        expected = np.max(np.abs(entrywise_div(num, np.abs(prob.solution.x))))
        assert rel_err(val, expected) <= 1e-14

    def test_undefined_when_output_vanishes(self):
        prob = IlsProblem(np.eye(3), np.zeros(3), SignatureSplit(3, 0))
        with pytest.raises(UndefinedConditionNumber):
            kappa_mixed(prob)


class TestLlsSvdCheck:
    """The J = I least squares reduction of kappa_2ils, against the Kronecker map and a closed form."""

    def test_matches_ils_reduction(self, rng):
        for _ in range(5):
            A = rng.standard_normal((15, 6))
            b = rng.standard_normal(15)
            prob = IlsProblem(A, b, SignatureSplit(15, 0))
            params = CondParams(psi=1.1, beta=0.8, xi=1.5)
            expected = weighted_dense_norm(dense_mg_oracle(prob), params, 15, 6)
            assert rel_err(kappa_2ils(prob, params), expected) <= 1e-9

    def test_single_column_scalar_formula(self, rng):
        A = rng.standard_normal((12, 5))
        b = rng.standard_normal(12)
        psi, beta = 1.2, 0.9
        L = np.eye(5)[:, [0]]
        params = CondParams(L=L, psi=psi, beta=beta)
        x, *_ = np.linalg.lstsq(A, b, rcond=None)
        r = b - A @ x
        AtA_inv = np.linalg.inv(A.T @ A)
        pinv = AtA_inv @ A.T
        expected = np.sqrt(
            psi**2 * (r @ r) * np.linalg.norm(L.T @ AtA_inv) ** 2
            + (psi**2 * (x @ x) + beta**2) * np.linalg.norm(L.T @ pinv) ** 2
        )
        prob = IlsProblem(A, b, SignatureSplit(12, 0))
        assert rel_err(kappa_2ils(prob, params), expected) <= 1e-10


class TestPerturbationConsistency:
    def test_two_norm_bound_and_attainment(self, rng):
        prob = random_ils(rng, m=12, n=5)
        params = CondParams()
        kappa = kappa_2ils(prob, params)
        h = 1e-7
        dense = dense_mg_oracle(prob)
        _, _, vt = np.linalg.svd(dense, full_matrices=False)
        best = 0.0
        directions = [vt[0]] + [
            rng.standard_normal(dense.shape[1]) for _ in range(60)
        ]
        for z in directions:
            z = z / np.linalg.norm(z)
            dA = h * z[: prob.m * prob.n].reshape((prob.m, prob.n), order="F")
            db = h * z[prob.m * prob.n :]
            pert = IlsProblem(prob.A + dA, prob.b + db, prob.split)
            resp = np.linalg.norm(pert.solution.x - prob.solution.x) / h
            assert resp <= kappa * (1.0 + 1e-3)
            best = max(best, resp)
        assert best >= 0.5 * kappa
