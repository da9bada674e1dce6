import math

import numpy as np
import pytest

from ilscond import (
    CondParams,
    SsceConfig,
    TlsProblem,
    UndefinedConditionNumber,
    estimate_kappa2_pce,
    estimate_kappa2_ssce,
    estimate_kappa_inf_ssce,
    kappa_2ils,
    kappa_2tls,
    kappa_componentwise,
    kappa_mixed,
    spectral_interval,
    wallis,
)
from ilscond.exact import normwise_map

from conftest import random_ils


class TestWallis:
    def test_first_two_values(self):
        assert wallis(1) == 1.0
        assert wallis(2) == pytest.approx(2.0 / math.pi, rel=1e-15)

    def test_k3_exact_and_approximation(self):
        assert wallis(3) == pytest.approx(0.5, rel=1e-15)
        approx = wallis(3, approx=True)
        assert approx == pytest.approx(math.sqrt(2.0 / (math.pi * 2.5)), rel=1e-15)
        assert abs(approx - 0.5) / 0.5 < 1e-2

    def test_k4_even_product(self):
        assert wallis(4) == pytest.approx((2.0 / math.pi) * (2.0 / 3.0), rel=1e-15)

    def test_large_k_switches_to_approximation(self):
        assert wallis(65) == wallis(65, approx=True)

    def test_decreasing(self):
        vals = [wallis(k) for k in range(1, 30)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_invalid(self):
        with pytest.raises(ValueError):
            wallis(0)


class TestSpectralInterval:
    def test_diagonal_operator(self):
        itv = spectral_interval(np.diag([3.0, 2.0, 1.0]), delta=0.01, seed=0)
        assert itv.alpha1 <= 3.0 <= itv.alpha2
        assert itv.alpha2 / itv.alpha1 <= 1.01
        assert not itv.ratio_not_met

    def test_rank_one_captured_immediately(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(30)
        v = rng.standard_normal(12)
        itv = spectral_interval(np.outer(u, v), delta=0.01, seed=2)
        truth = np.linalg.norm(u) * np.linalg.norm(v)
        assert itv.alpha1 <= truth <= itv.alpha2
        assert itv.alpha2 / itv.alpha1 <= 1.0 + 1e-9
        assert itv.iterations <= 3

    def test_containment_on_random_operators(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m = int(rng.integers(2, 50))
            n = int(rng.integers(2, 200))
            A = rng.standard_normal((m, n))
            itv = spectral_interval(A, delta=0.01, epsilon=1e-3, seed=rng)
            truth = np.linalg.norm(A, 2)
            assert itv.alpha1 <= truth * (1 + 1e-10)
            assert truth <= itv.alpha2 * (1 + 1e-10)
            assert not itv.ratio_not_met

    def test_zero_operator(self):
        itv = spectral_interval(np.zeros((4, 5)), seed=0, det_bound=0.0)
        assert itv.alpha1 == 0.0 and itv.alpha2 == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            spectral_interval(np.eye(2), delta=0.0)
        with pytest.raises(ValueError):
            spectral_interval(np.eye(2), epsilon=1.5)


class TestPce:
    def test_relative_error_within_delta(self, rng):
        for _ in range(25):
            prob = random_ils(rng)
            params = CondParams()
            exact = kappa_2ils(prob, params)
            est, itv = estimate_kappa2_pce(
                prob, params, delta=0.01, seed=rng, return_interval=True
            )
            assert not itv.ratio_not_met
            assert abs(est - exact) / exact <= 0.01

    def test_interval_brackets_exact_value(self, rng):
        prob = random_ils(rng, m=20, n=8)
        params = CondParams(xi=2.0)
        exact = kappa_2ils(prob, params)
        est, itv = estimate_kappa2_pce(prob, params, seed=7, return_interval=True)
        assert itv.alpha1 / 2.0 <= exact * (1 + 1e-10)
        assert exact <= itv.alpha2 / 2.0 * (1 + 1e-10)

    def test_deterministic_given_seed(self, rng):
        prob = random_ils(rng, m=15, n=6)
        a = estimate_kappa2_pce(prob, CondParams(), seed=11)
        b = estimate_kappa2_pce(prob, CondParams(), seed=11)
        assert a == b

    def test_ratio_near_one_at_published_size(self, rng):
        from ilscond.bench import gen_example1

        for l in (0, 3):
            prob, _, _ = gen_example1(200, 120, 140, l, 1.0, rng)
            exact = kappa_2ils(prob, CondParams())
            est = estimate_kappa2_pce(prob, CondParams(), delta=0.01,
                                      epsilon=1e-3, seed=rng)
            assert est / exact == pytest.approx(1.0, abs=6e-3)


class TestSsce2:
    def test_full_basis_overestimates_two_norm(self, rng):
        prob = random_ils(rng, m=12, n=5)
        params = CondParams()
        exact = kappa_2ils(prob, params)
        est = estimate_kappa2_ssce(prob, params, SsceConfig(k=prob.n, seed=3))
        # with the complete basis the estimate dominates the spectral value
        assert est >= exact * (1 - 1e-10)

    def test_tls_full_basis_is_frobenius_norm(self, rng):
        # with k = n the Wallis ratio is 1 and ||Q^T S||_F = ||S||_F >= ||S||_2
        A = rng.standard_normal((12, 4))
        tls = TlsProblem(A, A @ rng.standard_normal(4) + 0.3 * rng.standard_normal(12))
        params = CondParams(psi=1.2, beta=0.8, xi=1.5)
        est = estimate_kappa2_ssce(tls, params, SsceConfig(k=tls.n, seed=3))
        frob = np.linalg.norm(normwise_map(tls, params)) / 1.5
        assert est == pytest.approx(frob, rel=1e-13)
        assert est >= kappa_2tls(tls, params) * (1 - 1e-12)

    def test_requires_identity_l(self, rng):
        prob = random_ils(rng, m=10, n=4)
        with pytest.raises(ValueError):
            estimate_kappa2_ssce(
                prob, CondParams(L=np.eye(prob.n)[:, :2]), SsceConfig(seed=0)
            )

    def test_k_cannot_exceed_n(self, rng):
        prob = random_ils(rng, m=10, n=4)
        with pytest.raises(ValueError):
            estimate_kappa2_ssce(prob, CondParams(), SsceConfig(k=5, seed=0))

    def test_deterministic_given_seed(self, rng):
        prob = random_ils(rng, m=10, n=4)
        a = estimate_kappa2_ssce(prob, CondParams(), SsceConfig(k=3, seed=5))
        b = estimate_kappa2_ssce(prob, CondParams(), SsceConfig(k=3, seed=5))
        assert a == b

    def test_flat_spectrum_overestimate_at_published_size(self, rng):
        # orthogonally invariant instance: the k = 3 estimate lands at
        # (w_3 / w_120) sqrt(3), about 11.97, almost deterministically
        from ilscond.bench import gen_example1

        prob, _, _ = gen_example1(200, 120, 140, 0, 1.0, rng)
        exact = kappa_2ils(prob, CondParams())
        est = estimate_kappa2_ssce(prob, CondParams(), SsceConfig(k=3, seed=1))
        assert est / exact == pytest.approx(11.97, rel=0.02)

    def test_within_factor_ten_on_benchmark_family(self, rng):
        from ilscond.bench import gen_example1

        for kappa_exp in (2, 5):
            for _ in range(10):
                prob, _, _ = gen_example1(24, 12, 16, kappa_exp, 1.0, rng)
                exact = kappa_2ils(prob, CondParams())
                est = estimate_kappa2_ssce(
                    prob, CondParams(), SsceConfig(k=3, rng=rng)
                )
                assert exact / 10 <= est <= 10 * exact


class TestSsceInf:
    def test_directions_orthonormal_after_qr(self, rng):
        Z = rng.standard_normal((40, 3))
        Q, _ = np.linalg.qr(Z)
        gram = Q.T @ Q
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-12

    def test_full_basis_row_norms(self, rng):
        # with every direction of the perturbation space, the accumulated
        # squares are exactly the squared row norms of the first-order map
        prob = random_ils(rng, m=3, n=2)
        t = prob.m * (prob.n + 1)
        mixed, comp = estimate_kappa_inf_ssce(
            prob, CondParams(), SsceConfig(k=t, seed=9)
        )
        jac = prob.jacobian()
        rownorms = np.linalg.norm(jac.dense(), axis=1)
        x = prob.solution.x
        exp_mixed = rownorms.max() / np.abs(x).max()
        assert mixed == pytest.approx(exp_mixed, rel=1e-10)
        # estimates stay within sqrt(t) of the infinity-norm values
        exact = kappa_mixed(prob)
        assert exact / math.sqrt(t) <= mixed <= exact * math.sqrt(t)

    def test_tls_full_basis_row_norms(self, rng):
        A = rng.standard_normal((5, 2))
        tls = TlsProblem(A, A @ rng.standard_normal(2) + 0.3 * rng.standard_normal(5))
        t = tls.m * (tls.n + 1)
        mixed, comp = estimate_kappa_inf_ssce(tls, CondParams(), SsceConfig(k=t, seed=9))
        rownorms = np.linalg.norm(tls.jacobian().dense(), axis=1)
        assert mixed == pytest.approx(rownorms.max() / np.abs(tls.x).max(), rel=1e-10)
        assert comp == pytest.approx(np.max(rownorms / np.abs(tls.x)), rel=1e-10)

    def test_deterministic_given_seed(self, rng):
        prob = random_ils(rng, m=10, n=4)
        a = estimate_kappa_inf_ssce(prob, CondParams(), SsceConfig(k=3, seed=5))
        b = estimate_kappa_inf_ssce(prob, CondParams(), SsceConfig(k=3, seed=5))
        assert a == b

    def test_undefined_when_output_vanishes(self):
        from ilscond import IlsProblem, SignatureSplit

        prob = IlsProblem(np.eye(3), np.zeros(3), SignatureSplit(3, 0))
        with pytest.raises(UndefinedConditionNumber):
            estimate_kappa_inf_ssce(prob, CondParams(), SsceConfig(seed=0))

    def test_within_factor_ten_on_benchmark_family(self, rng):
        from ilscond.bench import gen_example2

        for kappa in (1e2, 1e6):
            for _ in range(10):
                prob, _, _ = gen_example2(24, 10, 14, kappa, 1.0, rng)
                km = kappa_mixed(prob)
                kc = kappa_componentwise(prob)
                sm, sc = estimate_kappa_inf_ssce(
                    prob, CondParams(), SsceConfig(k=3, rng=rng)
                )
                assert km / 10 <= sm <= 10 * km
                assert kc / 10 <= sc <= 10 * kc
