import math
import os
import subprocess
import sys
from pathlib import Path

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
from ilscond.bench import gen_example1
from ilscond.estimate import _bidiag_smax, _directions

from conftest import random_ils

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _sphere_mean(k):
    # E|<z, e>| for z uniform on the unit sphere of R^k, the value wallis approximates
    return math.exp(math.lgamma(k / 2) - math.lgamma((k + 1) / 2)) / math.sqrt(math.pi)


class TestWallis:
    # wallis is the approximation sqrt(2 / (pi (k - 1/2))); its relative
    # error is checked against the exact sphere mean, a ratio of Gamma values

    @staticmethod
    def _rel_err(k):
        return wallis(k) / _sphere_mean(k) - 1.0

    def test_first_two_values(self):
        assert wallis(1) == math.sqrt(2.0 / (math.pi * 0.5))
        assert wallis(2) == math.sqrt(2.0 / (math.pi * 1.5))
        assert _sphere_mean(1) == pytest.approx(1.0, rel=1e-15)
        assert _sphere_mean(2) == pytest.approx(2.0 / math.pi, rel=1e-15)
        assert self._rel_err(1) == pytest.approx(0.128, rel=0.01)
        assert self._rel_err(2) == pytest.approx(0.023, rel=0.02)

    def test_k3_exact_and_approximation(self):
        assert wallis(3) == math.sqrt(2.0 / (math.pi * 2.5))
        assert _sphere_mean(3) == pytest.approx(0.5, rel=1e-15)
        assert self._rel_err(3) == pytest.approx(0.0093, rel=0.01)

    def test_error_shrinks_below_1e4_by_k64(self):
        errs = [self._rel_err(k) for k in range(1, 65)]
        assert all(a > b > 0 for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-4
        assert wallis(1000) == math.sqrt(2.0 / (math.pi * 999.5))

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

    def test_one_dimensional_op_rejected(self):
        with pytest.raises(ValueError, match="op must be a 2-D array"):
            spectral_interval(np.ones(3), seed=0)

    def test_import_loads_no_scipy_sparse(self):
        # the estimators multiply plain arrays, so nothing pulls in scipy.sparse
        code = ("import sys, ilscond, ilscond.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'sparse']))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": SRC})
        assert out.stdout.strip() == "[]"


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
        for l in (0, 3):
            prob, _, _ = gen_example1(200, 120, 140, l, 1.0, rng)
            exact = kappa_2ils(prob, CondParams())
            est = estimate_kappa2_pce(prob, CondParams(), delta=0.01,
                                      epsilon=1e-3, seed=rng)
            assert est / exact == pytest.approx(1.0, abs=6e-3)


def _bidiag_dense(ab, square):
    # the j x (j+1) upper bidiagonal with diagonal ab[0] and superdiagonal
    # ab[1], or its leading j x j block
    j = ab.shape[1]
    B = np.zeros((j, j + 1))
    B[np.arange(j), np.arange(j)] = ab[0]
    B[np.arange(j), np.arange(1, j + 1)] = ab[1]
    return B[:, :j] if square else B


class TestGolubKahanKernels:
    @pytest.mark.parametrize("square", [True, False])
    @pytest.mark.parametrize("graded", [False, True])
    @pytest.mark.parametrize("scale", [2.0**-500, 1.0, 2.0**500], ids=["2^-500", "1", "2^500"])
    def test_bidiag_smax_matches_dense_svd(self, square, graded, scale):
        # graded entries span 1e-8 to 1e8; scaled by 2^-500 or 2^500, their
        # squares leave the double range unless the kernel rescales first
        rng = np.random.default_rng(0)
        for j in range(1, 31):
            ab = rng.uniform(0.5, 1.0, (2, j))
            if graded:
                ab *= 10.0 ** rng.uniform(-8, 8, (2, j))
            ab *= scale
            if square:
                ab[1, -1] = 0.0
            ref = np.linalg.svd(_bidiag_dense(ab, square), compute_uv=False)[0]
            assert _bidiag_smax(ab) == pytest.approx(ref, rel=8 * np.finfo(float).eps, abs=0)

    def test_left_space_exhausted_on_wide_operator(self):
        # report-400's 20 x 1000 shape with prescribed singular values: no
        # cap and too few steps for the probabilistic bound, so the interval
        # closes when the 20 left vectors span the whole left space
        rng = np.random.default_rng(4)
        sigma = np.linspace(1.0, 0.9, 20)
        left, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        right, _ = np.linalg.qr(rng.standard_normal((1000, 20)))
        itv = spectral_interval((left * sigma) @ right.T, seed=5)
        assert itv.iterations == 20 and not itv.ratio_not_met
        assert itv.alpha1 <= sigma[0] <= itv.alpha2
        assert itv.alpha2 / itv.alpha1 <= 1.0 + 3e-12


class TestIterationCounts:
    # step counts for seeds 0-9, recorded with the per-vector Gram-Schmidt
    # loop and the dense bidiagonal SVD that the block bases and the
    # tridiagonal eigenvalue solve replaced: a kernel may move the last bits
    # of the bounds, not the step at which the iteration stops

    @pytest.fixture(scope="class")
    def problems(self):
        # desk ex1 cells n^0 and n^3; report-400's family, ex1 at 400 x 200
        # with a random orthonormal 20-column L, whose S is 20 x 1000
        L, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((200, 20)))
        return {
            "desk-n0": (gen_example1(60, 36, 42, 0, 1.0, 5)[0], CondParams()),
            "desk-n3": (gen_example1(60, 36, 42, 3, 1.0, 5)[0], CondParams()),
            "report": (gen_example1(400, 200, 260, 2, 1.0, 5)[0], CondParams(L=L)),
        }

    @pytest.mark.parametrize("name, capped, steps", [
        ("desk-n0", True, 2), ("desk-n3", True, 1), ("report", True, 20),
        ("desk-n0", False, 2), ("desk-n3", False, 36), ("report", False, 20),
    ])
    def test_counts_match_recorded(self, problems, name, capped, steps):
        prob, params = problems[name]
        S = prob.jacobian(params.L).factored(1.0, 1.0)
        for seed in range(10):
            if capped:
                _, itv = estimate_kappa2_pce(prob, params, seed=seed, return_interval=True)
            else:
                itv = spectral_interval(S, seed=seed)
            assert (itv.iterations, itv.ratio_not_met) == (steps, False)


class TestSsceConfig:
    @pytest.mark.parametrize("estimator", [estimate_kappa2_ssce, estimate_kappa_inf_ssce])
    @pytest.mark.parametrize("k, error, message", [
        (0, ValueError, "k must be at least 1"),
        (-1, ValueError, "k must be at least 1"),
        (2.0, TypeError, "k must be an integer"),
    ])
    def test_sample_count_validated_by_name(self, rng, estimator, k, error, message):
        prob = random_ils(rng, m=10, n=4)
        with pytest.raises(error, match=message):
            estimator(prob, CondParams(), SsceConfig(k=k, seed=0))


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
        frob = np.linalg.norm(tls.jacobian().factored(1.2, 0.8)) / 1.5
        assert est == pytest.approx(frob, rel=1e-13)
        assert est >= kappa_2tls(tls, params) * (1 - 1e-12)

    @staticmethod
    def _ils_and_tls(rng):
        A = rng.standard_normal((12, 5))
        tls = TlsProblem(A, A @ rng.standard_normal(5) + 0.3 * rng.standard_normal(12))
        return [random_ils(rng, m=10, n=5), tls]

    def test_explicit_identity_l_same_bits(self, rng):
        for prob in self._ils_and_tls(rng):
            a = estimate_kappa2_ssce(prob, CondParams(), SsceConfig(k=3, seed=4))
            b = estimate_kappa2_ssce(prob, CondParams(L=np.eye(prob.n)),
                                     SsceConfig(k=3, seed=4))
            assert a == b

    def test_partial_l_full_basis_is_frobenius_norm(self, rng):
        # an n x l L samples in l dimensions; with k = l the Wallis ratio is 1
        for prob in self._ils_and_tls(rng):
            L = rng.standard_normal((prob.n, 2))
            params = CondParams(L=L, psi=1.3, beta=0.7, xi=2.0)
            est = estimate_kappa2_ssce(prob, params, SsceConfig(k=2, seed=1))
            frob = np.linalg.norm(prob.jacobian(L).factored(1.3, 0.7)) / 2.0
            assert est == pytest.approx(frob, rel=1e-13)
            with pytest.raises(ValueError, match="k must not exceed the columns of L"):
                estimate_kappa2_ssce(prob, params, SsceConfig(k=3, seed=1))

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
    def test_directions_orthonormal_after_qr(self):
        Q, factor = _directions(np.random.default_rng(5), 40, 3, "t")
        gram = Q.T @ Q
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-12
        # the Q of np.linalg.qr of the same draw with R's diagonal made
        # positive, bit for bit, and still column-major
        ref, R = np.linalg.qr(np.random.default_rng(5).standard_normal((40, 3)))
        assert np.array_equal(Q, ref * np.sign(np.diag(R)))
        assert Q.flags.f_contiguous
        assert factor == wallis(3) / wallis(40)

    def test_k_cannot_exceed_data_dimension(self, rng):
        # t = m(n + 1) = 9 on a 3 x 2 problem; checked before any draw
        prob = random_ils(rng, m=3, n=2)
        with pytest.raises(ValueError, match=r"k must not exceed m\(n\+1\)"):
            estimate_kappa_inf_ssce(prob, CondParams(), SsceConfig(k=12, seed=0))

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
