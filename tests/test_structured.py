import warnings

import numpy as np
import pytest
import scipy.linalg

from ilscond import (
    CondParams,
    ConditionReport,
    IlsProblem,
    SignatureSplit,
    StructureMismatch,
    StructuredParams,
    kappa_2ils,
    kappa_2ils_structured,
    kappa_componentwise,
    kappa_componentwise_structured,
    kappa_mixed,
    kappa_mixed_structured,
    make_basis,
)
from ilscond.bench import gen_example3
from ilscond.kron import ddagger, entrywise_div
from ilscond.structured import basis_from_token

from conftest import dense_basis, dense_mg_oracle, random_ils


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def toeplitz_from_params(s, m, n):
    # independent construction: first column then first row tail
    return scipy.linalg.toeplitz(s[:m], np.concatenate([[s[0]], s[m:]]))


class TestBases:
    def test_toeplitz_3x3_column_norms(self):
        basis = make_basis("toeplitz", 3, 3)
        assert basis.k == 5
        assert sorted(np.round(basis.d**2).astype(int)) == [1, 1, 2, 2, 3]

    @pytest.mark.parametrize("kind,m,n", [
        ("toeplitz", 5, 3), ("toeplitz", 3, 6), ("hankel", 4, 4),
        ("symmetric", 5, 5), ("stacked_scaled", 8, 3), ("full", 3, 4),
    ])
    def test_phi_columns_orthogonal(self, kind, m, n):
        basis = make_basis(kind, m, n)
        phi = dense_basis(basis)
        gram = phi.T @ phi
        np.testing.assert_allclose(gram, np.diag(basis.d**2), atol=1e-14)

    def test_phi_orthogonality_all_sizes_up_to_12(self):
        for size in range(2, 13):
            cases = [("toeplitz", size, max(2, size - 1)),
                     ("hankel", size, size), ("symmetric", size, size)]
            if size % 2 == 0:
                cases.append(("stacked_scaled", size, max(2, size // 2)))
            for kind, m, n in cases:
                basis = make_basis(kind, m, n)
                phi = dense_basis(basis)
                np.testing.assert_allclose(
                    phi.T @ phi, np.diag(basis.d**2), atol=1e-13
                )

    def test_toeplitz_embedding_matches_scipy(self, rng):
        m, n = 5, 4
        basis = make_basis("toeplitz", m, n)
        s = rng.standard_normal(basis.k)
        np.testing.assert_array_equal(basis.embed(s), toeplitz_from_params(s, m, n))

    def test_hankel_embedding_matches_scipy(self, rng):
        m, n = 4, 3
        basis = make_basis("hankel", m, n)
        s = rng.standard_normal(basis.k)
        expected = scipy.linalg.hankel(s[:m], s[m - 1 :])
        np.testing.assert_array_equal(basis.embed(s), expected)

    def test_symmetric_2x2(self):
        basis = make_basis("symmetric", 2, 2)
        assert basis.k == 3
        np.testing.assert_allclose(sorted(basis.d), [1.0, 1.0, np.sqrt(2.0)])
        A = basis.embed([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(A, A.T)

    def test_stacked_scaled_column_norms(self):
        basis = make_basis("stacked_scaled", 6, 3, base_kind="toeplitz", scale=0.5)
        base = make_basis("toeplitz", 3, 3)
        lengths = base.d**2
        np.testing.assert_allclose(basis.d, np.sqrt(lengths * 1.25))

    def test_stacked_scaled_embeds_stacked_copies(self, rng):
        basis = make_basis("stacked_scaled", 8, 3, base_kind="toeplitz", scale=0.5)
        s = rng.standard_normal(basis.k)
        A = basis.embed(s)
        np.testing.assert_array_equal(A[4:], 0.5 * A[:4])
        np.testing.assert_array_equal(A[:4], toeplitz_from_params(s, 4, 3))

    def test_unsupported_kinds(self):
        with pytest.raises(ValueError):
            make_basis("circulant", 4, 4)
        with pytest.raises(ValueError):
            make_basis("symmetric", 3, 4)

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: make_basis("toeplitz", 4, 3).embed(np.ones(5)),
                     "parameter vector has length 5, expected 6", id="embed-length"),
        pytest.param(lambda: make_basis("toeplitz", 4, 3).extract(np.ones((3, 4))),
                     r"data shape \(3, 4\), expected \(4, 3\)", id="extract-shape"),
        pytest.param(lambda: make_basis("stacked_scaled", 5, 3),
                     "stacked_scaled needs an even row count", id="stacked-odd-rows"),
        pytest.param(lambda: make_basis("toeplitz", 0, 3), "m must be a positive integer, got 0",
                     id="zero-rows"),
        pytest.param(lambda: make_basis("hankel", 3, -1), "n must be a positive integer, got -1",
                     id="negative-cols"),
        pytest.param(lambda: make_basis("toeplitz", 2.5, 3), "m must be a positive integer, got 2.5",
                     id="float-rows"),
        pytest.param(lambda: make_basis("stacked_scaled", 0, 3), "m must be a positive integer",
                     id="stacked-zero-rows"),
        pytest.param(lambda: basis_from_token("full", 0, 0), "m must be a positive integer, got 0",
                     id="token-zero"),
        pytest.param(lambda: basis_from_token("stacked_scaled:toeplitz:0.5", 8, 4.0),
                     "n must be a positive integer, got 4.0", id="token-float-cols"),
    ])
    def test_wrong_size_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("name", ["param", "index", "value", "d"])
    def test_entry_arrays_read_only(self, name):
        # a shared basis cannot be edited into disagreeing with its own d
        basis = make_basis("stacked_scaled", 8, 4)
        with pytest.raises(ValueError, match="read-only"):
            getattr(basis, name)[0] = 5.0

    def test_stacked_base_kind_rejected(self):
        # its kind, stacked_scaled:stacked_scaled:0.5, could not be read back
        with pytest.raises(ValueError, match="stacked_scaled cannot be its own base kind"):
            make_basis("stacked_scaled", 8, 3, base_kind="stacked_scaled")

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="stacked_scaled needs a finite scale"):
            make_basis("stacked_scaled", 8, 4, scale=scale)

    def test_huge_scale_keeps_its_own_data(self):
        # |scale| above 1.3e154 overflowed the squared column norms
        basis = make_basis("stacked_scaled", 8, 4, scale=1e200)
        assert np.all(np.isfinite(basis.d))
        s = 1e-200 * np.arange(1.0, basis.k + 1)
        np.testing.assert_allclose(basis.extract(basis.embed(s)), s, rtol=1e-14)

    @pytest.mark.parametrize("token", [
        "toeplitz:junk", "full:junk", "circulant", "stacked_scaled", "stacked_scaled:toeplitz",
        "stacked_scaled:toeplitz:nan", "stacked_scaled:toeplitz:inf",
        "stacked_scaled:toeplitz:junk", "stacked_scaled:circulant:0.5",
        "stacked_scaled:stacked_scaled:0.5", "stacked_scaled:toeplitz:0.5:1",
    ])
    def test_malformed_token_named(self, token):
        with pytest.raises(ValueError, match=f"unsupported structure token {token!r}$"):
            basis_from_token(token, 8, 4)

    def test_token_roundtrip(self):
        # a scale's repr round-trips, so the kind names its basis exactly
        for token in ("toeplitz", "hankel", "stacked_scaled:toeplitz:0.5",
                      f"stacked_scaled:hankel:{1 / 3!r}", "stacked_scaled:toeplitz:1e-30"):
            basis = basis_from_token(token, 8, 4)
            assert basis.kind == token


class TestExtract:
    def test_toeplitz_roundtrip(self, rng):
        basis = make_basis("toeplitz", 6, 4)
        s = rng.standard_normal(basis.k)
        A = basis.embed(s)
        np.testing.assert_allclose(basis.extract(A), s, rtol=1e-14)
        np.testing.assert_allclose(basis.embed(basis.extract(A)), A, rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("scale", [1e-13, 1e-200, 1e200])
    def test_off_class_data_rejected_at_any_scale(self, rng, scale):
        # the old tolerance was absolute below norm 1, and the norm overflowed at 1e200
        basis = make_basis("toeplitz", 4, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StructureMismatch):
                basis.extract(scale * rng.standard_normal((4, 3)))

    @pytest.mark.parametrize("power", [-1000, 1000])
    def test_structured_data_accepted_at_any_scale(self, rng, power):
        basis = make_basis("toeplitz", 4, 3)
        s = 2.0**power * rng.standard_normal(basis.k)
        np.testing.assert_allclose(basis.extract(basis.embed(s)), s, rtol=1e-14)
        np.testing.assert_array_equal(basis.extract(np.zeros((4, 3))), np.zeros(basis.k))

    def test_violation_detected_and_named(self, rng):
        basis = make_basis("toeplitz", 5, 5)
        A = basis.embed(rng.standard_normal(basis.k))
        A[2, 1] += 1.0
        with pytest.raises(StructureMismatch, match="entry"):
            basis.extract(A)


def _structured_instance(rng, n=8):
    prob, sparams, _, _ = gen_example3(n, 1.0, rng)
    return prob, sparams


def _dense_blkdiag_oracle(prob, sparams, L=None):
    mg = dense_mg_oracle(prob, L)
    mn = prob.m * prob.n
    return mg[:, :mn] @ dense_basis(sparams.basisA), mg[:, mn:]


class TestStructuredKappas:
    def test_full_basis_reduces_to_unstructured(self, rng):
        prob = random_ils(rng, m=8, n=4)
        params = CondParams()
        sparams = StructuredParams(make_basis("full", prob.m, prob.n))
        assert rel_err(
            kappa_2ils_structured(prob, params, sparams), kappa_2ils(prob, params)
        ) <= 1e-12
        assert rel_err(
            kappa_mixed_structured(prob, params, sparams), kappa_mixed(prob)
        ) <= 1e-12
        assert rel_err(
            kappa_componentwise_structured(prob, params, sparams),
            kappa_componentwise(prob),
        ) <= 1e-12

    def test_structured_never_exceeds_unstructured(self, rng):
        params = CondParams()
        for _ in range(5):
            prob, sparams = _structured_instance(rng)
            assert kappa_2ils_structured(prob, params, sparams) <= kappa_2ils(
                prob, params
            ) * (1 + 1e-12)
            assert kappa_mixed_structured(prob, params, sparams) <= kappa_mixed(
                prob
            ) * (1 + 1e-12)
            assert kappa_componentwise_structured(
                prob, params, sparams
            ) <= kappa_componentwise(prob) * (1 + 1e-12)

    def test_two_norm_matches_dense_oracle(self, rng):
        prob, sparams = _structured_instance(rng)
        params = CondParams(psi=1.2, beta=0.8, xi=1.5)
        GA, GB = _dense_blkdiag_oracle(prob, sparams)
        G = np.hstack([1.2 * GA / sparams.basisA.d, 0.8 * GB])
        expected = np.linalg.norm(G, 2) / 1.5
        assert rel_err(
            kappa_2ils_structured(prob, params, sparams), expected
        ) <= 1e-10

    def test_mixed_and_comp_match_dense_oracle(self, rng):
        prob, sparams = _structured_instance(rng)
        params = CondParams()
        GA, GB = _dense_blkdiag_oracle(prob, sparams)
        s1 = sparams.basisA.extract(prob.A)
        num = np.abs(GA) @ np.abs(s1) + np.abs(GB) @ np.abs(prob.b)
        x = prob.solution.x
        exp_m = num.max() / np.abs(x).max()
        exp_c = np.max(np.abs(entrywise_div(num, np.abs(x))))
        assert rel_err(kappa_mixed_structured(prob, params, sparams), exp_m) <= 1e-12
        assert rel_err(
            kappa_componentwise_structured(prob, params, sparams), exp_c
        ) <= 1e-12

    def test_structure_mismatch_rejected(self, rng):
        prob = random_ils(rng, m=8, n=4)
        sparams = StructuredParams(make_basis("toeplitz", prob.m, prob.n))
        with pytest.raises(StructureMismatch):
            kappa_2ils_structured(prob, CondParams(), sparams)

    def test_lls_reduction_cross_check(self, rng):
        # J = I Toeplitz instance against the least squares formulas coded
        # directly from the pseudoinverse form
        m, n = 10, 5
        basis = make_basis("toeplitz", m, n)
        A = basis.embed(rng.standard_normal(basis.k))
        b = rng.standard_normal(m)
        prob = IlsProblem(A, b, SignatureSplit(m, 0))
        params = CondParams()
        sparams = StructuredParams(basis)

        x, *_ = np.linalg.lstsq(A, b, rcond=None)
        r = b - A @ x
        AtA_inv = np.linalg.inv(A.T @ A)
        pinv = AtA_inv @ A.T
        from conftest import dense_vec_perm

        P = dense_vec_perm(m, n)
        blockA = np.kron(r[None, :], AtA_inv) @ P - np.kron(x[None, :], pinv)
        phi1 = dense_basis(basis)
        s1 = basis.extract(A)
        num = np.abs(blockA @ phi1) @ np.abs(s1) + np.abs(pinv) @ np.abs(b)
        exp_m = num.max() / np.abs(x).max()
        exp_c = np.max(np.abs(entrywise_div(num, np.abs(x))))
        assert rel_err(kappa_mixed_structured(prob, params, sparams), exp_m) <= 1e-10
        assert rel_err(
            kappa_componentwise_structured(prob, params, sparams), exp_c
        ) <= 1e-10


class TestStructuredGeneral:
    def test_specializes_to_mixed(self, rng):
        prob, sparams = _structured_instance(rng)
        s1 = sparams.basisA.extract(prob.A)
        x = prob.solution.x
        gen = StructuredParams(sparams.basisA, varphi=s1, theta=prob.b)
        params = CondParams(xi=np.full(prob.n, np.abs(x).max()))
        assert rel_err(
            ConditionReport(prob, params, gen).structured_general,
            kappa_mixed_structured(prob, CondParams(), sparams),
        ) <= 1e-12

    def test_zero_varphi_leaves_b_block(self, rng):
        prob, sparams = _structured_instance(rng)
        gen = StructuredParams(
            sparams.basisA,
            varphi=np.zeros(sparams.basisA.k),
            theta=prob.b,
        )
        GA, GB = _dense_blkdiag_oracle(prob, sparams)
        expected = np.max(np.abs(GB) @ np.abs(prob.b))
        assert rel_err(
            ConditionReport(prob, CondParams(), gen).structured_general, expected
        ) <= 1e-12

    @pytest.mark.parametrize("weights, message", [
        pytest.param(lambda kA, m: (None, None), "needs explicit varphi and theta",
                     id="neither"),
        pytest.param(lambda kA, m: (np.ones(kA), None), "needs explicit varphi and theta",
                     id="no-theta"),
        pytest.param(lambda kA, m: (np.ones(kA - 1), np.ones(m)),
                     "lengths do not match the bases", id="short-varphi"),
        pytest.param(lambda kA, m: (np.ones(kA), np.ones(m + 1)),
                     "lengths do not match the bases", id="long-theta"),
    ])
    def test_general_form_weights_checked(self, rng, weights, message):
        prob, sparams = _structured_instance(rng)
        varphi, theta = weights(sparams.basisA.k, prob.m)
        gen = StructuredParams(sparams.basisA, varphi=varphi, theta=theta)
        with pytest.raises(ValueError, match=message):
            ConditionReport(prob, CondParams(), gen).structured_general

    def test_random_weights_match_dense_oracle(self, rng):
        prob, sparams = _structured_instance(rng)
        phi = rng.standard_normal(sparams.basisA.k)
        theta = rng.standard_normal(prob.m)
        xi = rng.standard_normal(prob.n)
        xi[0] = 0.0  # exercise the 0^ddagger rule
        gen = StructuredParams(sparams.basisA, varphi=phi, theta=theta)
        GA, GB = _dense_blkdiag_oracle(prob, sparams)
        num = np.abs(GA) @ np.abs(phi) + np.abs(GB) @ np.abs(theta)
        expected = np.max(np.abs(num * ddagger(np.abs(xi))))
        got = ConditionReport(prob, CondParams(xi=xi), gen).structured_general
        assert rel_err(got, expected) <= 1e-12
