import gc
import tracemalloc
import warnings

import numpy as np
import pytest

import ilscond.exact
from ilscond import (
    CondParams,
    ConditionReport,
    IllConditionedWarning,
    IlsProblem,
    NotPositiveDefinite,
    SignatureSplit,
    StructuredParams,
    TlsNotGeneric,
    TlsProblem,
    kappa_2tls,
    kappa_componentwise_tls,
    kappa_composed_ils,
    kappa_mixed_tls,
    kappa_unified,
    make_basis,
    tls_blocks,
)
from ilscond.kron import entrywise_div, vec
from ilscond.tls import ComposedBlocks

from conftest import dense_vec_perm


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def svd_tls_oracle(A, b):
    full = np.column_stack([A, b])
    _, _, Vt = np.linalg.svd(full)
    v = Vt[-1]
    return -v[:-1] / v[-1]


def random_tls(rng, m=10, n=3, noise=0.3):
    A = rng.standard_normal((m, n))
    x = rng.standard_normal(n)
    b = A @ x + noise * rng.standard_normal(m)
    return A, b


def ill_conditioned_tls(rng, m=40, n=8):
    """cond(A) = 1e13 with noise far below sigma_n(A): eps cond(F) > 1e-3."""
    Q, _ = np.linalg.qr(rng.standard_normal((m, n)))
    W, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.logspace(0, -13, n)
    A = (Q * s) @ W.T
    return A, A @ rng.standard_normal(n) + 1e-2 * s[-1] * rng.standard_normal(m)


def stacked_ils(A, B, b, d):
    """The indefinite problem on [A; B], [b; d] with signature diag(I_m, -I_s)."""
    return IlsProblem(np.vstack([A, B]), np.concatenate([b, d]),
                      SignatureSplit(len(A), len(B)))


def dense_tls_map(tls, L=None):
    """The TLS first-order map assembled from explicit Kronecker products."""
    if L is None:
        L = np.eye(tls.n)
    Minv = np.linalg.inv(tls.A.T @ tls.A - tls.sigma_tilde**2 * np.eye(tls.n))
    LtMinv = L.T @ Minv
    Dsig = LtMinv @ (tls.A.T + 2.0 * np.outer(tls.x, tls.r) / (1.0 + tls.x @ tls.x))
    P = dense_vec_perm(tls.m, tls.n)
    blockA = np.kron(tls.r[None, :], LtMinv) @ P - np.kron(tls.x[None, :], Dsig)
    return np.hstack([blockA, Dsig])


class TestSolveTls:
    def test_consistent_column(self):
        tls = TlsProblem(np.array([[1.0], [0.0]]), np.array([2.0, 0.0]))
        assert tls.sigma_tilde == pytest.approx(0.0, abs=1e-14)
        assert tls.x[0] == pytest.approx(2.0, rel=1e-12)

    def test_matches_svd_oracle(self, rng):
        for _ in range(100):
            A, b = random_tls(rng)
            tls = TlsProblem(A, b)
            x_ref = svd_tls_oracle(A, b)
            assert np.linalg.norm(tls.x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)

    def test_degenerate_gap_rejected(self, rng):
        # b orthogonal to range(A) with norm sigma_n duplicates the smallest
        # singular value of [A, b]
        A = rng.standard_normal((8, 3))
        U, s, Vt = np.linalg.svd(A, full_matrices=True)
        b = U[:, 5] * s[-1]
        with pytest.raises(TlsNotGeneric):
            TlsProblem(A, b)

    def test_wide_rejected(self):
        with pytest.raises(ValueError):
            TlsProblem(np.eye(3), np.ones(3))


class TestStackedRoute:
    """x, r and the factor behind every Mt^{-1} product come from the stacked IlsProblem."""

    def test_sigma_n_is_smallest_singular_value_of_a(self, rng):
        for _ in range(10):
            A, b = random_tls(rng)
            tls = TlsProblem(A, b)
            s_a = np.linalg.svd(A, compute_uv=False)
            assert tls.sigma_n == pytest.approx(s_a[-1], rel=1e-12)

    def test_x_and_r_match_an_explicit_stacked_problem(self, rng):
        A, b = random_tls(rng)
        tls = TlsProblem(A, b)
        stacked = stacked_ils(A, tls.sigma_tilde * np.eye(3), b, np.zeros(3))
        np.testing.assert_array_equal(tls.x, stacked.solution.x)
        np.testing.assert_array_equal(tls.r, stacked.solution.r[:10])
        np.testing.assert_allclose(tls.r, b - A @ tls.x, rtol=0, atol=1e-13 * np.linalg.norm(b))
        F = tls.factor.chol.T
        expected = A.T @ A - tls.sigma_tilde**2 * np.eye(3)
        np.testing.assert_allclose(F.T @ F, expected, rtol=0, atol=1e-13 * np.abs(expected).max())

    def test_no_svd_of_more_than_n_plus_one_rows(self, rng, monkeypatch):
        # sigma_tilde comes from the (n + 1) x (n + 1) triangle of one QR of
        # [A, b], and sigma_n from the n x n factor
        m, n = 40, 6
        A, b = random_tls(rng, m, n)
        expected = np.linalg.svd(np.column_stack([A, b]), compute_uv=False)[-1]
        shapes = []
        original = np.linalg.svd

        def recorded(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        tls = TlsProblem(A, b)
        assert tls.sigma_n > tls.sigma_tilde
        assert shapes and max(shape[0] for shape in shapes) <= n + 1
        assert tls.sigma_tilde == pytest.approx(expected, rel=1e-12)

    def test_keeps_no_stacked_copy(self, rng):
        # what a TlsProblem keeps is about its n x n factor; the (m + n) x n
        # stacked copy of A alone would exceed the bound
        m, n = 200, 100
        A, b = random_tls(rng, m, n)
        TlsProblem(A, b)  # one-time allocations of the first call are not counted
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tls = TlsProblem(A, b)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert tls.n == n
        assert kept < 8 * (n**2 + 4 * (m + n))

    def test_failed_certificate_is_not_generic(self, rng):
        # a zero column makes sigma_tilde = sigma_n(A) = 0, so Mt is singular
        A = rng.standard_normal((10, 3))
        A[:, 1] = 0.0
        with pytest.raises(TlsNotGeneric, match="lost definiteness") as info:
            TlsProblem(A, rng.standard_normal(10))
        assert isinstance(info.value.__cause__, NotPositiveDefinite)

    def test_ill_conditioned_instance_warns(self, rng):
        A, b = ill_conditioned_tls(rng)
        with pytest.warns(IllConditionedWarning):
            tls = TlsProblem(A, b)
        assert tls.ill_conditioned

    def test_ill_conditioned_warning_names_the_caller(self, rng):
        A, b = ill_conditioned_tls(rng)
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            TlsProblem(A, b)
        flagged = [w for w in log if issubclass(w.category, IllConditionedWarning)]
        assert len(flagged) == 1
        assert flagged[0].filename == __file__


class TestBoundaryValidation:
    """TlsProblem and the stacked IlsProblem reject bad data by argument name."""

    def test_nan_in_a_rejected(self, rng):
        A, b = random_tls(rng)
        A[1, 2] = np.nan
        with pytest.raises(ValueError, match="A has non-finite entries"):
            TlsProblem(A, b)

    def test_complex_b_rejected(self, rng):
        A, b = random_tls(rng)
        with pytest.raises(ValueError, match="b must be real"):
            TlsProblem(A, b.astype(complex))

    def test_stacked_complex_lower_block_rejected(self, rng):
        A, b = random_tls(rng, m=9, n=3)
        with pytest.raises(ValueError, match="A must be real"):
            stacked_ils(A, 0.1j * np.eye(3), b, np.zeros(3))

    def test_stacked_inf_in_d_rejected(self, rng):
        A, b = random_tls(rng, m=9, n=3)
        with pytest.raises(ValueError, match="b has non-finite entries"):
            stacked_ils(A, 0.1 * np.eye(3), b, np.array([0.0, np.inf, 0.0]))


class TestKappa2Tls:
    def test_matches_composed_blocks_path(self, rng):
        for _ in range(10):
            A, b = random_tls(rng, m=9, n=3)
            tls = TlsProblem(A, b)
            stacked = stacked_ils(A, tls.sigma_tilde * np.eye(3), b, np.zeros(3))
            sol = stacked.solution
            np.testing.assert_allclose(sol.x, tls.x, rtol=1e-10)
            np.testing.assert_allclose(sol.r[9:], -tls.sigma_tilde * tls.x,
                                       rtol=1e-9, atol=1e-12)
            params = CondParams(psi=1.1, beta=0.9, xi=1.3)
            a = kappa_2tls(tls, params)
            c = kappa_composed_ils(stacked, tls_blocks(tls), params, 2, 2)
            assert rel_err(a, c) <= 1e-9

    def test_matches_dense_kronecker_oracle(self, rng):
        A, b = random_tls(rng, m=8, n=3)
        tls = TlsProblem(A, b)
        expected = np.linalg.norm(dense_tls_map(tls), 2)
        assert rel_err(kappa_2tls(tls), expected) <= 1e-10

    def test_weighted_partial_matches_dense_kronecker_oracle(self, rng):
        for _ in range(5):
            A, b = random_tls(rng, m=11, n=4)
            tls = TlsProblem(A, b)
            L = rng.standard_normal((4, 2))
            psi, beta, xi = 1.2, 0.7, 1.5
            mat = dense_tls_map(tls, L)
            mat[:, : 11 * 4] *= psi
            mat[:, 11 * 4 :] *= beta
            expected = np.linalg.norm(mat, 2) / xi
            got = kappa_2tls(tls, CondParams(L=L, psi=psi, beta=beta, xi=xi))
            assert rel_err(got, expected) <= 1e-12

    def test_ill_conditioned_matches_materialised_map(self, rng):
        # cond(A) = 1e5 gives cond(Mt) ~ 1e10, so an oracle built from the
        # inverse of the formed Mt carries an error of eps * 1e10; the dense
        # map from the same generators isolates the Gram kernel's own error.
        m, n = 30, 6
        Q, _ = np.linalg.qr(rng.standard_normal((m, n)))
        W, _ = np.linalg.qr(rng.standard_normal((n, n)))
        s = np.logspace(0, -5, n)
        A = (Q * s) @ W.T
        b = A @ rng.standard_normal(n) + 1e-3 * s[-1] * rng.standard_normal(m)
        tls = TlsProblem(A, b)
        for L in (None, rng.standard_normal((n, 3))):
            expected = np.linalg.norm(tls.jacobian(L).dense(), 2)
            assert rel_err(kappa_2tls(tls, CondParams(L=L)), expected) <= 1e-12

    def test_does_not_materialise_the_map(self, rng, monkeypatch):
        A, b = random_tls(rng, m=10, n=3)
        tls = TlsProblem(A, b)
        params = CondParams(L=rng.standard_normal((3, 2)), psi=1.1, beta=0.9, xi=1.3)
        before = [kappa_2tls(tls), kappa_2tls(tls, params)]
        monkeypatch.setattr(ilscond.exact, "DENSE_ENTRY_GUARD", 10)
        assert [kappa_2tls(tls), kappa_2tls(tls, params)] == before

    def test_continuity_toward_consistency(self, rng):
        A = rng.standard_normal((10, 3))
        x = rng.standard_normal(3)
        w = rng.standard_normal(10)
        w /= np.linalg.norm(w)
        vals = []
        for eps in (1e-4, 1e-6, 1e-8):
            tls = TlsProblem(A, A @ x + eps * w)
            vals.append(kappa_2tls(tls))
        assert rel_err(vals[1], vals[2]) <= 1e-3

    def test_left_orthogonal_invariance(self, rng):
        A, b = random_tls(rng, m=9, n=4)
        Q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
        t1 = TlsProblem(A, b)
        t2 = TlsProblem(Q @ A, Q @ b)
        params = CondParams(psi=1.2, beta=0.7, xi=2.0)
        assert rel_err(kappa_2tls(t1, params), kappa_2tls(t2, params)) <= 1e-9

    def test_perturbation_consistency(self, rng):
        A, b = random_tls(rng, m=10, n=3)
        tls = TlsProblem(A, b)
        kappa = kappa_2tls(tls)
        h = 1e-7
        dense = dense_tls_map(tls)
        _, _, vt = np.linalg.svd(dense, full_matrices=False)
        best = 0.0
        dirs = [vt[0]] + [rng.standard_normal(dense.shape[1]) for _ in range(200)]
        for z in dirs:
            z = z / np.linalg.norm(z)
            dA = h * z[: 10 * 3].reshape((10, 3), order="F")
            db = h * z[10 * 3 :]
            pert = TlsProblem(A + dA, b + db)
            resp = np.linalg.norm(pert.x - tls.x) / h
            assert resp <= kappa * (1.0 + 1e-3)
            best = max(best, resp)
        assert best >= 0.5 * kappa


class TestComposed:
    def test_zero_blocks_reduce_to_fixed_stack(self, rng):
        # with no dependence of (B, d) on the data, the composed map is the
        # plain indefinite map of the stacked problem restricted to (dA, db)
        A = rng.standard_normal((8, 3))
        B = 0.4 * rng.standard_normal((2, 3))
        b = rng.standard_normal(8)
        d = rng.standard_normal(2)
        stacked = stacked_ils(A, B, b, d)
        blocks = ComposedBlocks.zero(8, 3, 2)
        params = CondParams()
        got = kappa_composed_ils(stacked, blocks, params, 2, 2)
        full_map = stacked.jacobian().dense()
        # columns of the stacked map touching (dA, db) only
        m, n, s = 8, 3, 2
        keep_a = [j * (m + s) + i for j in range(n) for i in range(m)]
        keep_b = [(m + s) * n + i for i in range(m)]
        expected = np.linalg.norm(full_map[:, keep_a + keep_b], 2)
        assert rel_err(got, expected) <= 1e-10

    def test_empty_stack_is_least_squares(self, rng):
        A = rng.standard_normal((9, 4))
        b = rng.standard_normal(9)
        stacked = stacked_ils(A, np.zeros((0, 4)), b, np.zeros(0))
        blocks = ComposedBlocks.zero(9, 4, 0)
        prob = IlsProblem(A, b, SignatureSplit(9, 0))
        params = CondParams()
        assert rel_err(
            kappa_composed_ils(stacked, blocks, params, 2, 2),
            kappa_unified(prob, params, 2, 2),
        ) <= 1e-10

    def test_blocks_match_singular_value_derivative(self, rng):
        # vec(dB) = M1 vec(dA) + M2 db predicts the change of sigma*I; check
        # it against finite differences of the smallest singular value
        A, b = random_tls(rng, m=9, n=3)
        tls = TlsProblem(A, b)
        blocks = tls_blocks(tls)
        dA = rng.standard_normal((9, 3))
        db = rng.standard_normal(9)
        predicted = blocks.M1 @ vec(dA) + blocks.M2 @ db
        dsigma_pred = predicted[0]  # vec(dsigma * I) carries dsigma on the diagonal
        t = 1e-6
        s1 = np.linalg.svd(np.column_stack([A + t * dA, b + t * db]),
                           compute_uv=False)[-1]
        dsigma_fd = (s1 - tls.sigma_tilde) / t
        assert dsigma_fd == pytest.approx(dsigma_pred, rel=1e-4)

    def test_blocks_guard_consistent_system(self, rng):
        A = rng.standard_normal((8, 3))
        x = rng.standard_normal(3)
        tls = TlsProblem(A, A @ x + 1e-15 * rng.standard_normal(8))
        with pytest.raises(TlsNotGeneric):
            tls_blocks(tls)

    def test_block_shapes_validated(self, rng):
        A = rng.standard_normal((8, 3))
        b = rng.standard_normal(8)
        stacked = stacked_ils(A, 0.3 * np.eye(3), b, np.zeros(3))
        bad = ComposedBlocks.zero(8, 3, 2)
        with pytest.raises(ValueError):
            kappa_composed_ils(stacked, bad)


class TestKappaInfTls:
    def test_matches_dense_oracle(self, rng):
        A, b = random_tls(rng, m=8, n=3)
        tls = TlsProblem(A, b)
        dense = np.abs(dense_tls_map(tls))
        num = dense @ np.abs(np.concatenate([vec(A), b]))
        exp_m = num.max() / np.abs(tls.x).max()
        exp_c = np.max(np.abs(entrywise_div(num, np.abs(tls.x))))
        assert rel_err(kappa_mixed_tls(tls), exp_m) <= 1e-12
        assert rel_err(kappa_componentwise_tls(tls), exp_c) <= 1e-12

    def test_degree_zero_homogeneity(self, rng):
        A, b = random_tls(rng, m=9, n=3)
        t1 = TlsProblem(A, b)
        t2 = TlsProblem(3.0 * A, 3.0 * b)
        assert rel_err(kappa_mixed_tls(t1), kappa_mixed_tls(t2)) <= 1e-10
        assert rel_err(
            kappa_componentwise_tls(t1), kappa_componentwise_tls(t2)
        ) <= 1e-10

    def test_rows_agree_with_jacobian_dense(self, rng):
        A, b = random_tls(rng, m=7, n=3)
        tls = TlsProblem(A, b)
        jac = tls.jacobian()
        np.testing.assert_allclose(jac.dense(), dense_tls_map(tls), rtol=1e-10,
                                   atol=1e-12)


class TestStructuredTls:
    def _toeplitz_tls(self, rng, m=12, n=5):
        basis = make_basis("toeplitz", m, n)
        for _ in range(50):
            A = basis.embed(rng.standard_normal(basis.k))
            x = rng.standard_normal(n)
            b = A @ x + 0.3 * rng.standard_normal(m)
            try:
                return TlsProblem(A, b), StructuredParams(basis, make_basis("full", m))
            except TlsNotGeneric:
                continue
        raise RuntimeError("no generic structured instance found")

    def test_full_reduction(self, rng):
        A, b = random_tls(rng, m=8, n=3)
        tls = TlsProblem(A, b)
        sparams = StructuredParams(make_basis("full", 8, 3), make_basis("full", 8))
        report = ConditionReport(tls, CondParams(), sparams)
        assert rel_err(report.structured_2, kappa_2tls(tls)) <= 1e-12
        assert rel_err(report.structured_mixed, kappa_mixed_tls(tls)) <= 1e-12
        assert rel_err(
            report.structured_componentwise, kappa_componentwise_tls(tls)
        ) <= 1e-12

    def test_structured_never_exceeds_unstructured(self, rng):
        for _ in range(5):
            tls, sparams = self._toeplitz_tls(rng)
            report = ConditionReport(tls, CondParams(), sparams)
            assert report.structured_2 <= kappa_2tls(tls) * (1 + 1e-12)
            assert report.structured_mixed <= kappa_mixed_tls(tls) * (1 + 1e-12)
            assert report.structured_componentwise <= kappa_componentwise_tls(
                tls
            ) * (1 + 1e-12)

    def test_matches_dense_oracle(self, rng):
        tls, sparams = self._toeplitz_tls(rng, m=8, n=4)
        params = CondParams()
        mg = dense_tls_map(tls)
        mn = tls.m * tls.n
        GA = mg[:, :mn] @ sparams.basisA.dense()
        GB = mg[:, mn:] @ sparams.basisB.dense()
        exp_two = np.linalg.norm(
            np.hstack([GA / sparams.basisA.d, GB / sparams.basisB.d]), 2
        )
        report = ConditionReport(tls, params, sparams)
        assert rel_err(report.structured_2, exp_two) <= 1e-10
        s1 = sparams.basisA.extract(tls.A)
        num = np.abs(GA) @ np.abs(s1) + np.abs(GB) @ np.abs(tls.b)
        exp_m = num.max() / np.abs(tls.x).max()
        assert rel_err(report.structured_mixed, exp_m) <= 1e-10
