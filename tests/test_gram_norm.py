"""Every spectral norm from one k x k Gram reduction, one factored form S per
Jacobian, and one map per (problem, L) shared by the 2-norm path, the
unified form, the report and the estimators."""

import gc
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

from ilscond import (
    CondParams,
    ConditionReport,
    IlsProblem,
    NotPositiveDefinite,
    SignatureSplit,
    SsceConfig,
    TlsNotGeneric,
    TlsProblem,
    estimate_kappa2_pce,
    estimate_kappa_inf_ssce,
    kappa_2ils,
    kappa_2tls,
    kappa_componentwise,
    kappa_mixed,
    kappa_mixed_tls,
    kappa_unified,
)
from ilscond.bench import _run_trial, gen_example1, gen_example3, table1_config
from ilscond.exact import JacobianMg
from ilscond.ils import SpdFactor
from ilscond.kron import ddagger

from conftest import dense_mg_oracle, random_ils
from test_report import _toeplitz_tls

SEEDS = st.integers(0, 2**32 - 1)
WEIGHTS = st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0))  # (psi, beta)


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def svd_kappa2(problem, params):
    """The SVD route: the 2-norm of the dense factored map, over xi."""
    psi, beta, xi = params.scalars()
    return np.linalg.norm(problem.jacobian(params.L).factored(psi, beta), 2) / xi


def structured_f(report):
    """The k x (k1 + k2) matrix F whose spectral norm over xi is structured_2."""
    psi, beta, _ = report.params.scalars()
    return np.hstack([psi * report.structured_cols / report.sparams.basisA.d,
                      beta * report.jac.V.T])


class TestKappa2ilsAgainstSvd:
    @pytest.mark.parametrize("l", [0, 3])
    @pytest.mark.parametrize("rho", [1e-4, 1.0, 1e4])
    def test_example1(self, l, rho):
        prob, _, _ = gen_example1(40, 24, 30, l, rho, seed=11)
        params = CondParams()
        assert rel_err(kappa_2ils(prob, params), svd_kappa2(prob, params)) <= 1e-13

    def test_zero_residual(self, rng):
        # b = 0 gives x = 0 and r = 0 exactly: the r = 0 branch of the map
        A = rng.standard_normal((14, 5))
        A[10:] *= 0.3
        prob = IlsProblem(A, np.zeros(14), SignatureSplit(10, 4))
        assert not np.any(prob.solution.r)
        params = CondParams(beta=1.7)
        assert rel_err(kappa_2ils(prob, params), svd_kappa2(prob, params)) <= 1e-13

    def test_partial_l_scalar_weights(self, rng):
        prob = random_ils(rng, m=20, n=8)
        params = CondParams(L=rng.standard_normal((8, 3)), psi=0.7, beta=2.5, xi=1.3)
        assert rel_err(kappa_2ils(prob, params), svd_kappa2(prob, params)) <= 1e-13


def _factored_case(kind, rng):
    """A Jacobian of each kind the factored form must serve."""
    if kind == "ils":
        return random_ils(rng, m=14, n=5).jacobian()
    if kind == "zero_residual":
        # b = 0 gives x = 0 and r = 0 exactly: the w = 0 branch of the form
        A = rng.standard_normal((14, 5))
        A[10:] *= 0.3
        prob = IlsProblem(A, np.zeros(14), SignatureSplit(10, 4))
        assert not np.any(prob.solution.r)
        return prob.jacobian()
    if kind == "tls":
        return _toeplitz_tls(rng)[0].jacobian()
    prob = random_ils(rng, m=14, n=5)
    return prob.jacobian(rng.standard_normal((5, 2)))


@pytest.mark.parametrize("kind", ["ils", "zero_residual", "tls", "partial_l"])
def test_factored_gram_equals_weighted_gram(kind, rng):
    # S S^T of the k x (2m + n) form is the Gram matrix of the weighted map
    jac = _factored_case(kind, rng)
    psi, beta = 1.2, 0.8
    S = jac.factored(psi, beta)
    G = jac.weighted_gram(np.full((jac.m, jac.n), psi), np.full(jac.m, beta), np.ones(jac.k))
    assert S.shape == (jac.k, 2 * jac.m + jac.n)
    assert np.linalg.norm(S @ S.T - G) <= 1e-12 * np.linalg.norm(G)


def test_unit_weight_factored_is_shared_and_read_only(rng):
    jac = _factored_case("ils", rng)
    S = jac.factored(1, 1)
    assert jac.factored(1.0, 1.0) is S and not S.flags.writeable
    np.testing.assert_array_equal(S, jac._form_unit_factored())
    scale = np.repeat([1.2, 0.8, 1.2], [jac.n, jac.m, jac.m])
    np.testing.assert_array_equal(jac.factored(1.2, 0.8), S * scale)


class TestStructured2AgainstSvd:
    def test_example3(self, rng):
        prob, sparams, _, _ = gen_example3(10, 1.0, rng)
        report = ConditionReport(prob, CondParams(psi=0.6, beta=1.4, xi=2.0), sparams)
        expected = np.linalg.norm(structured_f(report), 2) / 2.0
        assert rel_err(report.structured_2, expected) <= 1e-13

    def test_toeplitz_tls(self, rng):
        tls, sparams = _toeplitz_tls(rng)
        report = ConditionReport(tls, CondParams(), sparams)
        expected = np.linalg.norm(structured_f(report), 2)
        assert rel_err(report.structured_2, expected) <= 1e-13


def test_spectral_norms_take_no_svd(rng, monkeypatch):
    prob, sparams, _, _ = gen_example3(8, 1.0, rng)
    tls, _ = _toeplitz_tls(rng)
    report = ConditionReport(prob, CondParams(), sparams)

    def no_svd(*args, **kwargs):
        raise AssertionError("spectral norm taken by an SVD")

    norm = np.linalg.norm

    def no_matrix_2norm(a, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(a) == 2:
            no_svd()
        return norm(a, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", no_matrix_2norm)
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(scipy.linalg, "svd", no_svd)
    monkeypatch.setattr(scipy.linalg, "svdvals", no_svd)
    values = [kappa_2ils(prob), report.structured_2, kappa_unified(prob, CondParams()),
              kappa_2tls(tls)]
    assert all(np.isfinite(v) and v > 0 for v in values)


def _count_builds(monkeypatch, cls):
    """Record the L of every map cls._build_jacobian builds."""
    calls = []
    original = cls._build_jacobian

    def counted(problem, L):
        calls.append(L)
        return original(problem, L)

    monkeypatch.setattr(cls, "_build_jacobian", counted)
    return calls


def test_ex1_trial_builds_one_jacobian(rng, monkeypatch):
    # kappa_2ils and the PCE share the identity-L map and its factored form S;
    # the small-sample estimate solves with its k directions only
    calls = _count_builds(monkeypatch, IlsProblem)
    forms = []
    form = JacobianMg._form_unit_factored

    def counted_form(self):
        forms.append(self)
        return form(self)

    monkeypatch.setattr(JacobianMg, "_form_unit_factored", counted_form)
    widths = []
    original = SpdFactor.solve

    def counted_solve(self, V):
        widths.append(np.shape(V)[1] if np.ndim(V) == 2 else 1)
        return original(self, V)

    monkeypatch.setattr(SpdFactor, "solve", counted_solve)
    config = table1_config(trials=1)
    values = _run_trial(config, 3, 1.0, rng)
    assert np.isfinite(values["r_p"]) and np.isfinite(values["r_s"])
    assert calls == [None]
    assert len(forms) == 1
    assert widths.count(config.n) == 1


def test_kappa_unified_shares_identity_jacobian(rng, monkeypatch):
    calls = _count_builds(monkeypatch, IlsProblem)
    prob = random_ils(rng, m=16, n=6)
    ConditionReport(prob).mixed
    kappa_unified(prob, CondParams(), np.inf, np.inf)
    kappa_unified(prob, CondParams())
    assert calls == [None]
    L = rng.standard_normal((6, 2))
    kappa_unified(prob, CondParams(L=L))  # an explicit L builds its own map
    assert len(calls) == 2 and calls[1] is not None


def test_tls_flavours_share_identity_jacobian(rng, monkeypatch):
    calls = _count_builds(monkeypatch, TlsProblem)
    tls, _ = _toeplitz_tls(rng)
    ConditionReport(tls).mixed
    kappa_2tls(tls)
    kappa_unified(tls, CondParams())
    assert calls == [None]


def _counted(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call; returns the record."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_explicit_l_report_sequence_builds_one_map_per_problem(rng, monkeypatch):
    # the library-caller sequence of one partial report: every ILS flavour and
    # estimator shares one map for the explicit L, and both TLS flavours another
    ils_builds = _count_builds(monkeypatch, IlsProblem)
    tls_builds = _count_builds(monkeypatch, TlsProblem)
    prob, _, _ = gen_example1(40, 20, 26, 2, 1.0, rng)
    tls = TlsProblem(prob.A, prob.b)
    L, _ = np.linalg.qr(rng.standard_normal((20, 4)))
    params = CondParams(L=L)
    kappa_2ils(prob, params)
    kappa_mixed(prob, params)
    kappa_componentwise(prob, params)
    kappa_unified(prob, params, 2, 2)
    kappa_unified(prob, params, np.inf, np.inf)
    estimate_kappa2_pce(prob, params, seed=1)
    estimate_kappa_inf_ssce(prob, params, SsceConfig(k=3, seed=2))
    kappa_2tls(tls, params)
    kappa_mixed_tls(tls, params)
    assert (len(ils_builds), len(tls_builds)) == (1, 1)


@pytest.mark.parametrize("kind", ["ils", "tls"])
def test_scalar_weight_unified_reads_factored_form(kind, rng, monkeypatch):
    grams = _counted(monkeypatch, JacobianMg, "weighted_gram")
    prob = random_ils(rng, m=16, n=6) if kind == "ils" else _toeplitz_tls(rng)[0]
    for params in (CondParams(), CondParams(L=rng.standard_normal((prob.n, 3)), psi=1.3,
                                            beta=0.7, xi=np.array([2.0, 0.0, 0.5]))):
        got = kappa_unified(prob, params, 2, 2)
        jac = prob.jacobian(params.L)
        Wa, wb = params.weights("psi", (prob.m, prob.n)), params.weights("beta", (prob.m,))
        G = jac.weighted_gram(Wa, wb, ddagger(params.weights("xi", (jac.k,))))
        expected = np.sqrt(np.linalg.eigvalsh(G)[-1])
        assert rel_err(got, expected) <= 1e-12
    assert len(grams) == 2  # the two reference values above, none from kappa_unified
    kappa_unified(prob, CondParams(psi=np.full((prob.m, prob.n), 1.3)), 2, 2)
    assert len(grams) == 3  # elementwise weights keep the weighted Gram route


def test_jacobian_cache_holds_two_maps(rng):
    prob = random_ils(rng, m=16, n=6)
    identity = prob.jacobian()
    L1, L2 = rng.standard_normal((6, 2)), rng.standard_normal((6, 3))
    first = prob.jacobian(L1)
    assert prob.jacobian(L1.copy()) is first  # keyed on the values, not the array
    first = weakref.ref(first)
    second = prob.jacobian(L2)
    gc.collect()
    assert first() is None  # the previous explicit-L map was dropped
    assert prob.jacobian(L2) is second
    assert prob.jacobian() is identity


@pytest.mark.parametrize("kind", ["ils", "tls"])
def test_l_changed_in_place_gets_a_fresh_map(kind, rng):
    prob = random_ils(rng, m=16, n=6) if kind == "ils" else _toeplitz_tls(rng)[0]
    L = rng.standard_normal((prob.n, 2))
    params = CondParams(L=L)
    before = kappa_2ils(prob, params)
    L[:, 0] *= 3.0
    after = kappa_2ils(prob, params)
    if kind == "ils":
        fresh = IlsProblem(prob.A, prob.b, prob.split)
    else:
        fresh = TlsProblem(prob.A, prob.b)
    assert after == kappa_2ils(fresh, CondParams(L=L.copy()))
    assert rel_err(after, before) > 1e-3


@given(SEEDS, st.floats(0.0, 4.0))
def test_tls_left_orthogonal_invariance(seed, t):
    # Q [A, b] keeps the singular values and x, so kappa_2tls(QA, Qb) equals
    # kappa_2tls(A, b) up to rounding.  The generators come from the QR of
    # [A, b] and the stacked problem on [R_A; sigma I], whose errors grow with
    # cond(A), not with cond(Mt) = cond(A^T A - sigma^2 I).
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    m = int(rng.integers(n + 2, 20))
    Q0, _ = np.linalg.qr(rng.standard_normal((m, n)))
    W, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (Q0 * np.logspace(0, -t, n)) @ W.T
    b = A @ rng.standard_normal(n) + 1e-2 * 10.0**-t * rng.standard_normal(m)
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    params = CondParams(psi=1.2, beta=0.8)
    try:
        tls = TlsProblem(A, b)
        before = kappa_2tls(tls, params)
        after = kappa_2tls(TlsProblem(Q @ A, Q @ b), params)
    except TlsNotGeneric:
        assume(False)
    tol = 100 * n * np.finfo(float).eps * np.linalg.cond(A)
    assert rel_err(before, after) <= tol


@given(SEEDS, WEIGHTS)
def test_identity_signature_matches_svd_oracle(seed, w):
    # J = I: ordinary least squares, where the SVD of the weighted Kronecker
    # map is an independent oracle for the Gram route
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    m = int(rng.integers(n + 1, 20))
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    params = CondParams(psi=w[0], beta=w[1], xi=1.5)
    prob = IlsProblem(A, b, SignatureSplit(m, 0))
    weights = np.repeat(w, [m * n, m])
    expected = np.linalg.norm(dense_mg_oracle(prob) * weights, 2) / 1.5
    assert rel_err(kappa_2ils(prob, params), expected) <= 1e-9


@given(SEEDS, WEIGHTS, st.floats(1e-3, 1e3))
def test_scaling_data_and_weights_leaves_kappa2_unchanged(seed, w, c):
    # x is unchanged, r scales by c and M^{-1} by 1/c^2, so weights scaled by
    # c give the same kappa_2ils
    prob = random_ils(np.random.default_rng(seed))
    psi, beta = w
    try:
        scaled = IlsProblem(c * prob.A, c * prob.b, prob.split)
    except NotPositiveDefinite:
        assume(False)
    before = kappa_2ils(prob, CondParams(psi=psi, beta=beta))
    after = kappa_2ils(scaled, CondParams(psi=c * psi, beta=c * beta))
    assert rel_err(before, after) <= 1e-9
