"""Property tests of the flat-entry structure bases and the structured columns.

Every kind is drawn at random shapes up to 12 x 12; the example count and
the deadline come from the hypothesis profile selected in conftest.py.  The
structured values are also checked to be free of the data's scale.
"""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from ilscond import (
    CondParams,
    ConditionReport,
    IlsProblem,
    NotPositiveDefinite,
    SignatureSplit,
    StructuredParams,
    TlsNotGeneric,
    TlsProblem,
    kappa_2ils,
    make_basis,
)
from ilscond.bench import gen_example3
from ilscond.exact import JacobianMg
from ilscond.kron import vec
from ilscond.structured import MATRIX_KINDS

from conftest import dense_basis, dense_generator_map

SEEDS = st.integers(0, 2**32 - 1)
POWERS = st.integers(-60, 60)


@st.composite
def bases(draw, max_dim=12):
    """A matrix structure basis of any kind."""
    kind = draw(st.sampled_from(MATRIX_KINDS))
    n = draw(st.integers(1, max_dim))
    if kind == "symmetric":
        return make_basis(kind, n, n)
    if kind == "stacked_scaled":
        base_kind = draw(st.sampled_from(("toeplitz", "hankel", "symmetric", "full")))
        mb = n if base_kind == "symmetric" else draw(st.integers(1, max_dim // 2))
        scale = draw(st.sampled_from((0.5, -2.0, 3.0)))
        return make_basis(kind, 2 * mb, n, base_kind=base_kind, scale=scale)
    return make_basis(kind, draw(st.integers(1, max_dim)), n)


def _blkdiag_reference(jac, basis_a):
    """Dense product Mg_A Phi_A, |Mg_A| |Phi_A|, and the sums of the absolute
    terms w_i U[c] and x_c V[i] that the product rounds."""
    mn = jac.m * jac.n
    mg = dense_generator_map(jac)[:, :mn]
    phi = dense_basis(basis_a)
    terms = dense_generator_map(JacobianMg(np.abs(jac.w), np.abs(jac.U), -np.abs(jac.V),
                                           np.abs(jac.x), jac.A, jac.b))[:, :mn]
    return mg @ phi, np.abs(mg) @ np.abs(phi), terms @ np.abs(phi)


@given(bases())
def test_entries_sorted_and_gram_diagonal(basis):
    assert np.all(np.diff(basis.param) >= 0)
    assert basis.param.size == basis.index.size == basis.value.size
    assert np.array_equal(np.unique(basis.param), np.arange(basis.k))
    phi = dense_basis(basis)
    gram = phi.T @ phi
    assert np.count_nonzero(gram - np.diag(np.diag(gram))) == 0
    np.testing.assert_allclose(np.diag(gram), basis.d**2, rtol=1e-15)


@given(bases(), SEEDS)
def test_extract_inverts_embed(basis, seed):
    s = np.random.default_rng(seed).standard_normal(basis.k)
    data = basis.embed(s)
    assert data.shape == basis.shape
    np.testing.assert_array_equal(vec(data), dense_basis(basis) @ s)
    np.testing.assert_allclose(basis.extract(data), s, rtol=1e-14, atol=1e-15)


@given(bases(), SEEDS, st.integers(1, 6))
def test_structured_cols_match_dense_product(basis_a, seed, k):
    m, n = basis_a.shape
    rng = np.random.default_rng(seed)
    jac = JacobianMg(rng.standard_normal(m), rng.standard_normal((n, k)),
                     rng.standard_normal((m, k)), rng.standard_normal(n),
                     np.zeros((m, n)), np.zeros(m))
    GA = jac.structured_cols(basis_a)
    refA, boundA, termsA = _blkdiag_reference(jac, basis_a)
    assert GA.shape == (k, basis_a.k)
    assert np.all(np.abs(GA - refA) <= 1e-13 * boundA)
    # |Mg_A| cancels inside its entries where the sums do not, so the
    # rounding is bounded by the terms: within 2 eps over 60,000 draws
    assert np.all(np.abs(GA - refA) <= 10 * np.finfo(float).eps * termsA)


@given(bases(max_dim=8), SEEDS, st.floats(0.25, 4.0), st.floats(0.25, 4.0))
def test_structured_never_exceeds_unstructured(basis_a, seed, psi, beta):
    assume(basis_a.shape[0] >= basis_a.shape[1])
    m, n = basis_a.shape
    rng = np.random.default_rng(seed)
    A = basis_a.embed(rng.standard_normal(basis_a.k))
    assume(np.linalg.cond(A) < 1e4)
    q = int(rng.integers(0, (m - n) // 3 + 1))
    try:
        problem = IlsProblem(A, rng.standard_normal(m), SignatureSplit(m - q, q))
    except NotPositiveDefinite:
        assume(False)
    params = CondParams(psi=psi, beta=beta)
    report = ConditionReport(problem, params,
                             StructuredParams(basis_a))
    tol = 1 + 1e-12
    assert report.structured_2 <= kappa_2ils(problem, params) * tol
    assert report.structured_mixed <= report.mixed * tol
    assert report.structured_componentwise <= report.componentwise * tol



def _assert_scale_free(problem, scaled, sparams, s):
    """Structured values of problem and of its data scaled by s: 1/s times the
    2-norm value, the same mixed and componentwise values."""
    tol = 10 * problem.n * np.finfo(float).eps * np.linalg.cond(problem.A)
    rep, rep_s = (ConditionReport(p, CondParams(), sparams) for p in (problem, scaled))
    for got, want in [(s * rep_s.structured_2, rep.structured_2),
                      (rep_s.structured_mixed, rep.structured_mixed),
                      (rep_s.structured_componentwise, rep.structured_componentwise)]:
        assert abs(got - want) <= tol * abs(want)


@given(POWERS, SEEDS, st.integers(2, 8), st.sampled_from((1e-4, 1.0, 1e4)))
def test_structured_ils_values_scale_free(power, seed, n, rho):
    try:
        problem, sparams, _, _ = gen_example3(n, rho, seed)
    except NotPositiveDefinite:
        assume(False)
    s = 2.0**power
    scaled = IlsProblem(s * problem.A, s * problem.b, SignatureSplit(n, n))
    _assert_scale_free(problem, scaled, sparams, s)


@given(POWERS, SEEDS)
def test_structured_tls_values_scale_free(power, seed):
    rng = np.random.default_rng(seed)
    basis = make_basis("toeplitz", 9, 4)
    A = basis.embed(rng.standard_normal(basis.k))
    b = A @ rng.standard_normal(4) + 0.3 * rng.standard_normal(9)
    s = 2.0**power
    try:
        problem, scaled = TlsProblem(A, b), TlsProblem(s * A, s * b)
    except TlsNotGeneric:
        assume(False)
    _assert_scale_free(problem, scaled, StructuredParams(basis), s)
