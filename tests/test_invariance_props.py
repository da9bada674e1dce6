"""Property tests of the exact values' invariances under row and column changes.

Permuting rows inside each signature block, or flipping the signs of rows of
(A, b), leaves an ILS problem's x, kappa_2, mixed and componentwise values
unchanged; any row permutation or sign flip does the same for a TLS problem.
Scaling A's columns by a positive diagonal D maps x to D^{-1} x and leaves
the componentwise value unchanged.  Each change is rounding only, so the
tolerance is c n eps kappa_rel, kappa_rel = kappa_2 ||[A, b]||_F / ||x||
the relative normwise condition number of x, with the factor
||x||_inf / min |x_i| for componentwise values.  Neither cond(A) nor the
certified factor's cond(F) bounds it: with a large residual or a small x,
x moves by more than n eps cond(F) under a row permutation alone.
"""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from ilscond import (
    ConditionReport,
    IlsProblem,
    NotPositiveDefinite,
    SignatureSplit,
    TlsNotGeneric,
    TlsProblem,
    kappa_2ils,
)

from conftest import random_ils

EPS = np.finfo(float).eps
C = 10
SEEDS = st.integers(0, 2**32 - 1)
SHAPES = st.integers(2, 6).flatmap(lambda n: st.tuples(st.integers(n + 2, 16), st.just(n)))


def _x(problem):
    return problem.x if isinstance(problem, TlsProblem) else problem.solution.x


def _values(problem):
    report = ConditionReport(problem)
    return _x(problem), kappa_2ils(problem), report.mixed, report.componentwise


def _kappa_rel(problem):
    data = np.column_stack([problem.A, problem.b])
    return kappa_2ils(problem) * np.linalg.norm(data) / np.linalg.norm(_x(problem))


def _assert_same_values(problem, moved):
    """x and the three exact values of moved equal problem's to c n eps kappa_rel."""
    x, *values = _values(problem)
    x_moved, *moved_values = _values(moved)
    tol = C * problem.n * EPS * _kappa_rel(problem)
    assert np.linalg.norm(x_moved - x) <= tol * np.linalg.norm(x)
    tols = (tol, tol, tol * np.abs(x).max() / np.abs(x).min())
    for name, got, want, bound in zip(("kappa_2", "mixed", "componentwise"),
                                      moved_values, values, tols):
        err = abs(got - want) / want
        assert err <= bound, f"{name}: relative change {err:.2e} above {bound:.2e}"


def _signs(rng, m):
    return rng.choice([-1.0, 1.0], size=m)


@given(SEEDS, SHAPES)
def test_ils_values_free_of_row_order_and_sign(seed, shape):
    rng = np.random.default_rng(seed)
    problem = random_ils(rng, *shape)
    p, q = problem.split.p, problem.split.q
    rows = np.concatenate([rng.permutation(p), p + rng.permutation(q)])
    signs = _signs(rng, problem.m)
    moved = IlsProblem(signs[:, None] * problem.A[rows], signs * problem.b[rows],
                       SignatureSplit(p, q))
    _assert_same_values(problem, moved)


@given(SEEDS, SHAPES)
def test_tls_values_free_of_row_order_and_sign(seed, shape):
    rng = np.random.default_rng(seed)
    m, n = shape
    A = rng.standard_normal((m, n))
    b = A @ rng.standard_normal(n) + 0.3 * rng.standard_normal(m)
    rows, signs = rng.permutation(m), _signs(rng, m)
    try:
        problem = TlsProblem(A, b)
        moved = TlsProblem(signs[:, None] * A[rows], signs * b[rows])
    except TlsNotGeneric:
        assume(False)
    _assert_same_values(problem, moved)


@given(SEEDS, SHAPES)
def test_ils_componentwise_free_of_column_scale(seed, shape):
    rng = np.random.default_rng(seed)
    problem = random_ils(rng, *shape)
    d = np.exp(rng.uniform(-3.0, 3.0, problem.n))
    try:
        scaled = IlsProblem(problem.A * d, problem.b, problem.split)
    except NotPositiveDefinite:
        assume(False)
    x = problem.solution.x
    tol = C * problem.n * EPS * max(_kappa_rel(problem), _kappa_rel(scaled))
    assert np.linalg.norm(d * scaled.solution.x - x) <= tol * np.linalg.norm(x)
    want = ConditionReport(problem).componentwise
    err = abs(ConditionReport(scaled).componentwise - want) / want
    assert err <= tol * np.abs(x).max() / np.abs(x).min()
