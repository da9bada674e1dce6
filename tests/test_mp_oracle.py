"""Condition numbers against 50-digit mpmath references (tests/mp_oracle.py).

The ILS cells check kappa_2, mixed and componentwise values, at residual
norm rho = 1 and, on ex2, at the small residual rho = 1e-4; the TLS cells
check kappa_2tls, and the TLS map cells check the first-order map entry by
entry against 50-digit central differences of the TLS solution, with the
kappa_2, mixed and componentwise values read from it.

Each value must agree with its reference to c n eps cond(A) relative, with
c = 10 fixed before any error was measured.  A componentwise value divides
by |x_i|, whose relative error is the normwise error of x times
||x||_inf / |x_i|, so its tolerance carries that factor; the plain form held
for it at every 20 x 8 instance and at desk n^6, but not at desk kappa = 1e8
(1.7e-4 and 6.9e-5 against 5.6e-6).

The comment beside each instance gives the measured relative errors of
(kappa_2, mixed, componentwise) on a 2-core x86-64 host with OpenBLAS
0.3.31, then the plain tolerance.  The desk-size cells take 1-2 s of
mpmath each and run with ``-m mpmath_desk``.
"""

import numpy as np
import pytest

from ilscond import (ConditionReport, CondParams, TlsProblem, kappa_2ils, kappa_2tls,
                     kappa_componentwise_tls, kappa_mixed_tls)
from ilscond.bench import gen_example1, gen_example2

from mp_oracle import mp_condition_numbers, mp_tls_kappa2, mp_tls_map

EPS = np.finfo(float).eps
C = 10


def _assert_agrees(problem):
    ref = mp_condition_numbers(problem.A, problem.b, problem.p)
    report = ConditionReport(problem)
    got = (kappa_2ils(problem), report.mixed, report.componentwise)
    tol = C * problem.n * EPS * np.linalg.cond(problem.A)
    x = np.abs(problem.solution.x)
    tols = (tol, tol, tol * x.max() / x.min())
    for name, value, exact, bound in zip(("kappa_2", "mixed", "componentwise"),
                                         got, ref, tols):
        err = abs(value - exact) / exact
        assert err <= bound, f"{name}: relative error {err:.2e} above {bound:.2e}"


@pytest.mark.parametrize("kappa", [
    1e2,   # 2.7e-15 9.8e-15 2.2e-13, tol 1.8e-12
    1e4,   # 1.3e-12 5.6e-12 3.3e-11, tol 1.8e-10
    1e6,   # 7.0e-11 4.5e-10 9.5e-10, tol 1.8e-08
    1e8,   # 1.5e-08 8.7e-08 1.3e-06, tol 1.8e-06
    1e10,  # 9.0e-07 6.8e-06 1.4e-05, tol 1.8e-04
    1e12,  # 2.0e-05 2.6e-04 3.6e-04, tol 1.8e-02
])
def test_example2_small(kappa):
    problem, _, _ = gen_example2(20, 8, 12, kappa, 1.0, 0)
    _assert_agrees(problem)


@pytest.mark.parametrize("kappa", [
    # a small residual: certifying from the QR of all of A missed these
    # tolerances (1e6: 7.4e-07 6.2e-07 1.4e-05; 1e12: 5.4e-02 3.3e-01 4.4e-01)
    1e6,   # 1.3e-12 2.8e-11 2.5e-10, tol 1.8e-08
    1e8,   # 9.0e-10 4.3e-09 5.1e-08, tol 1.8e-06
    1e10,  # 2.0e-07 6.1e-08 2.6e-08, tol 1.8e-04
    1e12,  # 2.6e-06 9.6e-06 1.6e-05, tol 1.8e-02
])
def test_example2_small_residual(kappa):
    problem, _, _ = gen_example2(20, 8, 12, kappa, 1e-4, 0)
    _assert_agrees(problem)


@pytest.mark.parametrize("l", [
    3,   # 3.7e-15 9.3e-14 2.9e-14, tol 9.1e-12
    12,  # 3.7e-08 3.9e-06 4.7e-06, tol 1.2e-03
])
def test_example1_small(l):
    problem, _, _ = gen_example1(20, 8, 12, l, 1.0, 0)
    # the generator leaves the q rows zero, so Q^T J Q = I and F = R
    assert not problem.A[problem.p:].any()
    _assert_agrees(problem)


@pytest.mark.mpmath_desk
@pytest.mark.parametrize("seed", [
    0,  # 1.3e-09 5.9e-08 2.1e-07, tol 1.7e-04
    1,  # 3.1e-09 2.3e-07 3.0e-07, tol 1.7e-04
    2,  # 8.0e-11 5.0e-10 4.0e-09, tol 1.7e-04
])
def test_desk_table1_n6(seed):
    problem, _, _ = gen_example1(60, 36, 42, 6, 1.0, seed)
    _assert_agrees(problem)


@pytest.mark.mpmath_desk
@pytest.mark.parametrize("seed", [
    0,  # 3.8e-07 3.3e-06 1.7e-04, tol 5.6e-06 (componentwise 2.0e-04)
    1,  # 5.6e-08 2.4e-06 6.9e-05, tol 5.6e-06 (componentwise 9.5e-05)
])
def test_desk_table2_kappa_1e8(seed):
    problem, _, _ = gen_example2(60, 25, 35, 1e8, 1.0, seed)
    _assert_agrees(problem)


@pytest.mark.mpmath_desk
def test_desk_table2_kappa_1e8_small_residual():
    # 4.3e-10 3.3e-09 2.4e-07, tol 5.6e-06 (from the QR of all of A:
    # 4.4e-03 3.0e-02 2.9e-01)
    problem, _, _ = gen_example2(60, 25, 35, 1e8, 1e-4, 0)
    _assert_agrees(problem)


def _tls_instance(m, n, kappa):
    """A = Q diag(logspace(0, -log10 kappa, n)) W^T, so cond(A) = kappa, and b
    carries noise well below sigma_n(A), so the instance is generic."""
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((m, n)))
    W, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.logspace(0, -np.log10(kappa), n)
    A = (Q * s) @ W.T
    return A, A @ rng.standard_normal(n) + 1e-2 * s[-1] * rng.standard_normal(m)


@pytest.mark.parametrize("kappa", [
    # measured relative error of kappa_2tls, then the tolerance
    1e2,  # 6.2e-16, tol 1.8e-12
    1e5,  # 5.0e-13, tol 1.8e-09
    1e7,  # 1.5e-11, tol 1.8e-07
])
def test_tls_small(kappa):
    m, n = 40, 8
    A, b = _tls_instance(m, n, kappa)
    exact = mp_tls_kappa2(A, b)
    err = abs(kappa_2tls(TlsProblem(A, b)) - exact) / exact
    bound = C * n * EPS * np.linalg.cond(A)
    assert err <= bound, f"kappa_2tls: relative error {err:.2e} above {bound:.2e}"


def _assert_tls_map_agrees(A, b):
    """The TLS map entrywise, and kappa_2, mixed and componentwise read from it.

    The tolerance is c n eps cond(F) for Mt = F^T F, relative to the largest
    entry for the map, with the componentwise factor ||x||_inf / min |x_i|.
    Each comment gives the measured errors of the map, then of (kappa_2,
    mixed, componentwise), then the tolerance.
    """
    tls = TlsProblem(A, b)
    x, G = mp_tls_map(A, b)
    tol = C * A.shape[1] * EPS * tls.factor.cond
    err = np.abs(tls.jacobian().dense() - G).max() / np.abs(G).max()
    assert err <= tol, f"map: entrywise error {err:.2e} above {tol:.2e}"
    num = np.abs(G) @ np.abs(np.concatenate([A.ravel(order="F"), b]))
    ref = (np.linalg.norm(G, 2), num.max() / np.abs(x).max(), np.max(num / np.abs(x)))
    got = (kappa_2tls(tls), kappa_mixed_tls(tls), kappa_componentwise_tls(tls))
    tols = (tol, tol, tol * np.abs(x).max() / np.abs(x).min())
    for name, value, exact, bound in zip(("kappa_2", "mixed", "componentwise"),
                                         got, ref, tols):
        err = abs(value - exact) / exact
        assert err <= bound, f"{name}: relative error {err:.2e} above {bound:.2e}"
    return tls, G


def test_tls_map_small():
    # map 6.8e-16; 0.0 1.5e-16 2.6e-15; tol 2.5e-14 (componentwise 1.8e-13);
    # the partial weighted kappa_2 below 7.1e-16
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 3))
    b = A @ rng.standard_normal(3) + 0.3 * rng.standard_normal(8)
    tls, G = _assert_tls_map_agrees(A, b)
    L = rng.standard_normal((3, 2))
    psi, beta, xi = 1.2, 0.7, 1.5
    exact = np.linalg.norm(L.T @ G * np.r_[np.full(24, psi), np.full(8, beta)], 2) / xi
    value = kappa_2tls(tls, CondParams(L=L, psi=psi, beta=beta, xi=xi))
    assert abs(value - exact) / exact <= C * 3 * EPS * tls.factor.cond


def test_tls_map_ill_conditioned():
    # cond(A) = 1e4; map 2.9e-12; 9.5e-15 9.7e-14 4.7e-13; tol 8.9e-11
    _assert_tls_map_agrees(*_tls_instance(10, 4, 1e4))


@pytest.mark.mpmath_desk
def test_desk_tls_map_cond_1e6():
    # cond(A) = 1e6, 1.3-1.5 s of mpmath; map 4.7e-11; 9.4e-12 3.0e-11
    # 2.3e-11; tol 1.1e-08 (componentwise 9.7e-08)
    _assert_tls_map_agrees(*_tls_instance(14, 5, 1e6))
