"""Shared generators and independent oracles for the test suite."""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from ilscond import CondParams, IlsProblem, NotPositiveDefinite, SignatureSplit

# Property tests draw a bounded number of examples with no per-example
# deadline; HYPOTHESIS_PROFILE=ci also fixes the examples drawn, so a CI run
# is reproducible.
settings.register_profile("dev", max_examples=60, deadline=None)
settings.register_profile("ci", max_examples=60, deadline=None, derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


def random_ils(rng, m=None, n=None, damp=0.35, rho=None):
    """A well-scaled random ILS instance (retries until positive definite).

    Scaling the negative-signature rows by damp < 1 keeps A^T J A positive
    definite for most draws; shapes are redrawn between attempts.
    """
    for _ in range(200):
        nn = int(rng.integers(2, 13)) if n is None else n
        mm = int(rng.integers(nn + 2, max(nn + 3, 31))) if m is None else m
        p = int(rng.integers(min(nn + 1, mm - 1), mm))
        q = mm - p
        A = rng.standard_normal((mm, nn))
        A[p:] *= damp
        if rho is None:
            b = rng.standard_normal(mm)
        else:
            x = rng.standard_normal(nn)
            r = rng.standard_normal(mm)
            r *= rho / np.linalg.norm(r)
            b = A @ x + r
        try:
            return IlsProblem(A, b, SignatureSplit(p, q))
        except NotPositiveDefinite:
            continue
    raise RuntimeError("could not draw a positive definite instance")


def signed_gram(A, split):
    """A^T J A = A_p^T A_p - A_q^T A_q, formed for the oracles; the library never forms it."""
    Ap, Aq = A[: split.p], A[split.p:]
    M = Ap.T @ Ap - Aq.T @ Aq
    return 0.5 * (M + M.T)


def dense_vec_perm(m, n):
    """Dense vec-permutation matrix, built entry by entry from its definition."""
    P = np.zeros((m * n, m * n))
    for i in range(m):
        for j in range(n):
            P[i * n + j, j * m + i] = 1.0
    return P


def dense_mg_oracle(problem, L=None):
    """Dense first-order map assembled from explicit Kronecker products.

    Independent of the row-structured assembly: everything is built from
    np.kron, a dense vec-permutation matrix, and LU solves.
    """
    A, b = problem.A, problem.b
    m, n = problem.m, problem.n
    if L is None:
        L = np.eye(n)
    sol = problem.solution
    x, r = sol.x, sol.r
    Jr = problem.split.apply(r)
    LtMinv = np.linalg.solve(signed_gram(A, problem.split), L).T
    LtMinvAtJ = LtMinv @ (A.T * problem.split.apply(np.ones(m))[None, :])
    P = dense_vec_perm(m, n)
    blockA = np.kron(Jr[None, :], LtMinv) @ P - np.kron(x[None, :], LtMinvAtJ)
    return np.hstack([blockA, LtMinvAtJ])


def dense_tls_map(tls, L=None):
    """The TLS first-order map assembled from explicit Kronecker products.

    Its generators are TlsProblem's, but the map is built from np.kron, a
    dense vec-permutation matrix and the inverse of the formed
    A^T A - sigma_tilde^2 I, sharing nothing with the row-structured assembly.
    """
    if L is None:
        L = np.eye(tls.n)
    Minv = np.linalg.inv(tls.A.T @ tls.A - tls.sigma_tilde**2 * np.eye(tls.n))
    LtMinv = L.T @ Minv
    Dsig = LtMinv @ (tls.A.T + 2.0 * np.outer(tls.x, tls.r) / (1.0 + tls.x @ tls.x))
    P = dense_vec_perm(tls.m, tls.n)
    blockA = np.kron(tls.r[None, :], LtMinv) @ P - np.kron(tls.x[None, :], Dsig)
    return np.hstack([blockA, Dsig])


def dense_generator_map(jac):
    """The dense k x (m n + m) map of jac's own generators, row i [vec(w u_i^T - v_i x^T); v_i].

    It shares the generators with the kernel under test, so a check against
    it isolates that kernel's own error; the checks of the generators
    themselves use dense_mg_oracle, dense_tls_map or mp_oracle.
    """
    return np.hstack([np.kron(jac.U.T, jac.w[None]) - np.kron(jac.x[None], jac.V.T), jac.V.T])


def dense_basis(basis):
    """Dense Phi (size x k) of a structure basis, from its (index, param, value) entries."""
    phi = np.zeros((basis.size, basis.k))
    phi[basis.index, basis.param] = basis.value
    return phi


def rowsums_oracle(jac, Wa, wb):
    """Rows of |Mg| [vec(Wa); wb] summed one row at a time, the reference order."""
    Wa = np.asarray(Wa, dtype=float)
    wb = np.asarray(wb, dtype=float).ravel()
    out = np.empty(jac.k)
    for i in range(jac.k):
        Ra = np.outer(jac.w, jac.U[:, i]) - np.outer(jac.V[:, i], jac.x)
        out[i] = float(np.sum(np.abs(Ra) * Wa) + np.abs(jac.V[:, i]) @ wb)
    return out


def rowsums_error_bound(jac, Wa, wb):
    """A-priori bound on how far two summation orders of |Mg| [vec(Wa); wb] can differ.

    Each row sums m n + m nonnegative terms, the A-part ones each a rounded
    |w_a U_cj - V_aj x_c|, so two orders differ by at most
    2 (m n + m + 2) eps times the row's sum of term magnitudes
    sum Wa o (|w| |u_j|^T + |v_j| |x|^T) + |v_j|^T wb.
    """
    Wa = np.asarray(Wa, dtype=float)
    wb = np.asarray(wb, dtype=float).ravel()
    absU, absV = np.abs(jac.U), np.abs(jac.V)
    mags = (Wa.T @ np.abs(jac.w)) @ absU + (Wa @ np.abs(jac.x) + wb) @ absV
    return 2 * (jac.m * jac.n + jac.m + 2) * np.finfo(float).eps * mags


def directional_derivative(problem, L, dA, db):
    """Analytic derivative of L^T x along (dA, db), from its defining formula.

    Uses plain LU solves so it shares nothing with the Cholesky path.
    """
    sol = problem.solution
    x, r = sol.x, sol.r
    A = problem.A
    M = signed_gram(A, problem.split)
    term1 = np.linalg.solve(M, dA.T @ problem.split.apply(r))
    term2 = np.linalg.solve(M, A.T @ problem.split.apply(dA @ x))
    term3 = np.linalg.solve(M, A.T @ problem.split.apply(db))
    return L.T @ (term1 - term2 + term3)


def peak_traced_bytes(fn):
    """Peak bytes allocated while fn() runs, numpy's buffers included, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def params():
    return CondParams()
