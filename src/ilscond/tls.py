"""Total least squares via its stacked indefinite formulation.

A TLS instance min ||[E, e]||_F s.t. (A+E)x = b+e is the indefinite problem
on [A; sigma I_n] with signature diag(I_m, -I_n), where sigma is the
smallest singular value of [A, b].  This module solves generic TLS
instances from one Householder QR of [A, b], whose triangle goes straight
to ils._certified_solve, the certify-and-solve routine of IlsProblem,
and evaluates their partial condition numbers (unified, 2-norm, mixed,
componentwise; the structured ones are fields of exact.ConditionReport on a
TlsProblem).  The ILS map of the stacked problem, composed with the
dependence of sigma on the data, reduces to TlsProblem's generators (Baboulin
and Gratton, SIMAX 32, 2011), so every TLS value reads them alone.
"""

from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgeqrf

from .exact import JacobianMg, SharedJacobian, kappa_2ils, kappa_componentwise, kappa_mixed
from .ils import EPS, NotPositiveDefinite, _certified_solve
from .kron import checked_data

# relative gap below which sigma_tilde is not separated from sigma_n(A)
GAP_TOL = 1e-10


class TlsNotGeneric(ValueError):
    """The smallest singular value of [A, b] is not separated from that of A."""


class TlsProblem(SharedJacobian):
    """A generic total least squares instance, solved as its stacked ILS problem.

    Construction takes one Householder QR of [A, b], which gives the
    (n + 1) x (n + 1) triangle [[R_A, z], [0, rho]].  sigma_tilde, the
    smallest singular value of [A, b], is that of the triangle (one
    values-only SVD).  The stacked ILS problem on [A; sigma_tilde I_n],
    [b; 0] has Mt = A^T A - sigma_tilde^2 I and A^T b = R_A^T z, so
    ils._certified_solve, which certifies and solves every IlsProblem,
    solves it, unformed, from R = R_A, A_q = sigma_tilde I_n, y = z,
    b_q = 0 and the bound 1/(2n eps) of the 2n rows [R_A; sigma_tilde I_n].
    Its ``factor``, the certified Mt = F^T F, is behind every Mt^{-1}
    product, x included, whose errors grow with cond(Mt) = cond(F)^2, not
    with cond(A) or the relative condition number of x: with sigma_tilde
    close to sigma_n(A), x can be ten times less accurate than the SVD
    route's -v[:n] / v[n] (test_tls.py::test_x_accuracy_near_small_gap).
    sigma_n(A) = hypot(sigma_min(F), sigma_tilde), and the instance is
    generic when sigma_tilde sits below it with relative gap at least
    GAP_TOL.  The gap is checked first at the lower bound
    hypot(F.sigma_min_lower, sigma_tilde) of sigma_n; the exact ``sigma_n``
    (one values-only SVD of F) is computed only when that bound cannot
    decide, or when read.  A failed certificate or gap raises TlsNotGeneric;
    complex, non-finite or column-free data raises ValueError naming the
    argument.  IllConditionedWarning and ``ill_conditioned`` are as for an
    IlsProblem.  The residual r = b - A x is computed from A.
    """

    def __init__(self, A, b):
        A = checked_data("A", A, matrix=True)
        b = checked_data("b", b, matrix=False)
        m, n = A.shape
        if b.size != m:
            raise ValueError(f"b has length {b.size}, expected {m}")
        if m <= n:
            raise ValueError("TLS needs strictly more rows than columns")
        qr = dgeqrf(np.column_stack([A, b]))[0]
        Rbar = np.triu(qr[: n + 1])
        self.sigma_tilde = float(np.linalg.svd(Rbar, compute_uv=False)[-1])
        try:
            self.factor, self.x, self.ill_conditioned = _certified_solve(
                Rbar[:n, :n], self.sigma_tilde * np.eye(n), Rbar[:n, n:], np.zeros((n, 1)),
                1.0 / (2 * n * EPS))
        except NotPositiveDefinite as exc:
            raise TlsNotGeneric(
                "A^T A - sigma_tilde^2 I lost definiteness numerically"
            ) from exc
        # the gap holds at sigma_n if it holds at this lower bound of it; only
        # when it does not is the exact sigma_n (one SVD of F) needed
        lower = float(np.hypot(self.factor.sigma_min_lower, self.sigma_tilde))
        if (lower - self.sigma_tilde < GAP_TOL * lower
                and self.sigma_n - self.sigma_tilde < GAP_TOL * self.sigma_n):
            raise TlsNotGeneric(
                f"singular value gap too small: sigma_n = {self.sigma_n:.6e}, "
                f"sigma_tilde = {self.sigma_tilde:.6e}"
            )
        self.A = A
        self.b = b
        self.m = m
        self.n = n
        self.r = b - A @ self.x

    @cached_property
    def sigma_n(self):
        """Smallest singular value of A, hypot(sigma_min(F), sigma_tilde) for Mt = F^T F."""
        return float(np.hypot(self.factor.singular_values[-1], self.sigma_tilde))

    def _build_jacobian(self, L):
        # the ILS map's row shape with w = r, U = Mt^{-1} L and
        # V = (A + 2 r x^T / (1 + ||x||^2)) U, whose transpose is the
        # sensitivity block of the right-hand side
        U = self.factor.solve(np.eye(self.n) if L is None else L)
        V = self.A @ U + (2.0 / (1.0 + self.x @ self.x)) * np.outer(self.r, self.x @ U)
        return JacobianMg(self.r, U, V, self.x, self.A, self.b)


# each TLS flavour is the ILS function of the same norm, reading the TLS Jacobian
kappa_2tls = kappa_2ils
kappa_mixed_tls = kappa_mixed
kappa_componentwise_tls = kappa_componentwise
