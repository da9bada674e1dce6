"""Total least squares via its stacked indefinite formulation.

A TLS instance min ||[E, e]||_F s.t. (A+E)x = b+e is the indefinite problem
on [A; sigma I_n] with signature diag(I_m, -I_n), where sigma is the
smallest singular value of [A, b].  This module solves generic TLS
instances from one Householder QR of [A, b], whose triangle goes straight
to ils._certified_solve, the certify-and-solve routine of IlsProblem,
evaluates their partial condition numbers (unified, 2-norm, mixed,
componentwise; the structured ones are fields of exact.ConditionReport on a
TlsProblem), and provides the general composed first-order machinery for a
stacked IlsProblem on [A; B] whose lower blocks depend on the data.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgeqrf

from .exact import (CondParams, JacobianMg, SharedJacobian, _induced_norm, kappa_2ils,
                    kappa_componentwise, kappa_mixed)
from .ils import EPS, NotPositiveDefinite, _certified_solve
from .kron import checked_data, ddagger, vec

# relative gap below which sigma_tilde is not separated from sigma_n(A)
GAP_TOL = 1e-10
# sigma_tilde at or below this fraction of ||[A, b]||_2 counts as a consistent system
SIGMA_TINY = 1e-13


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
    product, with errors that grow with cond(A), not cond(Mt).
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


@dataclass(frozen=True, eq=False)
class ComposedBlocks:
    """First-order dependence of the stacked blocks (B, d) on the data (A, b).

    vec(dB) = [M1, M2] [vec(dA); db] and dd = [M3, M4] [vec(dA); db].
    """

    M1: np.ndarray
    M2: np.ndarray
    M3: np.ndarray
    M4: np.ndarray

    @staticmethod
    def shapes(m, n, s):
        """Shapes of (M1, M2, M3, M4) for m x n data and s stacked rows."""
        return (s * n, m * n), (s * n, m), (s, m * n), (s, m)

    def validate(self, m, n, s):
        got = (self.M1.shape, self.M2.shape, self.M3.shape, self.M4.shape)
        if got != self.shapes(m, n, s):
            raise ValueError(f"block shapes {got} do not conform to {self.shapes(m, n, s)}")

    @classmethod
    def zero(cls, m, n, s):
        return cls(*map(np.zeros, cls.shapes(m, n, s)))


def tls_blocks(t):
    """Composed blocks of the TLS stacking B = sigma I_n, d = 0 of a TlsProblem.

    The leading constant is 1/sigma, so consistent systems (sigma below
    SIGMA_TINY relative to ||[A, b]||) are excluded rather than extrapolated.
    """
    sigma = t.sigma_tilde
    scale = np.linalg.norm(np.column_stack([t.A, t.b]), 2)
    if sigma <= SIGMA_TINY * scale:
        raise TlsNotGeneric(
            "sigma_tilde is numerically zero; the composed blocks blow up "
            "on consistent systems"
        )
    x, r, n = t.x, t.r, t.n
    coeff = 1.0 / (sigma * (1.0 + x @ x))
    vi = vec(np.eye(n))
    M1 = -coeff * np.outer(vi, np.kron(x, r))
    M2 = coeff * np.outer(vi, r)
    M3 = np.zeros((n, t.m * t.n))
    M4 = np.zeros((n, t.m))
    return ComposedBlocks(M1, M2, M3, M4)


def composed_map(stacked, blocks):
    """Dense first-order map of L^T x for a stacked problem with dependent blocks.

    ``stacked`` is the IlsProblem on [A; B], [b; d] with signature split
    (m, s).  The columns of its identity-L map that act on (A, b) give
    N1, N2 and those acting on (B, d) give N3, N4; returns the k x (mn + m)
    matrix [N1 + N3 M1 + N4 M3, N2 + N3 M2 + N4 M4] for L = I_n
    (premultiply by L^T for a projected map).
    """
    m, s, n = stacked.p, stacked.q, stacked.n
    blocks.validate(m, n, s)
    full = stacked.jacobian().dense()
    k = full.shape[0]
    # vec is column-major: the column of entry (i, j) of [dA; dB] is [:, j, i]
    dAB = full[:, : (m + s) * n].reshape(k, n, m + s)
    N1 = dAB[:, :, :m].reshape(k, m * n)
    N3 = dAB[:, :, m:].reshape(k, s * n)
    dbd = full[:, (m + s) * n:]
    N2, N4 = dbd[:, :m], dbd[:, m:]
    left = N1 + N3 @ blocks.M1 + N4 @ blocks.M3
    right = N2 + N3 @ blocks.M2 + N4 @ blocks.M4
    return np.hstack([left, right])


def kappa_composed_ils(stacked, blocks, params=None, mu=2, nu=2):
    """Condition number of the stacked problem with data-dependent blocks.

    The weights psi and beta act on the data (A, b): p x n and length p.
    """
    params = params or CondParams()
    L = params.l_matrix(stacked.n)
    wcol = np.concatenate([vec(params.weights("psi", (stacked.p, stacked.n))),
                           params.weights("beta", (stacked.p,))])
    xi = params.weights("xi", (L.shape[1],))
    F = (L.T @ composed_map(stacked, blocks)) * wcol * ddagger(xi)[:, None]
    return _induced_norm(F, mu, nu)
