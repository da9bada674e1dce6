"""Total least squares via its stacked indefinite formulation.

A TLS instance min ||[E, e]||_F s.t. (A+E)x = b+e is the indefinite problem
on [A; sigma I_n] with signature diag(I_m, -I_n), where sigma is the
smallest singular value of [A, b].  This module solves generic TLS
instances, evaluates their partial condition numbers (unified, 2-norm,
mixed, componentwise, structured), and provides the general composed
first-order machinery for stacked problems whose lower blocks depend on
the data.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exact import (
    CondParams,
    JacobianMg,
    UndefinedConditionNumber,
    _induced_norm,
    kappa_componentwise_from_jac,
    kappa_mixed_from_jac,
)
from .ils import NotPositiveDefinite
from .kron import ddagger, entrywise_div, vec
from .structured import structured_inf_numerator, structured_norm2_from_jac


class TlsNotGeneric(ValueError):
    """The smallest singular value of [A, b] is not separated from that of A."""


class TlsProblem:
    """A generic total least squares instance with its shifted normal matrix.

    Construction computes sigma_tilde, the smallest singular value of
    [A, b], requires it to sit below sigma_n(A) with relative gap at least
    gap_tol, and factors Mt = A^T A - sigma_tilde^2 I (positive definite on
    the generic set).  The solution is x = Mt^{-1} A^T b and r = b - A x.
    """

    def __init__(self, A, b, gap_tol=1e-10):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float).ravel()
        m, n = A.shape
        if b.size != m:
            raise ValueError(f"b has length {b.size}, expected {m}")
        if m <= n:
            raise ValueError("TLS needs strictly more rows than columns")
        full = np.column_stack([A, b])
        sv_full = np.linalg.svd(full, compute_uv=False)
        sv_a = np.linalg.svd(A, compute_uv=False)
        self.sigma_tilde = float(sv_full[-1])
        self.sigma_n = float(sv_a[-1])
        if self.sigma_n <= 0 or (self.sigma_n - self.sigma_tilde) < gap_tol * self.sigma_n:
            raise TlsNotGeneric(
                f"singular value gap too small: sigma_n = {self.sigma_n:.6e}, "
                f"sigma_tilde = {self.sigma_tilde:.6e}"
            )
        Mt = A.T @ A - self.sigma_tilde**2 * np.eye(n)
        Mt = 0.5 * (Mt + Mt.T)
        try:
            self.chol = np.linalg.cholesky(Mt)
        except np.linalg.LinAlgError as exc:
            raise TlsNotGeneric(
                "A^T A - sigma_tilde^2 I lost definiteness numerically"
            ) from exc
        self.A = A
        self.b = b
        self.m = m
        self.n = n
        self.Mt = Mt
        self.x = self.apply_minv(A.T @ b)
        self.r = b - A @ self.x

    def apply_minv(self, V):
        V = np.asarray(V, dtype=float)
        single = V.ndim == 1
        if single:
            V = V[:, None]
        if V.shape[1] == 0:
            return V.copy()
        out = scipy.linalg.cho_solve((self.chol, True), V)
        return out[:, 0] if single else out


def solve_tls(A, b, gap_tol=1e-10):
    """Solve a generic TLS instance; raises TlsNotGeneric on gap violation."""
    return TlsProblem(A, b, gap_tol=gap_tol)


def tls_jacobian(tls, L=None):
    """Row-structured first-order map of L^T x for the TLS solution.

    Same row shape as the ILS map, with w = r, U = Mt^{-1} L and
    V = (A + 2 r x^T / (1 + ||x||^2)) Mt^{-1} L, whose transpose is the
    sensitivity block of the right-hand side.
    """
    if L is None:
        L = np.eye(tls.n)
    U = tls.apply_minv(L)
    V = tls.A @ U + (2.0 / (1.0 + tls.x @ tls.x)) * np.outer(tls.r, tls.x @ U)
    return JacobianMg(tls.r, U, V, tls.x, tls.A, tls.b)


def kappa_2tls(tls, params=None):
    """Partial 2-norm TLS condition number (scalar weights).

    The spectral norm of the k x (mn + m) weighted map, taken from its
    k x k Gram matrix without forming the map.
    """
    params = params or CondParams()
    psi, beta, xi = params.scalars()
    jac = tls_jacobian(tls, params.l_matrix(tls.n))
    G = jac.weighted_gram(np.full((tls.m, tls.n), psi), np.full(tls.m, beta))
    return float(np.sqrt(max(np.linalg.eigvalsh(G)[-1], 0.0))) / xi


def kappa_mixed_tls(tls, params=None):
    """Mixed TLS condition number through the row-structured products."""
    params = params or CondParams()
    L = params.l_matrix(tls.n)
    jac = tls_jacobian(tls, L)
    return kappa_mixed_from_jac(jac, np.atleast_1d(L.T @ tls.x))


def kappa_componentwise_tls(tls, params=None):
    """Componentwise TLS condition number (0^ddagger on zero outputs)."""
    params = params or CondParams()
    L = params.l_matrix(tls.n)
    jac = tls_jacobian(tls, L)
    return kappa_componentwise_from_jac(jac, np.atleast_1d(L.T @ tls.x))


def kappa_structured_tls(tls, params, sparams, which="two"):
    """Structured TLS condition number of the requested flavor.

    which is 'two', 'mixed' or 'comp'.  A must belong to the A-basis and b
    to the b-basis (use a full basis to leave b unstructured).
    """
    params = params or CondParams()
    s1 = sparams.basisA.extract(tls.A)
    s2 = sparams.basisB.extract(tls.b)
    L = params.l_matrix(tls.n)
    jac = tls_jacobian(tls, L)
    if which == "two":
        psi, beta, xi = params.scalars()
        return structured_norm2_from_jac(jac, sparams, psi, beta, xi)
    num = structured_inf_numerator(jac, sparams, s1, s2)
    ltx = np.atleast_1d(L.T @ tls.x)
    if which == "mixed":
        denom = float(np.max(np.abs(ltx)))
        if denom == 0.0:
            raise UndefinedConditionNumber("L^T x vanishes in the infinity norm")
        return float(np.max(num)) / denom
    if which == "comp":
        return float(np.max(np.abs(entrywise_div(num, np.abs(ltx)))))
    raise ValueError("which must be 'two', 'mixed' or 'comp'")


@dataclass(frozen=True, eq=False)
class ComposedBlocks:
    """First-order dependence of the stacked blocks (B, d) on the data (A, b).

    vec(dB) = [M1, M2] [vec(dA); db] and dd = [M3, M4] [vec(dA); db].
    """

    M1: np.ndarray
    M2: np.ndarray
    M3: np.ndarray
    M4: np.ndarray

    def validate(self, m, n, s):
        if self.M1.shape != (s * n, m * n) or self.M2.shape != (s * n, m):
            raise ValueError("M1/M2 dimensions do not conform")
        if self.M3.shape != (s, m * n) or self.M4.shape != (s, m):
            raise ValueError("M3/M4 dimensions do not conform")

    @classmethod
    def zero(cls, m, n, s):
        return cls(
            np.zeros((s * n, m * n)),
            np.zeros((s * n, m)),
            np.zeros((s, m * n)),
            np.zeros((s, m)),
        )


class StackedProblem:
    """Indefinite problem on [A; B] with signature diag(I_m, -I_s).

    Mt = A^T A - B^T B must be positive definite; the solution is
    x = Mt^{-1}(A^T b - B^T d), with residuals r = b - A x and s = d - B x.
    The stacked matrix and signature are never materialized.
    """

    def __init__(self, A, B, b, d):
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        b = np.asarray(b, dtype=float).ravel()
        d = np.asarray(d, dtype=float).ravel()
        if B.ndim != 2 or B.shape[1] != A.shape[1]:
            raise ValueError("B must have the same column count as A")
        if b.size != A.shape[0] or d.size != B.shape[0]:
            raise ValueError("right-hand side lengths do not match")
        Mt = A.T @ A - B.T @ B
        Mt = 0.5 * (Mt + Mt.T)
        try:
            self.chol = np.linalg.cholesky(Mt)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite(
                "A^T A - B^T B is not positive definite"
            ) from exc
        self.A, self.B, self.b, self.d = A, B, b, d
        self.m, self.n = A.shape
        self.s = B.shape[0]
        self.Mt = Mt
        self.x = scipy.linalg.cho_solve((self.chol, True), A.T @ b - B.T @ d)
        self.r = b - A @ self.x
        self.sres = d - B @ self.x

    def apply_minv(self, V):
        V = np.asarray(V, dtype=float)
        single = V.ndim == 1
        if single:
            V = V[:, None]
        out = scipy.linalg.cho_solve((self.chol, True), V)
        return out[:, 0] if single else out


def tls_blocks(stacked_or_tls, tiny=1e-13):
    """Composed blocks of the TLS stacking B = sigma I_n, d = 0.

    The leading constant is 1/sigma, so consistent systems (sigma below
    tiny relative to ||[A, b]||) are excluded rather than extrapolated.
    """
    t = stacked_or_tls
    sigma = t.sigma_tilde if hasattr(t, "sigma_tilde") else None
    if sigma is None:
        raise ValueError("tls_blocks needs a TlsProblem")
    scale = np.linalg.norm(np.column_stack([t.A, t.b]), 2)
    if sigma <= tiny * scale:
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

    Returns the k x (mn + m) matrix [N1 + N3 M1 + N4 M3, N2 + N3 M2 + N4 M4]
    for L = I_n (premultiply by L^T for a projected map).
    """
    blocks.validate(stacked.m, stacked.n, stacked.s)
    L = np.eye(stacked.n)
    U = stacked.apply_minv(L)
    jac_a = JacobianMg(stacked.r, U, stacked.A @ U, stacked.x, stacked.A, stacked.b)
    jac_b = JacobianMg(stacked.sres, U, stacked.B @ U, stacked.x, stacked.B, stacked.d)
    mn = stacked.m * stacked.n
    dense_a = jac_a.dense()
    N1, N2 = dense_a[:, :mn], dense_a[:, mn:]
    dense_b = jac_b.dense()
    N3 = -dense_b[:, : stacked.s * stacked.n]
    N4 = -dense_b[:, stacked.s * stacked.n:]
    left = N1 + N3 @ blocks.M1 + N4 @ blocks.M3
    right = N2 + N3 @ blocks.M2 + N4 @ blocks.M4
    return np.hstack([left, right])


def kappa_composed_ils(stacked, blocks, params=None, mu=2, nu=2):
    """Condition number of the stacked problem with data-dependent blocks."""
    params = params or CondParams()
    L = params.l_matrix(stacked.n)
    F = L.T @ composed_map(stacked, blocks)
    wcol = np.concatenate(
        [vec(params.psi_matrix(stacked.m, stacked.n)), params.beta_vector(stacked.m)]
    )
    F = F * wcol[None, :]
    xi = params.xi_vector(L.shape[1])
    F = F * ddagger(xi)[:, None]
    return _induced_norm(F, mu, nu)
