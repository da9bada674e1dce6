"""Indefinite least squares instances: definiteness check, solution, first-order map.

An instance minimizes (b - Ax)^T J (b - Ax) with J = diag(I_p, -I_q).  It has
a unique solution x = M^{-1} A^T J b exactly when M = A^T J A is positive
definite.  Construction certifies this without forming M, from the rows A_p
with signature +1: A_p = Q_p R_p by Householder QR, W = R_p^{-T} A_q^T, and
C = R_p^{-T} M R_p^{-1} = I - W W^T = G G^T by Cholesky, so M = F^T F with
F = G^T R_p upper triangular.  Errors then grow with cond(A), not cond(A)^2.
The result is an SpdFactor, the one Cholesky factor type of the package,
which every subsequent M^{-1} application reuses.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dgeqrf, dormqr, dpotrs, dtrtri, dtrtrs

from .exact import JacobianMg, SharedJacobian
from .kron import checked_data


class NotPositiveDefinite(np.linalg.LinAlgError):
    """A^T J A is not positive definite: the ILS problem has no unique solution."""


class NumericallySingular(NotPositiveDefinite):
    """A^T J A = F^T F is singular to working precision: cond(F) >= 1/(max(m, n) eps).

    The spectra of the instance generators are fixed by construction, so a
    fresh draw cannot cure this and the generators do not retry it.
    """


class IllConditionedWarning(UserWarning):
    """eps * cond(F) > 1e-3 for A^T J A = F^T F; results may lose accuracy."""


EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SignatureSplit:
    """Signature (p, q): +1 on the first p coordinates, -1 on the last q.

    The signature matrix is never materialized; products with it are sign
    flips of the trailing q rows.
    """

    p: int
    q: int

    def __post_init__(self):
        for name in ("p", "q"):
            if not isinstance(getattr(self, name), Integral):
                raise TypeError(f"{name} must be an integer")
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if self.q < 0:
            raise ValueError("q must be nonnegative")

    @property
    def m(self):
        return self.p + self.q

    def apply(self, v):
        """Multiply by the signature matrix (flip the sign of the last q rows)."""
        out = np.array(v, dtype=float, copy=True)
        out[self.p:] = -out[self.p:]
        return out


class SpdFactor:
    """Certified factor M = F^T F of a symmetric positive definite matrix.

    Wraps the upper-triangular F = G^T R that _certified_solve certifies from
    a QR factor R (of A_p, or of [A, b] for a TLS problem); M itself is never
    formed.

    ``cond_upper`` and ``sigma_min_lower`` bound cond(F) from above and
    sigma_min(F) from below without an SVD, from one triangular inverse and
    two n x n products; the conditioning checks read them first.  The exact
    ``singular_values``, and with them ``cond``, come from one values-only
    SVD, taken only when read.
    """

    def __init__(self, F):
        # the column-major lower factor is what LAPACK potrs reads without a copy
        self.chol = np.asfortranarray(F.T)
        self.n = F.shape[0]

    @cached_property
    def singular_values(self):
        """Singular values of F, largest first; those of M are their squares."""
        return np.linalg.svd(self.chol, compute_uv=False)

    @property
    def cond(self):
        """2-norm condition of F (cond(M) is its square), capped at ``cond_upper``.

        The SVD can return sigma_min = 0 for a nonsingular F far beyond 1/eps.
        """
        sv = self.singular_values
        return float(min(sv[0] / sv[-1] if sv[-1] > 0 else np.inf, self.cond_upper))

    @property
    def cond_upper(self):
        """Upper bound on ``cond``: ||(F^T F)^2||_F^(1/4) ||F^{-1}||_F, widened.

        ||F||_2 = ||(F^T F)^2||_2^(1/4) and ||F^{-1}||_2 <= ||F^{-1}||_F.  The
        product b is widened to b (1 + n eps b) to cover the rounding of the
        computed inverse and products, and of the SVD that ``cond`` would
        take.  inf when F^{-1} overflows or F has a zero on its diagonal.
        """
        return self._bounds[0]

    @property
    def sigma_min_lower(self):
        """Lower bound on the smallest singular value of F: 1 / ||F^{-1}||_F, widened."""
        return self._bounds[1]

    @cached_property
    def _bounds(self):
        # cond is scale-free, so F is scaled by a power of two (exactly) to a
        # largest entry in [1/2, 1): (F^T F)^2 then neither overflows nor
        # underflows to zero
        e = math.frexp(float(np.max(np.abs(self.chol))))[1]
        L = np.ldexp(self.chol, -e)
        inv, info = dtrtri(L, lower=1)
        inv_fro = float(np.linalg.norm(inv))
        if info != 0 or not np.isfinite(inv_fro):
            return np.inf, 0.0
        gram = L @ L.T
        raw = math.sqrt(math.sqrt(float(np.linalg.norm(gram @ gram)))) * inv_fro
        widen = 1.0 + self.n * EPS * raw
        return raw * widen, math.ldexp(1.0 / (inv_fro * widen), e)

    def solve(self, V):
        """Compute M^{-1} V (V a vector or an n-row matrix) by two triangular solves."""
        V = np.asarray(V, dtype=float)
        single = V.ndim == 1
        if single:
            V = V[:, None]
        if V.shape[0] != self.n:
            raise ValueError(f"operand has {V.shape[0]} rows, expected {self.n}")
        if V.shape[1] == 0:
            return V.copy()
        out, _ = dpotrs(self.chol, V, lower=1)
        return out[:, 0] if single else out


def _certified_solve(R, A_q, y, b_q, bound):
    """Certify M = R^T R - A_q^T A_q = F^T F; solve M x = R^T y - A_q^T b_q.

    R is read in its leading n rows' upper triangle; y and b_q are columns.
    Raises and warns as IlsProblem documents, the warning at the caller's
    caller.  Returns (factor, x, ill_conditioned).
    """
    n = R.shape[1]
    if not A_q.any():
        # A_q = 0 (every ex1 instance): C = I exactly, so G = I and F = R
        W = None
        F = np.triu(R[:n])
    else:
        W, info = dtrtrs(R, A_q.T, lower=0, trans=1, lda=R.shape[0])
        if info > 0:
            raise NumericallySingular(_singular_message(np.inf, bound))
        C = -(W @ W.T)
        C.flat[:: n + 1] += 1.0
        try:
            G = np.linalg.cholesky(C)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite(
                "I - W W^T (W = R_p^{-T} A_q^T, congruent to A^T J A) is not positive "
                "definite; the problem has no unique solution (smallest eigenvalue "
                f"{float(np.linalg.eigvalsh(C)[0]):.3e})") from exc
        F = dtrmm(1.0, R, G.T, side=1)
    factor = SpdFactor(F)
    # the SVD decides only where the bound cannot
    if factor.cond_upper >= bound and factor.cond >= bound:
        raise NumericallySingular(_singular_message(factor.cond, bound))
    if W is not None:
        y = dtrtrs(G, y - W @ b_q, lower=1)[0]
    x = dtrtrs(factor.chol, y, lower=1, trans=1)[0][:, 0]
    ill_conditioned = EPS * factor.cond_upper > 1e-3 and EPS * factor.cond > 1e-3
    if ill_conditioned:
        warnings.warn(
            f"A^T J A = F^T F is nearly singular (cond(F) ~ {factor.cond:.2e}); "
            "condition numbers remain computable but lose accuracy",
            IllConditionedWarning,
            stacklevel=3,
        )
    return factor, x, ill_conditioned


def _singular_message(cond, bound):
    return (f"A^T J A = F^T F is numerically singular: cond(F) = {cond:.2e} is at or "
            f"above 1/(max(m, n) eps) = {bound:.2e}; no solve in double precision "
            "can resolve it")


@dataclass(frozen=True)
class IlsSolution:
    """Solution x of M x = A^T J b and its plain residual r = b - A x."""

    x: np.ndarray
    r: np.ndarray


class IlsProblem(SharedJacobian):
    """An indefinite least squares instance with a certified factor of A^T J A.

    Parameters
    ----------
    A : (m, n) array
    b : (m,) array
    split : SignatureSplit
        Counts (p, q) of +1 and -1 signature entries; p + q = m.

    Raises ValueError for complex or non-finite data, NotPositiveDefinite
    when A^T J A is not positive definite (when p < n, before any
    factorization, and otherwise with the smallest eigenvalue of
    I - W W^T in its message), and its subclass
    NumericallySingular when A^T J A = F^T F has cond(F) >= 1/(max(m, n)
    eps).  Below that bound, when eps * cond(F) > 1e-3, an
    IllConditionedWarning is issued and ``ill_conditioned`` is set;
    computation proceeds, since problems near the definiteness boundary are
    exactly the interesting regime.  Both checks read the factor's
    SVD-free ``cond_upper`` first and take the SVD of F only when that
    bound reaches the threshold, so their outcome is the SVD's.  Warnings
    name the line that built the problem.

    Construction also solves M x = A^T J b, with
    A^T J b = R_p^T ((Q_p^T b_p)[:n] - W b_q), as
    x = F^{-1} G^{-1} ((Q_p^T b_p)[:n] - W b_q), and keeps ``solution``, x
    with its residual r = b - A x.  Going through A^T J b and the factor of
    M instead (the seminormal equations) would cost an error of order
    eps cond(A)^2 ||b|| / (||A|| ||x||).  Neither A^T J A nor A^T J b is
    formed.
    """

    def __init__(self, A, b, split):
        A = checked_data("A", A, matrix=True)
        b = checked_data("b", b, matrix=False)
        m, n = A.shape
        if b.size != m:
            raise ValueError(f"b has length {b.size}, expected {m}")
        if split.m != m:
            raise ValueError(f"signature split p+q={split.m} does not match m={m}")
        if m < n:
            raise NumericallySingular(f"A has {m} rows and {n} columns, so A^T J A is singular")
        p = split.p
        if p < n:
            raise NotPositiveDefinite(
                f"only p = {p} rows carry signature +1 for n = {n} columns: A^T J A <= "
                "A_p^T A_p, of rank at most p, is not positive definite")
        self.A = A
        self.b = b
        self.split = split
        self.m = m
        self.n = n
        qr, tau, _, _ = dgeqrf(A[:p])
        # Q_p^T is applied by its reflectors, never formed
        y = dormqr("L", "T", qr, tau, b[:p, None], 1)[0][:n]
        self.factor, x, self.ill_conditioned = _certified_solve(
            qr, A[p:], y, b[p:, None], 1.0 / (max(m, n) * EPS))
        self.solution = IlsSolution(x=x, r=b - A @ x)

    @property
    def p(self):
        return self.split.p

    @property
    def q(self):
        return self.split.q

    def _build_jacobian(self, L):
        # w = J r, U = M^{-1} L, V = J A U
        U = self.factor.solve(np.eye(self.n) if L is None else L)
        V = self.split.apply(self.A @ U)
        sol = self.solution
        return JacobianMg(self.split.apply(sol.r), U, V, sol.x, self.A, self.b)
