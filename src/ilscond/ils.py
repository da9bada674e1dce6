"""Indefinite least squares instances: definiteness check, solve, M^{-1} products.

An instance minimizes (b - Ax)^T J (b - Ax) with J = diag(I_p, -I_q).  It has
a unique solution x = M^{-1} A^T J b exactly when M = A^T J A is positive
definite; construction certifies this with an SpdFactor, the one Cholesky
factor type of the package, which every subsequent M^{-1} application reuses.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np
import scipy.linalg

from .exact import JacobianMg, SharedJacobian


class NotPositiveDefinite(np.linalg.LinAlgError):
    """A^T J A is not positive definite: the ILS problem has no unique solution."""


class IllConditionedWarning(UserWarning):
    """A^T J A is numerically close to singular; results may lose accuracy."""


def checked_data(name, value, matrix):
    """``value`` as a real, finite float matrix (matrix=True) or flat vector.

    The boundary check of every problem constructor: complex or non-finite
    input raises ValueError naming the argument instead of being truncated
    to its real part or failing inside LAPACK.
    """
    arr = np.asarray(value)
    if np.iscomplexobj(arr):
        raise ValueError(f"{name} must be real, got complex entries")
    arr = np.asarray(arr, dtype=float)
    if not matrix:
        arr = arr.ravel()
    elif arr.ndim != 2:
        raise ValueError(f"{name} must be a matrix")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


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

    def signs(self):
        s = np.ones(self.m)
        s[self.p:] = -1.0
        return s


class SpdFactor:
    """Certified Cholesky factor of a symmetric positive definite matrix.

    M is symmetrized before factoring, so ``M`` holds exactly the matrix that
    was certified.  A breakdown raises NotPositiveDefinite naming the matrix;
    with diagnose=True the message carries its smallest eigenvalue.  The
    reciprocal 2-norm condition ``rcond`` is computed on first use.
    """

    def __init__(self, M, name, diagnose=False):
        M = 0.5 * (M + M.T)
        try:
            self.chol = np.linalg.cholesky(M)
        except np.linalg.LinAlgError as exc:
            msg = f"{name} is not positive definite; the problem has no unique solution"
            if diagnose:
                msg += f" (smallest eigenvalue {float(np.linalg.eigvalsh(M)[0]):.3e})"
            raise NotPositiveDefinite(msg) from exc
        self.M = M
        self.n = M.shape[0]

    @cached_property
    def rcond(self):
        # cond(M) = cond(chol)^2; cheap to read off the factor's singular values
        sv = np.linalg.svd(self.chol, compute_uv=False)
        return float((sv[-1] / sv[0]) ** 2) if sv[0] > 0 else 0.0

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
        out = scipy.linalg.cho_solve((self.chol, True), V)
        return out[:, 0] if single else out


def check_spd(A, split, diagnose=False):
    """Form M = A^T J A and certify positive definiteness; returns its SpdFactor.

    M is assembled as Ap^T Ap - Aq^T Aq from the signed row blocks.  Raises
    NotPositiveDefinite on breakdown; with diagnose=True the error carries the
    smallest eigenvalue of M for debugging near-singular cases.
    """
    return _normal_factor(checked_data("A", A, matrix=True), split, diagnose)


def _normal_factor(A, split, diagnose):
    # check_spd on an A that checked_data has already validated
    if split.m != A.shape[0]:
        raise ValueError(f"signature split p+q={split.m} does not match m={A.shape[0]}")
    Ap = A[: split.p]
    Aq = A[split.p:]
    return SpdFactor(Ap.T @ Ap - Aq.T @ Aq, "A^T J A", diagnose=diagnose)


@dataclass(frozen=True)
class IlsSolution:
    """Solution x of M x = A^T J b and its plain residual r = b - A x."""

    x: np.ndarray
    r: np.ndarray


class IlsProblem(SharedJacobian):
    """An indefinite least squares instance with cached normal matrix.

    Parameters
    ----------
    A : (m, n) array
    b : (m,) array
    split : SignatureSplit
        Counts (p, q) of +1 and -1 signature entries; p + q = m.
    diagnose : bool
        Report the smallest eigenvalue of A^T J A when definiteness fails.

    Raises ValueError for complex or non-finite data and NotPositiveDefinite
    when A^T J A has no Cholesky factorization.  When the factorization
    succeeds but M is close to singular (reciprocal condition below
    1e3 * machine epsilon) an IllConditionedWarning is issued and
    ``ill_conditioned`` is set; computation proceeds, since problems near the
    definiteness boundary are exactly the interesting regime.
    """

    def __init__(self, A, b, split, diagnose=False):
        A = checked_data("A", A, matrix=True)
        b = checked_data("b", b, matrix=False)
        m, n = A.shape
        if b.size != m:
            raise ValueError(f"b has length {b.size}, expected {m}")
        if m < n or (split.q > 0 and m == n):
            warnings.warn(
                "a genuinely indefinite problem needs m > n (and m >= n always); "
                "proceeding anyway",
                UserWarning,
                stacklevel=2,
            )
        self.A = A
        self.b = b
        self.split = split
        self.m = m
        self.n = n
        self.factor = _normal_factor(A, split, diagnose)
        self.M = self.factor.M
        rcond = self.factor.rcond
        self.ill_conditioned = rcond < 1e3 * np.finfo(float).eps
        if self.ill_conditioned:
            warnings.warn(
                f"A^T J A is nearly singular (rcond ~ {rcond:.2e}); "
                "condition numbers remain computable but lose accuracy",
                IllConditionedWarning,
                stacklevel=2,
            )

    @property
    def p(self):
        return self.split.p

    @property
    def q(self):
        return self.split.q

    def j_apply(self, v):
        """Product of the signature matrix with a vector or matrix of m rows."""
        return self.split.apply(v)

    def apply_minv(self, V):
        """Compute M^{-1} V with the certified factor."""
        return self.factor.solve(V)

    def _build_jacobian(self, L):
        return JacobianMg.for_ils(self, L)

    @cached_property
    def solution(self):
        return solve_ils(self)


def solve_ils(problem):
    """Solve M x = A^T J b with the cached Cholesky factor; r = b - A x."""
    rhs = problem.A.T @ problem.j_apply(problem.b)
    x = problem.apply_minv(rhs)
    r = problem.b - problem.A @ x
    return IlsSolution(x=x, r=r)
