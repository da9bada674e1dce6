"""Statistical condition estimators.

Three routes: a probabilistic spectral-norm interval (Golub-Kahan-Lanczos
lower bound plus a probabilistic upper bound) driving a 2-norm condition
estimate, a small-sample orthonormal-direction estimate of the same 2-norm
quantity, and a small-sample estimate of the mixed and componentwise
condition numbers.  All randomness flows from explicit seeds.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from scipy.linalg.lapack import dgeqrf, dorgqr

from .exact import CondParams, componentwise_ratio, mixed_ratio, normwise_map, params_jacobian
from .kron import unvec


def wallis(k, approx=False):
    """Wallis factor: the expected |<z, e>| normalization for unit-sphere z.

    Exact product values for k <= 64; the sqrt(2 / (pi (k - 1/2)))
    approximation beyond, or everywhere when approx=True.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if approx or k > 64:
        return math.sqrt(2.0 / (math.pi * (k - 0.5)))
    if k == 1:
        return 1.0
    if k == 2:
        return 2.0 / math.pi
    num, den = 1.0, 1.0
    if k % 2 == 1:
        for j in range(1, k - 1, 2):
            num *= j
        for j in range(2, k, 2):
            den *= j
        return num / den
    for j in range(2, k - 1, 2):
        num *= j
    for j in range(3, k, 2):
        den *= j
    return (2.0 / math.pi) * num / den


def _orthonormalize(Z):
    # the Q of np.linalg.qr(Z), bit for bit and in its row-major layout (the
    # layout sets how the draws' reshapes reach BLAS), from the same two
    # LAPACK calls without np.linalg.qr's other copies
    qr, tau, _, _ = dgeqrf(Z)
    Q, _, _ = dorgqr(qr, tau)
    return np.ascontiguousarray(Q)


@dataclass
class NormInterval:
    """Bracket [alpha1, alpha2] for a spectral norm.

    alpha1 is a guaranteed lower bound; alpha2 holds with probability at
    least 1 - epsilon.  On a clean return alpha2 / alpha1 <= 1 + delta;
    otherwise ratio_not_met is set and the interval is still valid, just
    wider than requested.
    """

    alpha1: float
    alpha2: float
    delta: float
    epsilon: float
    iterations: int
    ratio_not_met: bool = False

    def __post_init__(self):
        if self.alpha1 > self.alpha2:
            raise ValueError("alpha1 must not exceed alpha2")

    @property
    def midpoint(self):
        return 0.5 * (self.alpha1 + self.alpha2)


@dataclass
class SsceConfig:
    """Sample count and randomness source for the small-sample estimators."""

    k: int = 3
    seed: int | None = None
    rng: np.random.Generator | None = None

    def make_rng(self):
        if self.rng is not None:
            return self.rng
        return np.random.default_rng(self.seed)


def _bidiag_smax(alphas, betas):
    # largest singular value of the upper bidiagonal projection: diag alphas,
    # superdiag betas; j x (j+1) when the trailing residual coupling is known
    j = len(alphas)
    if j == 0:
        return 0.0
    cols = j + 1 if len(betas) == j else j
    B = np.zeros((j, cols))
    B[np.arange(j), np.arange(j)] = alphas
    if betas:
        nb = len(betas)
        B[np.arange(nb), np.arange(1, nb + 1)] = betas
    return float(scipy.linalg.svdvals(B)[0])


def _reorth(w, basis):
    # two classical Gram-Schmidt passes against all previous vectors
    for _ in range(2):
        for prev in basis:
            w -= (prev @ w) * prev
    return w


def _gk_interval(op, delta, eps_each, rng, cap, det_bound):
    """One Golub-Kahan run: certified lower bound and probabilistic upper bound.

    The lower bound is the largest singular value of the projected bidiagonal
    matrix, hence always valid.  Upper bound candidates: the caller's
    deterministic cap; exactness when a Krylov side is exhausted or the
    recurrence breaks down (with the residual added as slack); and the
    Lanczos convergence bound for a random start, applied once at the final
    step so it consumes exactly the eps_each failure budget.
    """
    kout, pin = op.shape
    tiny = np.finfo(float).tiny
    v = rng.standard_normal(pin)
    v /= np.linalg.norm(v)
    V = [v]
    U = []
    alphas, betas = [], []
    theta = 0.0
    lower = 0.0
    upper_sure = det_bound if det_bound is not None else np.inf
    prob = np.inf
    # constant of the probabilistic Lanczos bound for a uniform random start
    kw_log = math.log(1.648 * math.sqrt(pin) / eps_each)
    steps = 0
    for j in range(1, cap + 1):
        steps = j
        u = np.asarray(op.matvec(V[-1]), dtype=float).ravel()
        if U:
            u -= betas[-1] * U[-1]
        u = _reorth(u, U)
        alpha = float(np.linalg.norm(u))
        if alpha <= max(tiny, 1e-13 * lower):
            # left space became invariant; the explored block is everything
            # the start vector can reach, up to the alpha-sized coupling
            upper_sure = min(upper_sure, lower + alpha)
            prob = np.inf
            break
        U.append(u / alpha)
        alphas.append(alpha)
        # B_j^T B_j equals the j-step Lanczos projection of the Gram operator
        theta = _bidiag_smax(alphas, betas)
        lower = max(lower, theta)
        e_rel = (kw_log / (2 * j - 1)) ** 2
        prob = theta / math.sqrt(1.0 - e_rel) if e_rel < 0.5 else np.inf
        if min(upper_sure, prob) <= (1.0 + delta) * lower:
            break
        if j == pin:
            upper_sure = min(upper_sure, theta)  # right space exhausted: exact
            break
        w = np.asarray(op.rmatvec(U[-1]), dtype=float).ravel()
        w -= alpha * V[-1]
        w = _reorth(w, V)
        beta = float(np.linalg.norm(w))
        if beta <= max(tiny, 1e-13 * theta):
            upper_sure = min(upper_sure, theta + beta)  # invariant right space
            break
        theta_ext = _bidiag_smax(alphas, betas + [beta])
        lower = max(lower, theta_ext)
        if j == kout:
            upper_sure = min(upper_sure, theta_ext)  # left space exhausted: exact
            break
        if min(upper_sure, prob) <= (1.0 + delta) * lower:
            break
        betas.append(beta)
        V.append(w / beta)
    return lower, min(upper_sure, prob), steps


def spectral_interval(op, delta=1e-2, epsilon=1e-3, seed=None, det_bound=None):
    """Bracket the spectral norm of a linear operator.

    Parameters
    ----------
    op : anything scipy.sparse.linalg.aslinearoperator accepts
        Must support matvec and rmatvec.
    delta : float in (0, 1)
        Target interval width: iterate until alpha2 <= (1 + delta) alpha1.
    epsilon : float in (0, 1)
        Failure probability budget for the upper bound.  It also sets the
        number of independent restart vectors, ceil(log10(1/epsilon)), whose
        interval intersection is returned; each restart carries an equal
        share of the budget.
    seed : int, SeedSequence or Generator
    det_bound : float, optional
        A certified upper bound on the norm (for instance
        min(sqrt(norm1 * norminf), normF)) used to cap alpha2 from the start.

    Returns a NormInterval.  The lower bound is a Ritz singular value of the
    projected bidiagonal matrix (always valid); the upper bound combines the
    deterministic cap, exactness on Krylov exhaustion, and a probabilistic
    Lanczos convergence bound, so it holds with probability >= 1 - epsilon.
    If the iteration cap min(dim, 300) is reached before the target ratio,
    the interval is returned with ratio_not_met set.
    """
    if not (0.0 < delta < 1.0) or not (0.0 < epsilon < 1.0):
        raise ValueError("delta and epsilon must lie in (0, 1)")
    op = scipy.sparse.linalg.aslinearoperator(op)
    nmin = min(op.shape)
    cap = min(nmin, 300)
    restarts = max(1, math.ceil(math.log10(1.0 / epsilon)))
    eps_each = epsilon / restarts
    rng = np.random.default_rng(seed)
    alpha1 = 0.0
    alpha2 = det_bound if det_bound is not None else np.inf
    iters = 0
    for _ in range(restarts):
        lo, up, steps = _gk_interval(op, delta, eps_each, rng, cap, det_bound)
        iters += steps
        alpha1 = max(alpha1, lo)
        alpha2 = min(alpha2, up)
        if alpha2 <= (1.0 + delta) * alpha1:
            break
    if not np.isfinite(alpha2):
        alpha2 = max(alpha1, 0.0)
        ratio_not_met = True
    else:
        ratio_not_met = alpha2 > (1.0 + delta) * alpha1
    # absorb last-digit rounding of the Ritz values
    alpha1 *= 1.0 - 1e-12
    alpha2 *= 1.0 + 1e-12
    return NormInterval(
        alpha1=alpha1,
        alpha2=max(alpha2, alpha1),
        delta=delta,
        epsilon=epsilon,
        iterations=iters,
        ratio_not_met=ratio_not_met,
    )


def estimate_kappa2_pce(problem, params=None, delta=1e-2, epsilon=1e-3, seed=None,
                        return_interval=False):
    """Probabilistic estimate of the 2-norm condition number.

    Brackets the spectral norm of the factored form S (exact.normwise_map)
    in [alpha1, alpha2] with alpha2/alpha1 <= 1 + delta and returns the
    scaled midpoint, so the relative error is at most about delta/2 whenever
    the interval contract holds.  Golub-Kahan multiplies with the same S
    that gives the cap min(sqrt(||S||_1 ||S||_inf), ||S||_F).
    """
    params = params or CondParams()
    _, _, xi = params.scalars()
    S = normwise_map(problem, params)
    n1 = float(np.max(np.sum(np.abs(S), axis=0)))
    ninf = float(np.max(np.sum(np.abs(S), axis=1)))
    det = min(math.sqrt(n1 * ninf), float(np.linalg.norm(S)))
    interval = spectral_interval(S, delta=delta, epsilon=epsilon, seed=seed,
                                 det_bound=det)
    est = interval.midpoint / xi
    if return_interval:
        return est, interval
    return est


def estimate_kappa2_ssce(problem, params=None, config=None):
    """Small-sample estimate of the 2-norm condition number (identity L only).

    Draws k orthonormal directions Q, takes the per-direction condition
    values as the squared row norms of Q^T S (S the factored form,
    exact.normwise_map), and combines them with approximated Wallis
    factors: (w_k / w_n) ||Q^T S||_F / xi.
    """
    params = params or CondParams()
    config = config or SsceConfig()
    _, _, xi = params.scalars()
    if params.L is not None and not np.array_equal(
        np.asarray(params.L), np.eye(problem.n)
    ):
        raise ValueError("the small-sample 2-norm estimator is defined for L = I only")
    n = problem.n
    if config.k > n:
        raise ValueError("sample count k must not exceed n")
    rng = config.make_rng()
    Z = rng.standard_normal((n, config.k))
    Q = _orthonormalize(Z)
    S = normwise_map(problem, params)
    factor = wallis(config.k, approx=True) / wallis(n, approx=True)
    return float(factor * np.linalg.norm(Q.T @ S) / xi)


def estimate_kappa_inf_ssce(problem, params=None, config=None):
    """Small-sample estimates of the mixed and componentwise condition numbers.

    Draws k orthonormal directions jointly over (dA, db) (dimension
    m(n+1)), pushes them through the first-order map, and scales the
    entrywise root-sum-of-squares by the Wallis ratio.  Returns the pair
    (mixed, componentwise).
    """
    params = params or CondParams()
    config = config or SsceConfig()
    m, n = problem.m, problem.n
    t = m * (n + 1)
    jac = params_jacobian(problem, params)
    rng = config.make_rng()
    Z = rng.standard_normal((t, config.k))
    Q = _orthonormalize(Z)
    acc = np.zeros(jac.k)
    for i in range(config.k):
        z = Q[:, i]
        u = jac.apply(unvec(z[: m * n], (m, n)), z[m * n :])
        acc += u**2
    factor = wallis(config.k, approx=True) / wallis(t, approx=True)
    kappa_vec = factor * np.sqrt(acc)
    ltx = np.atleast_1d(params.l_matrix(n).T @ jac.x)
    return mixed_ratio(kappa_vec, ltx), componentwise_ratio(kappa_vec, ltx)
