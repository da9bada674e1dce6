"""Statistical condition estimators.

Three routes: a probabilistic spectral-norm interval (Golub-Kahan-Lanczos
lower bound plus a probabilistic upper bound) driving a 2-norm condition
estimate, a small-sample orthonormal-direction estimate of the same 2-norm
quantity, and a small-sample estimate of the mixed and componentwise
condition numbers, drawn in the subspace the first-order map reads.  All
randomness flows from explicit seeds.
"""

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from scipy.linalg.lapack import dgeqrf, dorgqr, dpotrf, dsterf, dtrtrs

from .exact import CondParams, ConditionReport, componentwise_ratio, mixed_ratio


def wallis(k):
    """Wallis factor sqrt(2 / (pi (k - 1/2))) for k-dimensional unit-sphere directions.

    Kenney & Laub's approximation of E|<z, e>| for z uniform on the unit
    sphere, Gamma(k/2) / (sqrt(pi) Gamma((k+1)/2)); it overshoots that value
    by 12.8 % at k = 1, 0.93 % at k = 3 and less than 1e-4 from k = 64.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    return math.sqrt(2.0 / (math.pi * (k - 0.5)))


def _orthonormal(rng, rows, cols):
    """Haar-random orthonormal columns, or rows when rows < cols (then the transpose).

    dgeqrf + dorgqr on a Gaussian draw, column-major, with the signs of R's
    diagonal divided out (Mezzadri, Notices AMS 2007): numpy's linalg.qr Q times those
    signs, bit for bit up to 128 columns (above, numpy's larger workspace makes LAPACK block).
    """
    qr, tau, _, _ = dgeqrf(rng.standard_normal((max(rows, cols), min(rows, cols))))
    Q, _, _ = dorgqr(qr, tau)
    Q *= np.copysign(1.0, np.diagonal(qr))
    return Q if rows >= cols else Q.T


def _wallis_ratio(k, dim, name):
    """w_k / w_dim for k orthonormal directions in R^dim; k is checked against
    dim (``name`` in the message) first."""
    if k > dim:
        raise ValueError(f"sample count k must not exceed {name}")
    return wallis(k) / wallis(dim)


def _directions(rng, dim, k, name):
    """k orthonormal Gaussian directions in R^dim, the columns of Q, and the Wallis
    ratio w_k / w_dim; k is checked against dim (``name`` in the message) first."""
    factor = _wallis_ratio(k, dim, name)
    return _orthonormal(rng, dim, k), factor


def _wishart(rng, nu, k):
    """A k x k Wishart(nu, I) draw, the Gram Y^T Y of a Gaussian nu x k Y.

    By Bartlett's decomposition R^T R, R upper triangular with R_ii^2 a
    chi-square with nu - i degrees of freedom (i = 0, ..., k - 1) and
    standard normals above the diagonal; for nu < k, where that needs
    nonpositive degrees, Y itself is drawn.  Row by row, as numpy's
    triangle and index helpers cost more than the draw at k = 3.
    """
    R = rng.standard_normal((min(nu, k), k))
    if nu >= k:
        for i in range(k):
            R[i, :i] = 0.0
            R[i, i] = math.sqrt(rng.chisquare(nu - i))
    return R.T @ R


def _unit(v):
    """(||v||, v / ||v||), with e_1 for v = 0; v is scaled by a power of two
    first, so no square overflows or underflows."""
    top = float(np.max(np.abs(v)))
    if top == 0.0:
        e1 = np.zeros(v.size)
        e1[0] = 1.0
        return 0.0, e1
    e = math.frexp(top)[1]
    s = np.ldexp(v, -e)
    norm = math.sqrt(s @ s)
    return math.ldexp(norm, e), s / norm


def _subspace_images(jac, g, W):
    """The k x jac.k transpose of Mg Q for k Haar directions Q in R^{m(n+1)}.

    Mg reads dA only through dA^T w and dA x.  In coordinates of R^{m x n}
    rotated so that w_hat = w / ||w|| leads the rows and x_hat the columns,
    a Gaussian direction Z = (dA, db) has dA^T w_hat = g_A, dA x_hat =
    w_hat (x_hat^T g_A) + (I - w_hat w_hat^T) g_B and db = g_b, with g =
    [g_A; g_B; g_b] ((n + 2m) x k, Gaussian; its g_B rows are projected in
    place).  The other (m - 1)(n - 1) coordinates enter only through their
    Gram W (Wishart).  Cholesky QR, Q = Z R^{-1} with R^T R = Z^T Z =
    g^T g + W, makes Q Haar, and Mg Q = (Mg Z) R^{-1} with
    Mg Z = ||w|| U^T g_A - V^T (w_hat (x^T g_A) + ||x|| g_B - g_b).
    """
    m, n = jac.m, jac.n
    wn, wh = _unit(jac.w)
    xn, xh = _unit(jac.x)
    gA, gB, gb = g[:n], g[n:n + m], g[n + m:]
    gB -= np.outer(wh, wh @ gB)
    R, info = dpotrf(g.T @ g + W)
    if info != 0:
        raise np.linalg.LinAlgError("Gram matrix of the sample directions is not positive definite")
    t = xn * (np.outer(wh, xh @ gA) + gB) - gb
    img = wn * (jac.U.T @ gA) - jac.V.T @ t
    return dtrtrs(R, img.T, trans=1)[0]


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

    def __post_init__(self):
        if not isinstance(self.k, Integral):
            raise TypeError("k must be an integer")
        if self.k < 1:
            raise ValueError("k must be at least 1")

    def make_rng(self):
        if self.rng is not None:
            return self.rng
        return np.random.default_rng(self.seed)


def _bidiag_smax(ab):
    # largest singular value of the j x (j+1) upper bidiagonal projection B
    # with diagonal ab[0] and superdiagonal ab[1] (ab[1, -1] = 0 while the
    # trailing residual coupling is unknown, which pads a square B with a zero
    # column), as sqrt(lambda_max(B^T B)) by dsterf on that order-(j+1)
    # tridiagonal; one power of two first scales the entries to at most 1, so
    # that no square overflows or underflows
    e = math.frexp(ab.max())[1]
    s = np.ldexp(ab, -e)
    sq = s * s
    d = np.zeros(s.shape[1] + 1)
    d[:-1] = sq[0]
    d[1:] += sq[1]
    lam, info = dsterf(d, s[0] * s[1])
    if info > 0:
        raise np.linalg.LinAlgError("eigenvalues of the bidiagonal projection did not converge")
    return math.ldexp(math.sqrt(max(lam[-1], 0.0)), e)


def _reorth(w, basis):
    # two classical Gram-Schmidt passes against the rows of basis
    for _ in range(2):
        w -= (basis @ w) @ basis
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
    # Krylov bases, one row per step; step j fills U[j-1] and V[j]
    U = np.empty((min(cap, kout), kout))
    V = np.empty((cap, pin))
    v = rng.standard_normal(pin)
    V[0] = v / np.linalg.norm(v)
    ab = np.zeros((2, cap))  # diagonal and superdiagonal of the bidiagonal projection
    theta = 0.0
    lower = 0.0
    upper_sure = det_bound if det_bound is not None else np.inf
    prob = np.inf
    # constant of the probabilistic Lanczos bound for a uniform random start
    kw_log = math.log(1.648 * math.sqrt(pin) / eps_each)
    steps = 0
    for j in range(1, cap + 1):
        steps = j
        u = op @ V[j - 1]
        if j > 1:
            u -= ab[1, j - 2] * U[j - 2]
            u = _reorth(u, U[: j - 1])
        alpha = math.sqrt(u @ u)
        if alpha <= max(tiny, 1e-13 * lower):
            # left space became invariant; the explored block is everything
            # the start vector can reach, up to the alpha-sized coupling
            upper_sure = min(upper_sure, lower + alpha)
            prob = np.inf
            break
        U[j - 1] = u / alpha
        ab[0, j - 1] = alpha
        # B_j^T B_j equals the j-step Lanczos projection of the Gram operator
        theta = _bidiag_smax(ab[:, :j])
        lower = max(lower, theta)
        e_rel = (kw_log / (2 * j - 1)) ** 2
        prob = theta / math.sqrt(1.0 - e_rel) if e_rel < 0.5 else np.inf
        if min(upper_sure, prob) <= (1.0 + delta) * lower:
            break
        if j == pin:
            upper_sure = min(upper_sure, theta)  # right space exhausted: exact
            break
        w = op.T @ U[j - 1]
        w -= alpha * V[j - 1]
        w = _reorth(w, V[:j])
        beta = math.sqrt(w @ w)
        if beta <= max(tiny, 1e-13 * theta):
            upper_sure = min(upper_sure, theta + beta)  # invariant right space
            break
        ab[1, j - 1] = beta
        theta_ext = _bidiag_smax(ab[:, :j])
        lower = max(lower, theta_ext)
        if j == kout:
            upper_sure = min(upper_sure, theta_ext)  # left space exhausted: exact
            break
        if min(upper_sure, prob) <= (1.0 + delta) * lower or j == cap:
            break
        V[j] = w / beta
    return lower, min(upper_sure, prob), steps


def spectral_interval(op, delta=1e-2, epsilon=1e-3, seed=None, det_bound=None):
    """Bracket the spectral norm of a matrix.

    Parameters
    ----------
    op : real 2-D array
        Golub-Kahan multiplies with op and op.T.
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
    op = np.asarray(op, dtype=float)
    if op.ndim != 2:
        raise ValueError(f"op must be a 2-D array, got {op.ndim} dimensions")
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

    Brackets the spectral norm of the factored form S (JacobianMg.factored)
    in [alpha1, alpha2] with alpha2/alpha1 <= 1 + delta and returns the
    scaled midpoint, so the relative error is at most about delta/2 whenever
    the interval contract holds.  Golub-Kahan multiplies with the same S
    that gives the cap min(sqrt(||S||_1 ||S||_inf), ||S||_F).
    """
    params = params or CondParams()
    psi, beta, xi = params.scalars()
    S = problem.jacobian(params.L).factored(psi, beta)
    abs_s = np.abs(S)
    n1 = float(np.max(np.sum(abs_s, axis=0)))
    ninf = float(np.max(np.sum(abs_s, axis=1)))
    # freed before the Golub-Kahan bases are allocated: kept alive, it cost 92
    # page faults (0.1-0.2 ms) per call on a 200 x 120 ex1 problem
    del abs_s
    det = min(math.sqrt(n1 * ninf), float(np.linalg.norm(S)))
    interval = spectral_interval(S, delta=delta, epsilon=epsilon, seed=seed,
                                 det_bound=det)
    est = interval.midpoint / xi
    if return_interval:
        return est, interval
    return est


def estimate_kappa2_ssce(problem, params=None, config=None):
    """Small-sample estimate of the 2-norm condition number, for any L.

    S is the factored form (JacobianMg.factored), with one row per column of
    L (n rows for the default L).  Draws k orthonormal directions Q in that
    many dimensions, takes the per-direction condition values as the
    squared row norms of Q^T S, and combines them with Wallis factors:
    (w_k / w_l) ||Q^T S||_F / xi, which estimates ||S||_F / xi.
    """
    params = params or CondParams()
    config = config or SsceConfig()
    psi, beta, xi = params.scalars()
    S = problem.jacobian(params.L).factored(psi, beta)
    Q, factor = _directions(config.make_rng(), S.shape[0], config.k,
                            "n" if params.L is None else "the columns of L")
    return float(factor * np.linalg.norm(Q.T @ S) / xi)


def estimate_kappa_inf_ssce(problem, params=None, config=None):
    """Small-sample estimates of the mixed and componentwise condition numbers.

    Pushes k Haar-orthonormal directions over (dA, db), in dimension
    m(n+1), through the first-order map, and scales the entrywise
    root-sum-of-squares by the Wallis ratio.  Returns the pair (mixed,
    componentwise).  The directions are drawn only in the coordinates the
    map reads (_subspace_images): (n + 2m) k normals and a k x k Wishart
    Gram in place of m(n+1) k normals and a tall QR.  That needs unweighted
    directions; a |d|-weighted draw would need its own reduction.
    """
    config = config or SsceConfig()
    m, n, k = problem.m, problem.n, config.k
    factor = _wallis_ratio(k, m * (n + 1), "m(n+1)")
    rng = config.make_rng()
    g = rng.standard_normal((n + 2 * m, k))
    W = _wishart(rng, (m - 1) * (n - 1), k)
    report = ConditionReport(problem, params)
    images = _subspace_images(report.jac, g, W)
    kappa_vec = factor * np.sqrt(np.einsum("ij,ij->j", images, images))
    return mixed_ratio(kappa_vec, report.ltx), componentwise_ratio(kappa_vec, report.ltx)
