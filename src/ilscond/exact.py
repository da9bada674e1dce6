"""Exact partial condition numbers of an ILS instance.

Covers the unified weighted form under the induced (2,2) and (inf,inf)
norms, the two equivalent 2-norm closed forms, the infinity-norm mixed and
componentwise forms, and an independent SVD-based cross-check for the
ordinary least squares reduction.  The first-order map from (dA, db) to
d(L^T x) is row-structured: its 2-norms come from a k x k Gram matrix and
its infinity norms from row sums, so no m*n + m column matrix is formed.
"""

from dataclasses import dataclass

import numpy as np

from .kron import ddagger, entrywise_div, unvec, vec

DENSE_ENTRY_GUARD = 50_000_000


class UndefinedConditionNumber(ValueError):
    """The reference output L^T x vanishes, so a relative measure is undefined."""


@dataclass(frozen=True, eq=False)
class CondParams:
    """Weights and projector selecting which condition number is measured.

    L picks linear functionals of the solution (default: identity, the full
    solution).  psi and beta weight perturbations of A and b; they may be
    positive scalars or elementwise arrays.  xi scales the output (scalar or
    per-component vector).  A zero elementwise weight freezes the matching
    data entry: it removes that column of the weighted map rather than
    raising.
    """

    L: np.ndarray | None = None
    psi: float | np.ndarray = 1.0
    beta: float | np.ndarray = 1.0
    xi: float | np.ndarray = 1.0
    norm_mode: str = "two"

    def __post_init__(self):
        if self.norm_mode not in ("two", "inf"):
            raise ValueError("norm_mode must be 'two' or 'inf'")
        for name in ("psi", "beta", "xi"):
            w = getattr(self, name)
            if not np.all(np.isfinite(w)):
                raise ValueError(f"weight {name} must be finite")
            if np.isscalar(w) and not w > 0:
                raise ValueError(f"scalar weight {name} must be strictly positive")

    def l_matrix(self, n):
        if self.L is None:
            return np.eye(n)
        L = np.atleast_2d(np.asarray(self.L, dtype=float))
        if L.shape[0] == 1 and n > 1 and L.shape[1] == n:
            L = L.T
        if L.shape[0] != n:
            raise ValueError(f"L must have {n} rows, got {L.shape[0]}")
        if L.shape[1] > n:
            raise ValueError("L may have at most n columns")
        return L

    def scalars(self):
        """The (psi, beta, xi) triple, requiring all three to be scalars."""
        vals = []
        for name in ("psi", "beta", "xi"):
            w = getattr(self, name)
            if not np.isscalar(w):
                raise ValueError(
                    f"{name} must be a positive scalar for the 2-norm closed forms"
                )
            vals.append(float(w))
        return tuple(vals)

    def psi_matrix(self, m, n):
        if np.isscalar(self.psi):
            return np.full((m, n), float(self.psi))
        P = np.asarray(self.psi, dtype=float)
        if P.shape != (m, n):
            raise ValueError(f"elementwise psi must be {m}x{n}")
        return P

    def beta_vector(self, m):
        if np.isscalar(self.beta):
            return np.full(m, float(self.beta))
        v = np.asarray(self.beta, dtype=float).ravel()
        if v.size != m:
            raise ValueError(f"elementwise beta must have length {m}")
        return v

    def xi_vector(self, k):
        if np.isscalar(self.xi):
            return np.full(k, float(self.xi))
        v = np.asarray(self.xi, dtype=float).ravel()
        if v.size != k:
            raise ValueError(f"xi must have length {k}")
        return v


class JacobianMg:
    """Row-structured k x (m n + m) first-order map from (dA, db) to d(L^T x).

    Row i acts on vec(dA) as vec(w u_i^T - v_i x^T) and on db as v_i, with
    u_i, v_i the i-th columns of U and V.  For the ILS map, w = J r,
    U = M^{-1} L and V = J A M^{-1} L; the total least squares first-order
    map has the same shape with its own generators.  Until dense() is
    called, memory stays at the O((m + n) k) generators.
    """

    def __init__(self, w, U, V, x, A, b):
        self.w = np.asarray(w, dtype=float)
        self.U = np.asarray(U, dtype=float)
        self.V = np.asarray(V, dtype=float)
        self.x = np.asarray(x, dtype=float)
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.m = self.V.shape[0]
        self.n = self.U.shape[0]
        self.k = self.U.shape[1]
        if self.V.shape[1] != self.k or self.w.size != self.m or self.x.size != self.n:
            raise ValueError("inconsistent generator dimensions")
        self._dense = None

    @classmethod
    def for_ils(cls, problem, L=None):
        if L is None:
            L = np.eye(problem.n)
        sol = problem.solution
        U = problem.apply_minv(L)
        V = problem.j_apply(problem.A @ U)
        return cls(problem.j_apply(sol.r), U, V, sol.x, problem.A, problem.b)

    @property
    def shape(self):
        return (self.k, self.m * self.n + self.m)

    def row(self, i):
        """The pair (Ra_i, rb_i): row i as an m x n matrix plus an m-vector."""
        Ra = np.outer(self.w, self.U[:, i]) - np.outer(self.V[:, i], self.x)
        return Ra, self.V[:, i].copy()

    def apply(self, dA, db):
        """Directional derivative of L^T x along the perturbation (dA, db)."""
        dA = np.asarray(dA, dtype=float)
        db = np.asarray(db, dtype=float).ravel()
        if dA.shape != (self.m, self.n) or db.size != self.m:
            raise ValueError("perturbation dimensions do not match the problem")
        return self.U.T @ (dA.T @ self.w) - self.V.T @ (dA @ self.x - db)

    def apply_flat(self, z):
        """Apply to a stacked [vec(dA); db] vector of length m n + m."""
        z = np.asarray(z, dtype=float).ravel()
        mn = self.m * self.n
        if z.size != mn + self.m:
            raise ValueError(f"operand length {z.size}, expected {mn + self.m}")
        return self.apply(unvec(z[:mn], (self.m, self.n)), z[mn:])

    def rmatvec(self, y):
        """Transpose action: returns the length m n + m vector Mg^T y."""
        y = np.asarray(y, dtype=float).ravel()
        Ra = np.outer(self.w, self.U @ y) - np.outer(self.V @ y, self.x)
        return np.concatenate([vec(Ra), self.V @ y])

    def dense(self):
        """Materialize the k x (m n + m) matrix (guarded against large sizes)."""
        if self._dense is None:
            entries = self.k * (self.m * self.n + self.m)
            if entries > DENSE_ENTRY_GUARD:
                raise MemoryError(
                    f"dense first-order map would hold {entries} entries "
                    f"(limit {DENSE_ENTRY_GUARD}); use the rows form"
                )
            out = np.empty(self.shape)
            for i in range(self.k):
                Ra, rb = self.row(i)
                out[i, : self.m * self.n] = vec(Ra)
                out[i, self.m * self.n:] = rb
            self._dense = out
        return self._dense

    def weighted_gram(self, Wa, wb, rowscale=None):
        """Gram matrix F F^T (k x k) of F = diag(rowscale) Mg diag([vec(Wa); wb]).

        Formed in O(m n k + k^2 (m + n)) without the m n + m columns.
        """
        W2 = np.square(np.asarray(Wa, dtype=float))
        UCV = self.U.T @ ((W2 * np.outer(self.w, self.x)).T @ self.V)
        G = self.U.T @ ((W2.T @ self.w**2)[:, None] * self.U)
        G += self.V.T @ ((W2 @ self.x**2 + np.ravel(wb) ** 2)[:, None] * self.V)
        G -= UCV + UCV.T
        if rowscale is not None:
            G *= np.outer(rowscale, rowscale)
        return G

    def abs_weighted_rowsums(self, Wa, wb):
        """Rows of |Mg| times the stacked nonnegative weights [vec(Wa); wb].

        Evaluated row by row in a fixed order (deterministic sums, O(m n)
        working memory per row).
        """
        Wa = np.asarray(Wa, dtype=float)
        wb = np.asarray(wb, dtype=float).ravel()
        out = np.empty(self.k)
        for i in range(self.k):
            Ra, rb = self.row(i)
            out[i] = float(np.sum(np.abs(Ra) * Wa) + np.abs(rb) @ wb)
        return out

    def structured_cols(self, basis_a, basis_b):
        """Signed products Mg * blkdiag(Phi_A, Phi_B) as (k x k1, k x k2) blocks.

        Each structure column is applied through its sparse support, so the
        inner products keep cancellation inside a structure parameter.
        """
        m, n = self.m, self.n
        GA = np.empty((self.k, basis_a.k))
        for j, (idx, vals) in enumerate(basis_a.supports):
            rows = idx % m
            cols = idx // m
            t1 = np.bincount(cols, weights=vals * self.w[rows], minlength=n)
            t2 = np.bincount(rows, weights=vals * self.x[cols], minlength=m)
            GA[:, j] = self.U.T @ t1 - self.V.T @ t2
        GB = np.empty((self.k, basis_b.k))
        for j, (idx, vals) in enumerate(basis_b.supports):
            GB[:, j] = self.V[idx].T @ vals
        return GA, GB


def build_mg(problem, params=None, mode="rows"):
    """First-order map of L^T x for an ILS problem, rows or dense form."""
    if mode not in ("rows", "dense"):
        raise ValueError("mode must be 'rows' or 'dense'")
    L = None if params is None else params.l_matrix(problem.n)
    jac = JacobianMg.for_ils(problem, L)
    if mode == "dense":
        jac.dense()
    return jac


def _induced_norm(mat, mu, nu):
    if (mu, nu) == (2, 2):
        return float(np.linalg.norm(mat, 2))
    if mu == np.inf and nu == np.inf:
        return float(np.max(np.sum(np.abs(mat), axis=1))) if mat.size else 0.0
    raise NotImplementedError(f"induced ({mu}, {nu})-norm is not supported")


def kappa_unified(problem, params, mu=2, nu=2):
    """Weighted condition number under the induced (mu, nu) operator norm.

    Supports (2, 2) through the k x k Gram matrix of the weighted map
    (spectral norm) and (inf, inf) through the row-structured absolute-value
    products; other norm pairs raise NotImplementedError before any work.
    """
    if (mu, nu) not in ((2, 2), (np.inf, np.inf)):
        raise NotImplementedError(f"induced ({mu}, {nu})-norm is not supported")
    jac = JacobianMg.for_ils(problem, params.l_matrix(problem.n))
    xi = params.xi_vector(jac.k)
    Wa = params.psi_matrix(problem.m, problem.n)
    wb = params.beta_vector(problem.m)
    if mu == np.inf:
        num = jac.abs_weighted_rowsums(np.abs(Wa), np.abs(wb))
        return float(np.max(np.abs(entrywise_div(num, np.abs(xi)))))
    G = jac.weighted_gram(Wa, wb, ddagger(xi))
    return float(np.sqrt(max(np.linalg.eigvalsh(G)[-1], 0.0)))


def normwise_map(problem, params):
    """The k x (2m + n) matrix whose spectral norm over xi is the 2-norm kappa.

    When r = 0 the rank-one corrections vanish identically; they are dropped,
    which is the r -> 0 limit of the cross-product form.
    """
    psi, beta, _ = params.scalars()
    L = params.l_matrix(problem.n)
    sol = problem.solution
    x, r = sol.x, sol.r
    U = problem.apply_minv(L)
    AU = problem.A @ U
    rn = float(np.linalg.norm(r))
    xn = float(np.linalg.norm(x))
    k = U.shape[1]
    if rn > 0.0:
        c = (AU.T @ r) / rn**2
        B1 = psi * rn * (U.T - np.outer(c, x))
        B3 = psi * xn * (AU.T - np.outer(c, r))
    else:
        B1 = np.zeros((k, problem.n))
        B3 = psi * xn * AU.T
    B2 = -beta * AU.T
    return np.hstack([B1, B2, B3])


def kappa_2ils(problem, params=None):
    """Partial 2-norm condition number via the factored k x (2m + n) form."""
    params = params or CondParams()
    _, _, xi = params.scalars()
    return float(np.linalg.norm(normwise_map(problem, params), 2)) / xi


def kappa_2ils_cross(problem, params=None):
    """2-norm condition number via the k x k cross-product form.

    Squares the data (it forms A^T A), so it is a consistency path for
    testing rather than the preferred evaluation.
    """
    params = params or CondParams()
    psi, beta, xi = params.scalars()
    L = params.l_matrix(problem.n)
    sol = problem.solution
    x, r = sol.x, sol.r
    rn2 = float(r @ r)
    xn2 = float(x @ x)
    Ar = problem.A.T @ r
    inner = psi**2 * rn2 * np.eye(problem.n)
    inner += (psi**2 * xn2 + beta**2) * (problem.A.T @ problem.A)
    inner -= psi**2 * (np.outer(x, Ar) + np.outer(Ar, x))
    U = problem.apply_minv(L)
    G = U.T @ inner @ U
    G = 0.5 * (G + G.T)
    return float(np.sqrt(max(np.linalg.norm(G, 2), 0.0))) / xi


def mixed_numerator(jac):
    """The vector |Mg| |vec(A, b)| evaluated through the rows form."""
    return jac.abs_weighted_rowsums(np.abs(jac.A), np.abs(jac.b))


def kappa_mixed_from_jac(jac, ltx):
    denom = float(np.max(np.abs(ltx))) if ltx.size else 0.0
    if denom == 0.0:
        raise UndefinedConditionNumber("L^T x vanishes in the infinity norm")
    return float(np.max(mixed_numerator(jac))) / denom


def kappa_componentwise_from_jac(jac, ltx):
    num = mixed_numerator(jac)
    return float(np.max(np.abs(entrywise_div(num, np.abs(ltx)))))


def kappa_mixed(problem, params=None):
    """Mixed condition number: componentwise data perturbations, sup-norm output."""
    L = None if params is None else params.l_matrix(problem.n)
    jac = JacobianMg.for_ils(problem, L)
    ltx = L.T @ problem.solution.x if L is not None else problem.solution.x
    return kappa_mixed_from_jac(jac, np.atleast_1d(ltx))


def kappa_componentwise(problem, params=None):
    """Componentwise condition number; zero output components use the 0^ddagger rule."""
    L = None if params is None else params.l_matrix(problem.n)
    jac = JacobianMg.for_ils(problem, L)
    ltx = L.T @ problem.solution.x if L is not None else problem.solution.x
    return kappa_componentwise_from_jac(jac, np.atleast_1d(ltx))


def kappa_lls_svd_check(A, b, params=None):
    """Least squares 2-norm condition number through the thin SVD closed form.

    Independent of the Cholesky solve path: solution, residual and condition
    number all come from one SVD of A.  Serves as an oracle for the J = I
    reduction of kappa_2ils.
    """
    params = params or CondParams()
    psi, beta, xi = params.scalars()
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    Um, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s[-1] <= max(A.shape) * np.finfo(float).eps * s[0]:
        raise np.linalg.LinAlgError("A is numerically rank deficient")
    x = Vt.T @ ((Um.T @ b) / s)
    r = b - A @ x
    L = params.l_matrix(A.shape[1])
    smat = np.sqrt(psi**2 * (r @ r) + (psi**2 * (x @ x) + beta**2) * s**2)
    mat = (smat / s**2)[:, None] * (Vt @ L)
    return float(np.linalg.norm(mat, 2)) / xi
