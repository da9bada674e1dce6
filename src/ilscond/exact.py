"""Exact partial condition numbers of an ILS or TLS instance.

Covers the unified weighted form under the induced (2,2) and (inf,inf)
norms, the scalar-weight 2-norm, the infinity-norm mixed and componentwise
forms, and an SVD cross-check of the least squares case for tests.  The
first-order map from (dA, db) to d(L^T x) is row-structured, so no
m*n + m column matrix is formed: every spectral norm is sqrt(lambda_max)
of a k x k Gram matrix (_gram_norm), and every infinity norm a row sum.
With scalar weights the Gram matrix is S S^T of the Jacobian's
k x (2m + n) factored form S.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kron import checked_data, ddagger, entrywise_div, vec

DENSE_ENTRY_GUARD = 50_000_000
ROWSUM_BLOCK_ENTRIES = 1 << 16


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

    def __post_init__(self):
        for name in ("psi", "beta", "xi"):
            w = getattr(self, name)
            if not np.all(np.isfinite(w)):
                raise ValueError(f"weight {name} must be finite")
            if np.isscalar(w) and not w > 0:
                raise ValueError(f"scalar weight {name} must be strictly positive")

    def l_matrix(self, n):
        return np.eye(n) if self.L is None else _checked_l(self.L, n)

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

    def weights(self, name, shape):
        """Weight ``name`` as an array of ``shape``: a scalar fills it, a vector is raveled."""
        w = getattr(self, name)
        if np.isscalar(w):
            return np.full(shape, float(w))
        w = np.asarray(w, dtype=float)
        if len(shape) == 1:
            w = w.ravel()
        if w.shape != shape:
            raise ValueError(f"{name} must be a scalar or an array of shape {shape}")
        return w


def _checked_l(L, n):
    """L as a real, finite n x l matrix with 1 <= l <= n: the check of every route that reads L."""
    L = checked_data("L", L, matrix=True)
    if L.shape[0] != n:
        raise ValueError(f"L must have {n} rows, got {L.shape[0]}")
    if L.shape[1] > n:
        raise ValueError("L may have at most n columns")
    return L


class JacobianMg:
    """Row-structured k x (m n + m) first-order map from (dA, db) to d(L^T x).

    Row i acts on vec(dA) as vec(w u_i^T - v_i x^T) and on db as v_i, with
    u_i, v_i the i-th columns of U and V.  Each problem class supplies its
    own generators in ``_build_jacobian`` (for the ILS map w = J r,
    U = M^{-1} L and V = J A M^{-1} L).  Memory stays at the O((m + n) k)
    generators and, once asked for, the k x (2m + n) factored form; dense()
    builds a new array on each call and keeps none.
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
        self._unit_factored = None

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

    def dense(self):
        """Materialize the k x (m n + m) matrix (guarded); diagnostics and test oracles only."""
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
        return out

    def factored(self, psi, beta):
        """k x (2m + n) S with S S^T = weighted_gram for constant weights psi, beta.

        S = [psi ||w|| (U^T - c x^T), -beta V^T, psi ||x|| (V^T - c w^T)],
        c = V^T w / ||w||^2 (0 when w = 0, the w -> 0 limit).  Only the
        generators enter, so this holds for the ILS and the TLS map alike.
        The unit-weight S is built once and returned itself, read-only, for
        psi = beta = 1; other weights scale a copy of its columns.
        """
        if self._unit_factored is None:
            self._unit_factored = self._form_unit_factored()
            self._unit_factored.flags.writeable = False
        if psi == 1 and beta == 1:
            return self._unit_factored
        return self._unit_factored * np.repeat([psi, beta, psi], [self.n, self.m, self.m])

    def _form_unit_factored(self):
        wn = float(np.linalg.norm(self.w))
        c = (self.V.T @ self.w) / wn**2 if wn > 0.0 else np.zeros(self.k)
        B1 = wn * (self.U.T - np.outer(c, self.x))
        B3 = float(np.linalg.norm(self.x)) * (self.V.T - np.outer(c, self.w))
        return np.hstack([B1, -self.V.T, B3])

    def weighted_gram(self, Wa, wb, rowscale):
        """Gram matrix F F^T (k x k) of F = diag(rowscale) Mg diag([vec(Wa); wb]).

        Formed in O(m n k + k^2 (m + n)) without the m n + m columns.
        """
        W2 = np.square(np.asarray(Wa, dtype=float))
        UCV = self.U.T @ ((W2 * np.outer(self.w, self.x)).T @ self.V)
        G = self.U.T @ ((W2.T @ self.w**2)[:, None] * self.U)
        G += self.V.T @ ((W2 @ self.x**2 + np.ravel(wb) ** 2)[:, None] * self.V)
        G -= UCV + UCV.T
        G *= np.outer(rowscale, rowscale)
        return G

    def abs_weighted_rowsums(self, Wa, wb):
        """Rows of |Mg| times the stacked nonnegative weights [vec(Wa); wb].

        Rows are processed in blocks of at most ROWSUM_BLOCK_ENTRIES matrix
        entries (at least one row) in one (rows, m, n) buffer.  Row j is the
        rank-2 product [w, -v_j] [u_j^T; x^T], one stacked GEMM per block,
        summed by one unit-stride dot product with Wa, as its b part is with
        wb.  The result is independent of the block height; it is not bit
        for bit a row-by-row loop's, whose summation order differs.  Above
        desk size it depends on the BLAS thread count, which splits the
        long dots (4.3e-16 to 6.6e-16 relative at 400 x 200 between one and
        two OpenBLAS threads), so byte-identical outputs need a fixed count.
        """
        Wa = np.ascontiguousarray(Wa, dtype=float).reshape(-1, 1)
        wb = np.asarray(wb, dtype=float).reshape(-1, 1)
        m, n, k = self.m, self.n, self.k
        h = max(1, min(k, ROWSUM_BLOCK_ENTRIES // (m * n)))
        left, right = np.empty((k, m, 2)), np.empty((k, 2, n))
        left[:, :, 0], left[:, :, 1] = self.w, -self.V.T
        right[:, 0], right[:, 1] = self.U.T, self.x
        R = np.empty((h, m, n))
        # (k, 1, m) @ (m, 1) takes one unit-stride dot product per row
        out = np.matmul(np.abs(left[:, None, :, 1]), wb)[:, 0, 0]
        for i in range(0, k, h):
            r = np.matmul(left[i:i + h], right[i:i + h], out=R[: k - i])
            np.abs(r, out=r)
            out[i:i + h] += np.matmul(r.reshape(-1, 1, m * n), Wa)[:, 0, 0]
        return out

    @cached_property
    def data_numerator(self):
        """|Mg| |[vec(A); b]|, the numerator of the mixed and componentwise values."""
        return self.abs_weighted_rowsums(np.abs(self.A), np.abs(self.b))

    def structured_cols(self, basis_a):
        """Signed product Mg_A Phi_A of the A block with a basis (k x k1).

        Column j sums, over the entries (i, c, v) of parameter j, the rows
        v (w_i U[c] - x_c V[i]) of the first-order map, so it equals
        U^T (Phi_j^T w) - V^T (Phi_j x) with Phi_j parameter j's m x n
        matrix.  One bincount over the basis entries gathers each of
        P_w = [Phi_j^T w] (n x k1) and P_x = [Phi_j x] (m x k1), and the
        columns are U^T P_w - V^T P_x, two GEMMs.  The b block,
        unstructured, is V^T.
        """
        cols, rows = np.divmod(basis_a.index, self.m)
        k1, param, value = basis_a.k, basis_a.param, basis_a.value
        Pw = np.bincount(cols * k1 + param, weights=value * self.w[rows], minlength=self.n * k1)
        Px = np.bincount(rows * k1 + param, weights=value * self.x[cols], minlength=self.m * k1)
        return self.U.T @ Pw.reshape(self.n, k1) - self.V.T @ Px.reshape(self.m, k1)


class SharedJacobian:
    """Problem mixin: ``jacobian(L)``, the first-order map of L^T x.

    Subclasses build it in ``_build_jacobian(L)``.  Two maps are kept: the
    L = I map (L omitted) and the map of the most recent explicit L, keyed
    on L's shape and bytes, so every flavour with the same L shares one map
    and an L changed in place gets a fresh one.
    """

    _identity_jacobian = None
    _explicit_jacobian = (None, None)

    def jacobian(self, L=None):
        if L is None:
            if self._identity_jacobian is None:
                self._identity_jacobian = self._build_jacobian(None)
            return self._identity_jacobian
        L = _checked_l(L, self.n)
        key = (L.shape, L.tobytes())
        if self._explicit_jacobian[0] != key:
            self._explicit_jacobian = (key, self._build_jacobian(L))
        return self._explicit_jacobian[1]


def _gram_norm(G):
    """||F||_2 = sqrt(lambda_max(G)) from G = F F^T, relatively accurate to O(k eps)."""
    return float(np.sqrt(max(np.linalg.eigvalsh(G)[-1], 0.0)))


def kappa_unified(problem, params, mu=2, nu=2):
    """Weighted condition number under the induced (mu, nu) operator norm.

    Supports (2, 2) through the k x k Gram matrix of the weighted map
    (spectral norm; S S^T of the factored form for scalar psi and beta,
    weighted_gram for elementwise weights) and (inf, inf) through the
    row-structured absolute-value products; other norm pairs raise
    NotImplementedError before any work.
    """
    if (mu, nu) not in ((2, 2), (np.inf, np.inf)):
        raise NotImplementedError(f"induced ({mu}, {nu})-norm is not supported")
    jac = problem.jacobian(params.L)
    xi = params.weights("xi", (jac.k,))
    if mu == 2 and np.isscalar(params.psi) and np.isscalar(params.beta):
        F = ddagger(xi)[:, None] * jac.factored(params.psi, params.beta)
        return _gram_norm(F @ F.T)
    Wa = params.weights("psi", (problem.m, problem.n))
    wb = params.weights("beta", (problem.m,))
    if mu == np.inf:
        return componentwise_ratio(jac.abs_weighted_rowsums(np.abs(Wa), np.abs(wb)), xi)
    return _gram_norm(jac.weighted_gram(Wa, wb, ddagger(xi)))


def kappa_2ils(problem, params=None):
    """Partial 2-norm condition number ||S||_2 / xi of the factored form, via S S^T.

    Serves every problem with a ``jacobian``: IlsProblem and TlsProblem.
    """
    params = params or CondParams()
    psi, beta, xi = params.scalars()
    S = problem.jacobian(params.L).factored(psi, beta)
    return _gram_norm(S @ S.T) / xi


def mixed_ratio(num, ltx):
    """The mixed reduction max(num) / ||L^T x||_inf of a first-order numerator."""
    denom = float(np.max(np.abs(ltx))) if ltx.size else 0.0
    if denom == 0.0:
        raise UndefinedConditionNumber("L^T x vanishes in the infinity norm")
    return float(np.max(num)) / denom


def componentwise_ratio(num, ref):
    """The componentwise reduction max_i |num_i / ref_i|, with 0^ddagger = 1."""
    return float(np.max(np.abs(entrywise_div(num, np.abs(ref)))))


class ConditionReport:
    """Mixed, componentwise and structured condition numbers of one problem.

    Every field is a norm of the same first-order map Mg of L^T x, so the
    pieces the fields share are computed on first use and kept: the
    Jacobian (``problem.jacobian(L)``, which IlsProblem and TlsProblem both
    provide), L^T x, the structure parameters s1 of A and the structured
    columns Mg_A Phi_A.  b is unstructured, so its parameters are b and its
    columns the b block V^T of Mg.  The numerator |Mg| |[vec(A); b]| is kept
    on the Jacobian itself, so every report on one problem and L shares it.
    Reading every field builds each piece once.  The structured fields need
    ``sparams`` (a StructuredParams); structured_2 needs scalar weights and
    structured_general explicit varphi and theta.
    """

    def __init__(self, problem, params=None, sparams=None):
        self.problem = problem
        self.params = params or CondParams()
        self.sparams = sparams

    @cached_property
    def jac(self):
        return self.problem.jacobian(self.params.L)

    @cached_property
    def ltx(self):
        return np.atleast_1d(self.params.l_matrix(self.problem.n).T @ self.jac.x)

    @cached_property
    def extracted(self):
        """Structure parameters s1 of A; StructureMismatch if A is off-class."""
        if self.sparams is None:
            raise ValueError("structured condition numbers need structure parameters")
        return self.sparams.basisA.extract(self.problem.A)

    @cached_property
    def structured_cols(self):
        """Signed block Mg_A Phi_A, built after the data is checked."""
        self.extracted  # the data is checked before the map is built
        return self.jac.structured_cols(self.sparams.basisA)

    def structured_numerator(self, phi, theta):
        return np.abs(self.structured_cols) @ np.abs(phi) + np.abs(self.jac.V.T) @ np.abs(theta)

    @cached_property
    def data_structured_numerator(self):
        return self.structured_numerator(self.extracted, self.problem.b)

    @cached_property
    def mixed(self):
        """Mixed condition number: componentwise data perturbations, sup-norm output."""
        return mixed_ratio(self.jac.data_numerator, self.ltx)

    @cached_property
    def componentwise(self):
        """Componentwise condition number; zero outputs use the 0^ddagger rule."""
        return componentwise_ratio(self.jac.data_numerator, self.ltx)

    @cached_property
    def structured_2(self):
        """||F||_2 / xi via F F^T, F = [psi Mg_A Phi_A / d_A, beta Mg_b]."""
        psi, beta, xi = self.params.scalars()
        F = np.hstack([psi * self.structured_cols / self.sparams.basisA.d, beta * self.jac.V.T])
        return _gram_norm(F @ F.T) / xi

    @cached_property
    def structured_mixed(self):
        """Structured mixed condition number with the data's own parameters."""
        return mixed_ratio(self.data_structured_numerator, self.ltx)

    @cached_property
    def structured_componentwise(self):
        """Structured componentwise condition number (0^ddagger on zero outputs)."""
        return componentwise_ratio(self.data_structured_numerator, self.ltx)

    @cached_property
    def structured_general(self):
        """Structured infinity-norm value for explicit (varphi, theta) and xi."""
        self.extracted  # the data is checked first
        sp = self.sparams
        if sp.varphi is None or sp.theta is None:
            raise ValueError("general form needs explicit varphi and theta")
        phi = np.asarray(sp.varphi, dtype=float).ravel()
        theta = np.asarray(sp.theta, dtype=float).ravel()
        if phi.size != sp.basisA.k or theta.size != self.jac.m:
            raise ValueError("varphi/theta lengths do not match the bases")
        num = self.structured_numerator(phi, theta)
        return componentwise_ratio(num, self.params.weights("xi", (self.jac.k,)))


def kappa_mixed(problem, params=None):
    """Mixed condition number: componentwise data perturbations, sup-norm output."""
    return ConditionReport(problem, params).mixed


def kappa_componentwise(problem, params=None):
    """Componentwise condition number; zero output components use the 0^ddagger rule."""
    return ConditionReport(problem, params).componentwise


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
