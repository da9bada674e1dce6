"""Linear structure bases and the structured partial condition numbers.

A structure basis is the fixed matrix Phi mapping the independent parameters
of a matrix class (Toeplitz, Hankel, symmetric, stacked scaled copies) to its
vectorization.  For every supported kind the columns of Phi have disjoint
supports, hence Phi^T Phi = diag(d^2) with d the column norms.  Phi is kept
as per-parameter index/value lists; dense copies exist only for diagnostics.

The structured condition numbers are fields of exact.ConditionReport, which
extracts the data parameters and builds the structured columns Mg Phi once
for all flavours; the kappa_*_structured functions here each read one field
of a fresh report.
"""

from dataclasses import dataclass

import numpy as np

from .exact import ConditionReport
from .kron import vec

MATRIX_KINDS = ("toeplitz", "hankel", "symmetric", "stacked_scaled", "full")
VECTOR_KINDS = ("full",)


class StructureMismatch(ValueError):
    """Data does not belong to the declared structure class."""


class StructureBasis:
    """Sparse column basis Phi with orthogonal (disjoint-support) columns.

    supports is a list with one (flat_index_array, value_array) pair per
    independent parameter; flat indices address vec(data) column-major.
    """

    def __init__(self, kind, shape, supports):
        self.kind = kind
        self.shape = tuple(shape)
        self.supports = [
            (np.asarray(idx, dtype=np.intp), np.asarray(vals, dtype=float))
            for idx, vals in supports
        ]
        self.k = len(self.supports)
        self.size = int(np.prod(self.shape))
        self.d = np.array([np.linalg.norm(vals) for _, vals in self.supports])

    @property
    def is_matrix(self):
        return len(self.shape) == 2

    def embed(self, s):
        """Assemble the structured data from its parameter vector."""
        s = np.asarray(s, dtype=float).ravel()
        if s.size != self.k:
            raise ValueError(f"parameter vector has length {s.size}, expected {self.k}")
        out = np.zeros(self.size)
        for sj, (idx, vals) in zip(s, self.supports):
            out[idx] += sj * vals
        if self.is_matrix:
            return out.reshape(self.shape, order="F")
        return out

    def extract(self, data, tol=1e-12):
        """Recover the parameter vector of structured data.

        Uses the orthogonal projection s = diag(d^2)^{-1} Phi^T vec(data),
        exact for genuinely structured input.  Raises StructureMismatch when
        the projection residual exceeds tol relative to the Frobenius norm,
        naming the worst-offending entry.
        """
        data = np.asarray(data, dtype=float)
        if self.is_matrix:
            if data.shape != self.shape:
                raise ValueError(f"data shape {data.shape}, expected {self.shape}")
            v = vec(data)
        else:
            v = data.ravel()
            if v.size != self.size:
                raise ValueError(f"data length {v.size}, expected {self.size}")
        s = np.array([(vals @ v[idx]) / d**2 for (idx, vals), d in zip(self.supports, self.d)])
        resid = v - vec(self.embed(s)) if self.is_matrix else v - self.embed(s)
        scale = max(np.linalg.norm(v), 1.0)
        worst = int(np.argmax(np.abs(resid)))
        if np.abs(resid[worst]) > tol * scale:
            if self.is_matrix:
                i, j = worst % self.shape[0], worst // self.shape[0]
                where = f"entry ({i}, {j})"
            else:
                where = f"entry {worst}"
            raise StructureMismatch(
                f"data is not {self.kind}-structured: {where} deviates by {resid[worst]:.3e}"
            )
        return s

    def dense(self):
        """Dense Phi (size x k); diagnostics and test oracles only."""
        out = np.zeros((self.size, self.k))
        for j, (idx, vals) in enumerate(self.supports):
            out[idx, j] = vals
        return out


def _toeplitz_supports(m, n):
    # parameters ordered first column (offsets i-j = 0..m-1) then first row tail
    flat = np.arange(m * n).reshape((m, n), order="F")
    ii = flat % m
    jj = flat // m
    supports = []
    for off in range(m):
        idx = flat[ii - jj == off].ravel()
        supports.append((np.sort(idx), np.ones(idx.size)))
    for off in range(1, n):
        idx = flat[jj - ii == off].ravel()
        supports.append((np.sort(idx), np.ones(idx.size)))
    return supports


def _hankel_supports(m, n):
    flat = np.arange(m * n).reshape((m, n), order="F")
    ii = flat % m
    jj = flat // m
    supports = []
    for t in range(m + n - 1):
        idx = flat[ii + jj == t].ravel()
        supports.append((np.sort(idx), np.ones(idx.size)))
    return supports


def _symmetric_supports(n):
    supports = []
    for j in range(n):
        for i in range(j + 1):
            if i == j:
                supports.append((np.array([j * n + i]), np.array([1.0])))
            else:
                supports.append(
                    (np.array([j * n + i, i * n + j]), np.array([1.0, 1.0]))
                )
    return supports


def make_basis(kind, m, n=None, base_kind="toeplitz", scale=0.5):
    """Build a structure basis.

    Parameters
    ----------
    kind : str
        One of 'toeplitz', 'hankel', 'symmetric', 'stacked_scaled', 'full'
        for matrices (n given), or 'full' for vectors (n omitted).
    m, n : int
        Data dimensions; for 'stacked_scaled' m counts the rows of the full
        stacked matrix [B; scale * B] and must be even.
    base_kind, scale : str, float
        Only for 'stacked_scaled': the structure of the repeated block and
        the multiplier of the second copy.
    """
    if n is None:
        if kind not in VECTOR_KINDS:
            raise ValueError(f"unsupported vector structure kind {kind!r}")
        supports = [(np.array([i]), np.array([1.0])) for i in range(m)]
        return StructureBasis("full", (m,), supports)
    if kind not in MATRIX_KINDS:
        raise ValueError(f"unsupported structure kind {kind!r}")
    if kind == "toeplitz":
        return StructureBasis(kind, (m, n), _toeplitz_supports(m, n))
    if kind == "hankel":
        return StructureBasis(kind, (m, n), _hankel_supports(m, n))
    if kind == "symmetric":
        if m != n:
            raise ValueError("symmetric structure needs a square shape")
        return StructureBasis(kind, (n, n), _symmetric_supports(n))
    if kind == "stacked_scaled":
        if m % 2 != 0:
            raise ValueError("stacked_scaled needs an even row count")
        mb = m // 2
        base = make_basis(base_kind, mb, n)
        supports = []
        for idx, vals in base.supports:
            ii = idx % mb
            jj = idx // mb
            top = jj * m + ii
            bot = jj * m + ii + mb
            supports.append(
                (np.concatenate([top, bot]), np.concatenate([vals, scale * vals]))
            )
        basis = StructureBasis(kind, (m, n), supports)
        basis.base_kind = base_kind
        basis.scale = float(scale)
        return basis
    # full: one parameter per entry
    supports = [(np.array([e]), np.array([1.0])) for e in range(m * n)]
    return StructureBasis("full", (m, n), supports)


def basis_from_token(token, m, n):
    """Parse a structure kind token such as 'toeplitz' or 'stacked_scaled:toeplitz:0.5'."""
    parts = token.split(":")
    if parts[0] == "stacked_scaled":
        base = parts[1] if len(parts) > 1 else "toeplitz"
        scale = float(parts[2]) if len(parts) > 2 else 0.5
        return make_basis("stacked_scaled", m, n, base_kind=base, scale=scale)
    return make_basis(parts[0], m, n)


def basis_token(basis):
    """Inverse of basis_from_token for the supported kinds."""
    if basis.kind == "stacked_scaled":
        return f"stacked_scaled:{basis.base_kind}:{basis.scale:g}"
    return basis.kind


@dataclass(frozen=True, eq=False)
class StructuredParams:
    """Structure bases for A and b plus the effective weight parameters.

    varphi and theta default to the extracted data parameters s1 and s2,
    which is the choice the mixed and componentwise forms require.
    """

    basisA: StructureBasis
    basisB: StructureBasis
    varphi: np.ndarray | None = None
    theta: np.ndarray | None = None


def kappa_2ils_structured(problem, params, sparams):
    """Structured partial 2-norm condition number (scalar weights)."""
    return ConditionReport(problem, params, sparams).structured_2


def kappa_mixed_structured(problem, params, sparams):
    """Structured mixed condition number with the data's own parameters."""
    return ConditionReport(problem, params, sparams).structured_mixed


def kappa_componentwise_structured(problem, params, sparams):
    """Structured componentwise condition number (0^ddagger on zero outputs)."""
    return ConditionReport(problem, params, sparams).structured_componentwise


def kappa_inf_structured_general(problem, params, sparams):
    """Structured infinity-norm condition number for general (varphi, theta, xi)."""
    return ConditionReport(problem, params, sparams).structured_general
