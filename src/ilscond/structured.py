"""Linear structure bases and the structured partial condition numbers.

A structure basis is the fixed matrix Phi mapping the independent parameters
of a matrix class (Toeplitz, Hankel, symmetric, stacked scaled copies) to its
vectorization.  For every supported kind the columns of Phi have disjoint
supports, hence Phi^T Phi = diag(d^2) with d the column norms.  Phi is kept
as three flat entry arrays (param, index, value), one entry per nonzero and
sorted by parameter, so embedding, extraction and the structured columns are
single scatters, bincounts and segment sums; dense copies exist only for
diagnostics.

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
EXTRACT_TOL = 1e-12  # largest relative projection residual extract() accepts


class StructureMismatch(ValueError):
    """Data does not belong to the declared structure class."""


class StructureBasis:
    """Sparse column basis Phi with orthogonal (disjoint-support) columns.

    Entry e of Phi sits at row index[e] (a flat column-major index into
    vec(data)) and column param[e] with value value[e]; the entries are
    stably sorted by param, so the entries of one parameter are contiguous.
    Every parameter in range(k) needs at least one entry; d holds the k
    column norms.  ``kind`` is the structure token of a problem file, which
    basis_from_token parses back into this basis.
    """

    def __init__(self, kind, shape, param, index, value):
        self.kind = kind
        self.shape = tuple(shape)
        order = np.argsort(param, kind="stable")
        self.param = np.asarray(param, dtype=np.intp)[order]
        self.index = np.asarray(index, dtype=np.intp)[order]
        self.value = np.asarray(value, dtype=float)[order]
        self.size = int(np.prod(self.shape))
        self.d = np.sqrt(np.bincount(self.param, weights=self.value**2))
        self.k = self.d.size

    @property
    def is_matrix(self):
        return len(self.shape) == 2

    def _scatter(self, s):
        # vec(Phi s): disjoint supports make each entry a single product
        return np.bincount(self.index, weights=s[self.param] * self.value,
                           minlength=self.size)

    def embed(self, s):
        """Assemble the structured data from its parameter vector."""
        s = np.asarray(s, dtype=float).ravel()
        if s.size != self.k:
            raise ValueError(f"parameter vector has length {s.size}, expected {self.k}")
        out = self._scatter(s)
        if self.is_matrix:
            return out.reshape(self.shape, order="F")
        return out

    def extract(self, data):
        """Recover the parameter vector of structured data.

        Uses the orthogonal projection s = diag(d^2)^{-1} Phi^T vec(data),
        exact for genuinely structured input.  Raises StructureMismatch when
        the projection residual exceeds EXTRACT_TOL relative to the Frobenius
        norm, naming the worst-offending entry.
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
        s = np.bincount(self.param, weights=self.value * v[self.index],
                        minlength=self.k) / self.d**2
        resid = v - self._scatter(s)
        scale = max(np.linalg.norm(v), 1.0)
        worst = int(np.argmax(np.abs(resid)))
        if np.abs(resid[worst]) > EXTRACT_TOL * scale:
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
        out[self.index, self.param] = self.value
        return out


def _grid_param(kind, m, n):
    """Parameter of every entry of an m x n matrix, in vec (column-major) order.

    Toeplitz numbers the first column (offsets i - j = 0..m-1) and then the
    first row's tail; Hankel numbers the antidiagonals i + j; symmetric
    numbers the upper triangle column by column; full numbers every entry.
    """
    jj, ii = np.divmod(np.arange(m * n), m)
    if kind == "toeplitz":
        return np.where(ii >= jj, ii - jj, m - 1 + jj - ii)
    if kind == "hankel":
        return ii + jj
    if kind == "symmetric":
        lo, hi = np.minimum(ii, jj), np.maximum(ii, jj)
        return hi * (hi + 1) // 2 + lo
    return jj * m + ii


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
        return StructureBasis("full", (m,), np.arange(m), np.arange(m), np.ones(m))
    if kind not in MATRIX_KINDS:
        raise ValueError(f"unsupported structure kind {kind!r}")
    if kind == "symmetric" and m != n:
        raise ValueError("symmetric structure needs a square shape")
    if kind != "stacked_scaled":
        return StructureBasis(kind, (m, n), _grid_param(kind, m, n),
                              np.arange(m * n), np.ones(m * n))
    if m % 2 != 0:
        raise ValueError("stacked_scaled needs an even row count")
    mb = m // 2
    base = make_basis(base_kind, mb, n)
    jj, ii = np.divmod(base.index, mb)
    top = jj * m + ii
    # each parameter keeps its top entries first, then the scaled copies; the
    # kind is the file token, whose repr of the scale round-trips exactly
    return StructureBasis(f"stacked_scaled:{base_kind}:{float(scale)!r}", (m, n),
                          np.concatenate([base.param, base.param]),
                          np.concatenate([top, top + mb]),
                          np.concatenate([base.value, scale * base.value]))


def basis_from_token(token, m, n):
    """Parse a structure kind token such as 'toeplitz' or 'stacked_scaled:toeplitz:0.5'."""
    parts = token.split(":")
    if parts[0] == "stacked_scaled":
        base = parts[1] if len(parts) > 1 else "toeplitz"
        scale = float(parts[2]) if len(parts) > 2 else 0.5
        return make_basis("stacked_scaled", m, n, base_kind=base, scale=scale)
    return make_basis(parts[0], m, n)


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
