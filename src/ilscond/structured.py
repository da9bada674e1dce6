"""Linear structure bases and the structured partial condition numbers.

A structure basis is the fixed matrix Phi mapping the independent parameters
of a matrix class (Toeplitz, Hankel, symmetric, stacked scaled copies) to its
vectorization.  Only A is structured: b keeps the identity basis, so its
parameters are b itself and its structured columns are the b block of the
first-order map.  For every supported kind the columns of Phi have disjoint
supports, hence Phi^T Phi = diag(d^2) with d the column norms.  Phi is kept
as three flat entry arrays (param, index, value), one entry per nonzero and
sorted by parameter, so embedding and extraction are single scatters and
bincounts, and the structured columns two bincounts and two GEMMs.
The entry arrays and d are read-only, so one basis can be shared by every
problem of its shape.

The structured condition numbers are fields of exact.ConditionReport, which
extracts the parameters of A and builds the structured columns Mg_A Phi once
for all flavours; the kappa_*_structured functions here each read one field
of a fresh report.
"""

from dataclasses import KW_ONLY, dataclass

import numpy as np

from .exact import ConditionReport
from .kron import vec

MATRIX_KINDS = ("toeplitz", "hankel", "symmetric", "stacked_scaled", "full")
EXTRACT_TOL = 1e-12  # largest relative projection residual extract() accepts


class StructureMismatch(ValueError):
    """Data does not belong to the declared structure class."""


class StructureBasis:
    """Sparse column basis Phi with orthogonal (disjoint-support) columns.

    Entry e of Phi sits at row index[e] (a flat column-major index into
    vec(data)) and column param[e] with value value[e]; the entries are
    stably sorted by param, so the entries of one parameter are contiguous.
    Every parameter in range(k) needs at least one entry; d holds the k
    column norms.  param, index, value and d are read-only.  ``kind`` is the
    structure token of a problem file, which basis_from_token parses back
    into this basis.
    """

    def __init__(self, kind, shape, param, index, value):
        self.kind = kind
        self.shape = tuple(shape)
        order = np.argsort(param, kind="stable")
        self.param = np.asarray(param, dtype=np.intp)[order]
        self.index = np.asarray(index, dtype=np.intp)[order]
        self.value = np.asarray(value, dtype=float)[order]
        self.size = int(np.prod(self.shape))
        # sums of value / c, c a power of two, scale exactly and keep d^2 finite
        self._c = np.ldexp(1.0, np.frexp(np.max(np.abs(self.value)))[1])
        self.d = self._c * np.sqrt(np.bincount(self.param, weights=(self.value / self._c)**2))
        self.k = self.d.size
        for a in (self.param, self.index, self.value, self.d):
            a.flags.writeable = False

    def _scatter(self, s):
        # vec(Phi s): disjoint supports make each entry a single product
        return np.bincount(self.index, weights=s[self.param] * self.value,
                           minlength=self.size)

    def embed(self, s):
        """Assemble the structured matrix from its parameter vector."""
        s = np.asarray(s, dtype=float).ravel()
        if s.size != self.k:
            raise ValueError(f"parameter vector has length {s.size}, expected {self.k}")
        return self._scatter(s).reshape(self.shape, order="F")

    def extract(self, data):
        """Recover the parameter vector of structured data.

        Uses the orthogonal projection s = diag(d^2)^{-1} Phi^T vec(data),
        exact for genuinely structured input.  Raises StructureMismatch when
        the projection residual exceeds EXTRACT_TOL relative to the Frobenius
        norm, taken as max |v| ||v / max |v||| so that it cannot overflow at
        any data scale, naming the worst-offending entry; zero data passes.
        """
        data = np.asarray(data, dtype=float)
        if data.shape != self.shape:
            raise ValueError(f"data shape {data.shape}, expected {self.shape}")
        v = vec(data)
        s = np.bincount(self.param, weights=self.value / self._c * v[self.index],
                        minlength=self.k) / (self.d / self._c)**2 / self._c
        resid = v - self._scatter(s)
        worst = int(np.argmax(np.abs(resid)))
        top = np.max(np.abs(v))
        if top > 0 and np.abs(resid[worst]) > EXTRACT_TOL * top * np.linalg.norm(v / top):
            i, j = worst % self.shape[0], worst // self.shape[0]
            raise StructureMismatch(f"data is not {self.kind}-structured: "
                                    f"entry ({i}, {j}) deviates by {resid[worst]:.3e}")
        return s


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


def make_basis(kind, m, n, base_kind="toeplitz", scale=0.5):
    """Build the structure basis of an m x n matrix.

    Parameters
    ----------
    kind : str
        One of 'toeplitz', 'hankel', 'symmetric', 'stacked_scaled', 'full'.
    m, n : int
        Matrix dimensions, positive integers; for 'stacked_scaled' m counts
        the rows of the full stacked matrix [B; scale * B] and must be even.
    base_kind, scale : str, float
        Only for 'stacked_scaled': the structure of the repeated block, any
        kind but 'stacked_scaled', and the finite multiplier of the second
        copy.
    """
    if kind not in MATRIX_KINDS:
        raise ValueError(f"unsupported structure kind {kind!r}")
    for name, dim in (("m", m), ("n", n)):
        if not isinstance(dim, (int, np.integer)) or dim < 1:
            raise ValueError(f"{name} must be a positive integer, got {dim!r}")
    if kind == "symmetric" and m != n:
        raise ValueError("symmetric structure needs a square shape")
    if kind != "stacked_scaled":
        return StructureBasis(kind, (m, n), _grid_param(kind, m, n),
                              np.arange(m * n), np.ones(m * n))
    if base_kind == "stacked_scaled":
        # its kind could name only one of the two scales, so basis_from_token rejects it
        raise ValueError("stacked_scaled cannot be its own base kind")
    if m % 2 != 0:
        raise ValueError("stacked_scaled needs an even row count")
    if not np.isfinite(scale):
        raise ValueError(f"stacked_scaled needs a finite scale, got {scale!r}")
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
    """The basis whose ``kind`` is token: a matrix kind other than 'stacked_scaled',
    or 'stacked_scaled:<such a kind>:<finite scale>'; else a ValueError naming it."""
    kind, *rest = token.split(":")
    blocks = [k for k in MATRIX_KINDS if k != "stacked_scaled"]
    if kind in blocks and not rest:
        return make_basis(kind, m, n)
    if kind == "stacked_scaled" and len(rest) == 2 and rest[0] in blocks:
        try:
            scale = float(rest[1])
        except ValueError:
            scale = np.nan
        if np.isfinite(scale):
            return make_basis(kind, m, n, base_kind=rest[0], scale=scale)
    raise ValueError(f"unsupported structure token {token!r}")


@dataclass(frozen=True, eq=False)
class StructuredParams:
    """Structure basis of A plus the weights of the general form.

    b is not structured: its basis is the identity, so its parameters are
    the entries of b.  The keyword-only varphi (one weight per parameter of
    A) and theta (one per entry of b) default to the data's own parameters
    s1 and b, which is the choice the mixed and componentwise forms require.
    """

    basisA: StructureBasis
    _: KW_ONLY
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
