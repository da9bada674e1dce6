"""Column-major vec, the 0^ddagger division rule, and the check of input data.

All vectorization in this package is column-major: for an m x n matrix A,
vec(A)[j*m + i] = A[i, j] (0-based).  The first-order map acts on vec(dA)
through its row-structured generators, so no vec-permutation or Kronecker
product is needed; the tests build those only for their dense oracles.
"""

import numpy as np


def checked_data(name, value, matrix):
    """``value`` as a real, finite float matrix (matrix=True) or flat vector.

    The boundary check of every problem constructor and of L: complex or
    non-finite input raises ValueError naming the argument instead of being
    truncated to its real part or failing inside LAPACK.
    """
    arr = np.asarray(value)
    if np.iscomplexobj(arr):
        raise ValueError(f"{name} must be real, got complex entries")
    arr = np.asarray(arr, dtype=float)
    if not matrix:
        arr = arr.ravel()
    elif arr.ndim != 2:
        raise ValueError(f"{name} must be a matrix")
    elif arr.shape[1] == 0:
        raise ValueError(f"{name} has no columns")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


def entrywise_div(a, b):
    """Divide a by b entrywise, passing entries through where b is zero.

    Zero divisors follow the convention 0^ddagger = 1: result[i] = a[i]
    whenever b[i] == 0, so a zero denominator never produces inf or nan.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    safe = np.where(b != 0.0, b, 1.0)
    return np.where(b != 0.0, a / safe, a)


def ddagger(b):
    """Entrywise pseudo-reciprocal: 1/b[i] where b[i] != 0, else 1."""
    b = np.asarray(b, dtype=float)
    safe = np.where(b != 0.0, b, 1.0)
    return np.where(b != 0.0, 1.0 / safe, 1.0)


def vec(A):
    """Stack the columns of A into one vector."""
    return np.asarray(A, dtype=float).ravel(order="F")


def unvec(v, shape):
    """Inverse of vec: reshape a length m*n vector into an m x n matrix."""
    m, n = shape
    v = np.asarray(v, dtype=float)
    if v.size != m * n:
        raise ValueError(f"cannot reshape length {v.size} into {m}x{n}")
    return v.reshape((m, n), order="F")
