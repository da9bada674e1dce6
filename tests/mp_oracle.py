"""Extended-precision reference condition numbers, computed with mpmath.

Every value is computed at DIGITS decimal digits from the double-precision
A and b as given, so its distance from the library's value is the error of
the double-precision route alone.  The route shares nothing with the
library's: M = A^T J A is formed and inverted by LU at the working
precision, the 2-norm value is sqrt(lambda_max) of the k x k Gram matrix of
the first-order map in its cross-product form, and the numerator of the
mixed and componentwise values is summed entry by entry.  The TLS map is
taken by central differences of the TLS solution itself, so it checks the
derivation of TlsProblem's generators as well as their evaluation.
"""

import mpmath
import numpy as np

DIGITS = 50


def mp_condition_numbers(A, b, p):
    """(kappa_2, mixed, componentwise) of the ILS problem on (A, b, diag(I_p, -I_q)).

    L = I and unit weights, returned as floats.  The Gram matrix is
    U^T K U with U = M^{-1} and
    K = ||r||^2 I + (||x||^2 + 1) A^T A - x (A^T r)^T - (A^T r) x^T.
    """
    m, n = A.shape
    with mpmath.workdps(DIGITS):
        mpf, fdot = mpmath.mpf, mpmath.fdot
        rows = [[mpf(float(v)) for v in row] for row in A]
        bm = [mpf(float(v)) for v in b]
        sig = [1] * p + [-1] * (m - p)
        cols = [list(col) for col in zip(*rows)]
        jcols = [[s * a for s, a in zip(sig, col)] for col in cols]

        M = mpmath.matrix(n, n)
        AtA = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(i, n):
                M[i, j] = M[j, i] = fdot(jcols[i], cols[j])
                AtA[i, j] = AtA[j, i] = fdot(cols[i], cols[j])
        Minv = mpmath.inverse(M)
        U = [[Minv[i, j] for j in range(n)] for i in range(n)]
        rhs = [fdot(jcols[i], bm) for i in range(n)]
        x = [fdot(U[i], rhs) for i in range(n)]
        r = [bj - fdot(row, x) for bj, row in zip(bm, rows)]
        w = [s * rj for s, rj in zip(sig, r)]
        Ucols = [list(col) for col in zip(*U)]
        V = [[s * fdot(row, uc) for uc in Ucols] for s, row in zip(sig, rows)]

        Atr = [fdot(col, r) for col in cols]
        K = (fdot(r, r) * mpmath.eye(n) + (fdot(x, x) + 1) * AtA
             - mpmath.matrix(x) * mpmath.matrix(Atr).T
             - mpmath.matrix(Atr) * mpmath.matrix(x).T)
        G = Minv.T * K * Minv
        kappa2 = mpmath.sqrt(max(mpmath.eigsy(G, eigvals_only=True)))

        num = []
        for i in range(n):
            total = fdot([abs(V[j][i]) for j in range(m)], [abs(bj) for bj in bm])
            for j in range(m):
                wu, vj = w[j], V[j][i]
                total += fdot([abs(wu * U[c][i] - vj * x[c]) for c in range(n)],
                              [abs(a) for a in rows[j]])
            num.append(total)
        mixed = max(num) / max(abs(xc) for xc in x)
        componentwise = max(ni / abs(xc) for ni, xc in zip(num, x))
        return float(kappa2), float(mixed), float(componentwise)


def mp_tls_kappa2(A, b):
    """kappa_2 of the TLS problem on (A, b) for L = I and unit weights, as a float.

    sigma_tilde^2 is lambda_min of [A, b]^T [A, b], Mt = A^T A - sigma_tilde^2 I
    is inverted by LU, and the generators are TlsProblem's: w = r,
    U = Mt^{-1}, V = A U + 2 r (x^T U) / (1 + ||x||^2).  The Gram matrix of
    the first-order map is
    ||w||^2 U^T U - c d^T - d c^T + (||x||^2 + 1) V^T V, c = U^T x, d = V^T w.
    """
    m, n = A.shape
    with mpmath.workdps(DIGITS):
        fdot = mpmath.fdot
        Am = mpmath.matrix([[mpmath.mpf(float(v)) for v in row] for row in A])
        bm = mpmath.matrix([mpmath.mpf(float(v)) for v in b])
        full = mpmath.matrix(m, n + 1)
        for i in range(m):
            for j in range(n):
                full[i, j] = Am[i, j]
            full[i, n] = bm[i]
        sigma2 = min(mpmath.eigsy(full.T * full, eigvals_only=True))
        Minv = mpmath.inverse(Am.T * Am - sigma2 * mpmath.eye(n))
        x = Minv * (Am.T * bm)
        r = bm - Am * x
        xx = fdot(x, x)
        U = Minv
        V = Am * U + (2 / (1 + xx)) * r * (x.T * U)
        c = U.T * x
        d = V.T * r
        G = fdot(r, r) * (U.T * U) - c * d.T - d * c.T + (xx + 1) * (V.T * V)
        return float(mpmath.sqrt(max(mpmath.eigsy(G, eigvals_only=True))))


def _mp_data(A, b):
    """[A, b] as an mpmath matrix of the doubles given."""
    return mpmath.matrix([[mpmath.mpf(float(v)) for v in row] + [mpmath.mpf(float(bi))]
                          for row, bi in zip(A, b)])


def _mp_tls_solve(data, n):
    """x = (C_11 - sigma_tilde^2 I)^{-1} c_12 for C = data^T data, sigma_tilde^2 = lambda_min(C)."""
    C = data.T * data
    sigma2 = min(mpmath.eigsy(C, eigvals_only=True))
    return mpmath.lu_solve(C[0:n, 0:n] - sigma2 * mpmath.eye(n), C[0:n, n])


def mp_tls_x(A, b):
    """The TLS solution on (A, b) at DIGITS digits, from its definition, as floats."""
    with mpmath.workdps(DIGITS):
        return np.array([float(v) for v in _mp_tls_solve(_mp_data(A, b), A.shape[1])])


def mp_tls_map(A, b):
    """(x, G): the TLS solution on (A, b) and its first-order map, as floats.

    Each of the m (n + 1) entries of [A, b] is moved by +h and by -h,
    h = 1e-20, and the TLS solution re-solved at DIGITS digits from its
    definition: with C = [A, b]^T [A, b], sigma_tilde^2 = lambda_min(C) and
    x = (C_11 - sigma_tilde^2 I)^{-1} c_12, where C_11 = A^T A and
    c_12 = A^T b.  Column j m + i of the n x (m n + m) central difference
    G is the derivative along A's entry (i, j) and column m n + i the one
    along b_i, the column order of conftest.dense_generator_map.  Its
    truncation error is O(h^2) and its rounding O(10^-DIGITS / h), both far
    below double precision; no generator formula is used.
    """
    m, n = A.shape
    with mpmath.workdps(DIGITS):
        h = mpmath.mpf(10) ** -20
        full = _mp_data(A, b)

        def solve(data):
            return _mp_tls_solve(data, n)

        G = mpmath.matrix(n, m * (n + 1))
        for j in range(n + 1):
            for i in range(m):
                entry = full[i, j]
                full[i, j] = entry + h
                plus = solve(full)
                full[i, j] = entry - h
                minus = solve(full)
                full[i, j] = entry
                for c in range(n):
                    G[c, j * m + i] = (plus[c] - minus[c]) / (2 * h)
        x = solve(full)
        return (np.array([float(v) for v in x]),
                np.array([[float(G[c, k]) for k in range(m * (n + 1))] for c in range(n)]))
