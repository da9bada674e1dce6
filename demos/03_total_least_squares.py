"""Total least squares as a stacked indefinite problem, and its conditioning.

The TLS minimizer solves (A^T A - sigma^2 I) x = A^T b, where sigma is the
smallest singular value of [A, b].  Stacking [A; sigma I] with signature
diag(I, -I) turns this into an indefinite least squares problem whose
first-order analysis, composed with the dependence of sigma on the data,
yields the TLS condition numbers.  The two evaluation routes agree.
"""

import sys

import numpy as np

from ilscond import (
    CondParams,
    IlsProblem,
    SignatureSplit,
    kappa_2tls,
    kappa_componentwise_tls,
    kappa_composed_ils,
    kappa_mixed_tls,
    solve_tls,
    tls_blocks,
)

rng = np.random.default_rng(3)
m, n = 15, 4
A = rng.standard_normal((m, n))
b = A @ rng.standard_normal(n) + 0.3 * rng.standard_normal(m)

tls = solve_tls(A, b)
print(f"sigma_tilde = {tls.sigma_tilde:.6f}  (smallest sv of [A, b])")
print(f"sigma_n     = {tls.sigma_n:.6f}  (smallest sv of A)")
print(f"x (first 3) = {tls.x[:3]}")

# classical cross-check: last right singular vector of [A, b]
_, _, Vt = np.linalg.svd(np.column_stack([A, b]))
x_svd = -Vt[-1][:n] / Vt[-1][n]
print(f"agrees with the SVD route to {np.linalg.norm(tls.x - x_svd):.2e}")

params = CondParams()
direct = kappa_2tls(tls, params)
# the ILS problem on [A; sigma I] with signature diag(I_m, -I_n)
stacked = IlsProblem(np.vstack([A, tls.sigma_tilde * np.eye(n)]),
                     np.concatenate([b, np.zeros(n)]), SignatureSplit(m, n))
composed = kappa_composed_ils(stacked, tls_blocks(tls), params)
gap = abs(direct - composed) / direct
print(f"\nkappa_2 direct form:    {direct:.6e}")
print(f"kappa_2 composed route: {composed:.6e}  (relative gap {gap:.1e})")
print(f"kappa_mixed = {kappa_mixed_tls(tls):.4e}, "
      f"kappa_comp = {kappa_componentwise_tls(tls):.4e}")
if gap > 1e-9:
    sys.exit("the direct and composed routes disagree beyond 1e-9")
