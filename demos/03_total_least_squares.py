"""Total least squares as a stacked indefinite problem, and its conditioning.

The TLS minimizer solves (A^T A - sigma^2 I) x = A^T b, where sigma is the
smallest singular value of [A, b].  Stacking [A; sigma I] with signature
diag(I, -I) turns this into an indefinite least squares problem with the
same solution.  Composing that problem's first-order map with the
dependence of sigma on the data gives the TLS map, and its 2-norm, kappa_2,
is attained: re-solving along the map's top right singular vector moves x
by kappa_2 times the step, to first order.
"""

import sys

import numpy as np

from ilscond import (
    IlsProblem,
    SignatureSplit,
    TlsProblem,
    kappa_2tls,
    kappa_componentwise_tls,
    kappa_mixed_tls,
)

rng = np.random.default_rng(3)
m, n = 15, 4
A = rng.standard_normal((m, n))
b = A @ rng.standard_normal(n) + 0.3 * rng.standard_normal(m)

tls = TlsProblem(A, b)
print(f"sigma_tilde = {tls.sigma_tilde:.6f}  (smallest sv of [A, b])")
print(f"sigma_n     = {tls.sigma_n:.6f}  (smallest sv of A)")
print(f"x (first 3) = {tls.x[:3]}")

# classical cross-check: last right singular vector of [A, b]
_, _, Vt = np.linalg.svd(np.column_stack([A, b]))
x_svd = -Vt[-1][:n] / Vt[-1][n]
print(f"agrees with the SVD route to {np.linalg.norm(tls.x - x_svd):.2e}")

# the ILS problem on [A; sigma I] with signature diag(I_m, -I_n)
stacked = IlsProblem(np.vstack([A, tls.sigma_tilde * np.eye(n)]),
                     np.concatenate([b, np.zeros(n)]), SignatureSplit(m, n))
stack_gap = np.linalg.norm(stacked.solution.x - tls.x) / np.linalg.norm(tls.x)
print(f"stacked ILS solution agrees to {stack_gap:.1e} (relative)")

# re-solve at (A, b) +- h z for the top right singular vector z of the map:
# the map and its factored form S share their left singular vectors, so z is
# the adjoint Mg^T u = (w (U u)^T - (V u) x^T, V u) of S's top one, normalized
kappa = kappa_2tls(tls)
jac = tls.jacobian()
u = np.linalg.svd(jac.factored(1, 1))[0][:, 0]
zA, zb = np.outer(jac.w, jac.U @ u) - np.outer(jac.V @ u, jac.x), jac.V @ u
norm = np.sqrt(np.sum(zA**2) + zb @ zb)
h = 1e-5
dA, db = h * zA / norm, h * zb / norm
dx = (TlsProblem(A + dA, b + db).x - TlsProblem(A - dA, b - db).x) / (2 * h)
attained = np.linalg.norm(dx) / kappa - 1
print(f"\nkappa_2 = {kappa:.6e}")
print(f"||dx|| / kappa_2 - 1 along the top direction: {attained:.1e}")
print(f"kappa_mixed = {kappa_mixed_tls(tls):.4e}, "
      f"kappa_comp = {kappa_componentwise_tls(tls):.4e}")
if stack_gap > 1e-12:
    sys.exit("the stacked ILS problem does not reproduce the TLS solution")
if abs(attained) > 1e-8:
    sys.exit("re-solving along the top direction does not attain kappa_2 to 1e-8")
