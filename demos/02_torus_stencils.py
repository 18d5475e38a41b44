"""Periodic stencils on the flat torus and their convergence orders.

The base manifold is discretized as (R/LZ)^n with centered differences of
order 2 or 4; integer-frequency trigonometric fields are exactly periodic
for the default L = 2 pi, which makes order measurements clean.
"""

import numpy as np

from warpcurve import NodeField, l2_norm, make_grid

print("gradient error for z = sin u under grid doubling:")
for order in (2, 4):
    errs = []
    for N in (32, 64, 128):
        g = make_grid(1, N, order=order)
        u = g.coords()[0]
        err = np.abs(g.gradient(np.sin(u))[0] - np.cos(u)).max()
        errs.append(err)
    rates = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    print(f"  order {order}: errors {[f'{e:.2e}' for e in errs]}, "
          f"measured rates {[f'{r:.3f}' for r in rates]}")

# the l2 norm carries the volume weight: that of sin over one period is
# sqrt(pi)
g = make_grid(1, 256)
sin = NodeField(np.sin(g.coords()[0]), g)
print(f"\nl2 norm of sin: {l2_norm(sin):.8f}  (sqrt(pi) = "
      f"{np.sqrt(np.pi):.8f})")

# centered first differences are exactly skew-adjoint on the torus, which
# is the discrete integration-by-parts identity
rng = np.random.default_rng(0)
g2 = make_grid(2, 32)
z = rng.normal(size=g2.shape)
w = rng.normal(size=g2.shape)
lhs = (g2.gradient(z)[0] * w).sum()
rhs = -(z * g2.gradient(w)[0]).sum()
print(f"skew-adjointness defect: {abs(lhs - rhs):.3e}")

# the mixed second derivative is one product stencil applied once, so the
# Hessian is exactly symmetric by construction
X, Y = g2.coords()
H = g2.hessian(np.sin(X) * np.cos(2 * Y))
print(f"hessian symmetry defect: {np.abs(H[0, 1] - H[1, 0]).max():.1f}")
