"""Convergence-order verification with manufactured solutions.

Pick an exact wavy height field z_m, evaluate its continuum curvature
through analytic derivatives, and prescribe psi := f(lam(z_m)).  The
discrete residual at z_m is then pure stencil truncation error, so its
decay under grid doubling measures the discretization order directly.
Such prescriptions generally violate the decay hypothesis (c), which is
why build_manufactured skips the validation that build_prescription
always runs.
"""

import numpy as np

from warpcurve import (CurvatureSpec, WarpingProfile, make_grid,
                       manufactured_residual_norm, newton_solve)
from warpcurve.solver import build_manufactured

prof = WarpingProfile.cosh(0.2, 3.0)

for n, Ns in ((1, (64, 128, 256, 512)), (2, (24, 48, 96))):
    spec = CurvatureSpec(n, n)
    print(f"n = {n}, r = {n}, z_m = 1 + 0.01 sin(u)"
          + (" cos(v)" if n == 2 else ""))
    prev = None
    for N in Ns:
        err = manufactured_residual_norm(make_grid(n, N), prof, spec)
        rate = "" if prev is None else f"   order {np.log2(prev / err):.4f}"
        print(f"  N = {N:4d}: residual {err:.4e}{rate}")
        prev = err

# Newton started at the manufactured field converges to the nearby
# discrete solution in one or two steps
grid = make_grid(1, 256)
zm, hp = build_manufactured(grid, prof, CurvatureSpec(1, 1))
z, stats = newton_solve(zm, 1.0, hp)
print(f"\npolish from z_m: {stats.iterations} Newton steps, "
      f"|z - z_m| = {np.abs(z.values - zm.values).max():.2e} "
      f"(dx^2 = {grid.dx**2:.2e})")
