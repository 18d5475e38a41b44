"""Barrier levels, the decaying gauge, and the homotopy conditions.

The prescription psi = (c0 + eps cos u)/h(t) crosses the radial level
k(t) once per node; the crossing heights are the tightest constant-slice
barriers.  The gauge phi interpolates the problem to one with the exact
constant solution t0 while keeping every slab condition strict.
"""

import numpy as np

from warpcurve import (CurvatureSpec, WarpingProfile, barrier_crossings,
                       build_homotopy, build_prescription, make_grid)

prof = WarpingProfile.cosh(0.2, 3.0)
spec = CurvatureSpec(1, 1)
grid = make_grid(1, 256)

p = build_prescription(prof, spec, grid, c0=np.sinh(1.0), eps=0.1, mode=1,
                       t_minus=0.5, t_plus=1.5)
print("prescription psi = (sinh 1 + 0.1 cos u)/cosh t validated:")
print(f"  hypotheses (a), (b), (c) hold on the 257-point lattice")

lo, hi = barrier_crossings(p)
print(f"  crossing heights: [{lo:.12f}, {hi:.12f}]")
print(f"  analytic values:  [asinh(sinh 1 - 0.1), asinh(sinh 1 + 0.1)] = "
      f"[{np.arcsinh(np.sinh(1) - 0.1):.12f}, "
      f"{np.arcsinh(np.sinh(1) + 0.1):.12f}]")

hp = build_homotopy(p, eps_phi=0.1)
print(f"\ngauge: phi(t0) = {hp.gauge.phi(hp.t0)} at t0 = {hp.t0}")
t = np.linspace(0.5, 1.5, 5)
print(f"  phi on the slab: {np.asarray(hp.gauge.phi(t)).round(4)}")
print(f"  phi' < 0 everywhere: "
      f"{bool(np.all(np.asarray(hp.gauge.phi_prime(t)) < 0))}")

print("\nhomotopy condition margins on the (257 t) x (256 u) x (5 s) lattice:")
for row in hp.homotopy_report():
    print(f"  {row.name:<40s} margin {row.value: .6e}  "
          f"{'ok' if row.passed else 'VIOLATED'}")

print("\nwith eps_phi = 0 the drift condition degenerates (negative control):")
hp0 = build_homotopy(p, t0=hp.t0, eps_phi=0.0)
for row in hp0.homotopy_report():
    print(f"  {row.name:<40s} margin {row.value: .6e}  "
          f"{'ok' if row.passed else 'VIOLATED'}")
