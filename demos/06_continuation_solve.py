"""A full continuation solve, from the trivial problem to the target.

At s = 0 the equation f(lam) = phi(z) k(z) has the exact constant
solution z = t0; continuation tracks the branch while s deforms the right
side into the prescribed psi.  It tries the whole step to s = 1 first.
Newton abandons a step as soon as a correction fails to contract by 1/2
(Theta > 1/2); the continuation then halves ds, and it doubles ds again
after a step whose first contraction is at most 1/4.  Every accepted
state is admissible and stays strictly between the barriers.

The last problem poses the paper's general psi, one that is not of the
radial-decay form, through build_custom_prescription: a psi_fn and its
exact t derivative.
"""

import numpy as np

from warpcurve import (CurvatureSpec, WarpingProfile, barrier_crossings,
                       build_custom_prescription, build_homotopy,
                       build_prescription, continuation, make_grid, residual)
from warpcurve.problem import hypothesis_rows

prof = WarpingProfile.cosh(0.2, 3.0)
spec = CurvatureSpec(1, 1)
grid = make_grid(1, 256)
p = build_prescription(prof, spec, grid, c0=np.sinh(1.0), eps=0.1, mode=1,
                       t_minus=0.5, t_plus=1.5)
hp = build_homotopy(p, eps_phi=0.1)

z, report = continuation(hp)
print("     s    iters   residual      z range                cone margin")
for st in report.steps:
    print(f"  {st.s:5.2f}   {st.newton_iters:3d}   {st.residual:.3e}   "
          f"[{st.z_min:.6f}, {st.z_max:.6f}]   {st.cone_margin:.4f}")

lo, hi = barrier_crossings(p)
print(f"\ncrossing interval: [{lo:.6f}, {hi:.6f}]; all iterates inside: "
      f"{all(lo < st.z_min and st.z_max < hi for st in report.steps)}")
print(f"final residual: {np.abs(residual(z, 1.0, hp).values).max():.3e}")

# the same machinery in two dimensions with the scalar-curvature-type f
grid2 = make_grid(2, 48)
spec2 = CurvatureSpec(2, 2)
p2 = build_prescription(prof, spec2, grid2, c0=np.sinh(1.0), eps=0.1,
                        mode=(1, 1), t_minus=0.5, t_plus=1.5)
hp2 = build_homotopy(p2, eps_phi=0.1)
z2, rep2 = continuation(hp2)
print(f"\nn=2, r=2 on 48x48: reached s = {rep2.s_values[-1]}, "
      f"residual {rep2.final.residual:.2e}, "
      f"z in [{rep2.final.z_min:.6f}, {rep2.final.z_max:.6f}]")

# a crossing near the top of a wide slab, far from the anchor t0: the full
# step contracts too slowly, so the continuation subdivides it
p3 = build_prescription(prof, spec, grid, c0=np.sinh(2.85), eps=0.05, mode=2,
                        t_minus=0.21, t_plus=2.95)
z3, rep3 = continuation(build_homotopy(p3))
print(f"\ncrossing near t = 2.85, anchor t0 = {rep3.steps[0].z_min:.2f}: "
      f"steps ds = {[st.ds for st in rep3.steps[1:]]}, Newton iterations "
      f"{[st.newton_iters for st in rep3.steps]}")

# psi = (sinh 1 + 0.1 cos u) e^{-0.2 (t - 1)} / cosh t: h psi decreases
# strictly in t, so hypothesis (c) holds with room to spare


def psi(t, x):
    return (np.sinh(1.0) + 0.1 * np.cos(x[0])) * np.exp(-0.2 * (t - 1.0)) \
        / np.cosh(t)


def psi_t(t, x):
    return -(0.2 + np.tanh(t)) * psi(t, x)


grid4 = make_grid(1, 128)
p4 = build_custom_prescription(prof, spec, grid4, psi, psi_t, t_minus=0.5,
                               t_plus=1.5)
print("\ncustom psi = (sinh 1 + 0.1 cos u) e^{-0.2 (t - 1)} / cosh t, "
      "validated:")
for row in hypothesis_rows(p4):
    print(f"  {row.format(42)}")
lo4, hi4 = barrier_crossings(p4)
z4, rep4 = continuation(build_homotopy(p4, eps_phi=0.1))
print(f"  crossing interval: [{lo4:.6f}, {hi4:.6f}]")
print(f"  solved on N = 128: reached s = {rep4.s_values[-1]}, residual "
      f"{rep4.final.residual:.2e}, z in [{rep4.final.z_min:.6f}, "
      f"{rep4.final.z_max:.6f}], inside the crossings: "
      f"{lo4 < rep4.final.z_min and rep4.final.z_max < hi4}")
