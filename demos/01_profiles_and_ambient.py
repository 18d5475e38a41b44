"""Warping profiles and the ambient quantities derived from them.

The warped metric dt^2 + h^2(t) dsigma^2 is fully described by h and its
first two derivatives.  Every slice {t} x M is umbilic with principal
curvature kappa = h'/h, and the mean-convexity hypothesis kappa > 0 is
what the whole construction rests on.
"""

import numpy as np

from warpcurve import (CurvatureSpec, WarpingProfile, ambient_curvature,
                       k_radial, kappa)

profiles = {
    "cosh  (increasing kappa)": WarpingProfile.cosh(0.2, 3.0),
    "exp   (constant kappa)  ": WarpingProfile.exp(-1.0, 2.0),
    "power (decreasing kappa)": WarpingProfile.power(2.0, 0.3, 3.0),
}

print("profile                      t      h(t)      kappa    c_rad    c_tan")
for name, prof in profiles.items():
    for t in (0.5, 1.0, 1.5):
        h, h1, h2 = prof.eval(t)
        cr, ct = ambient_curvature(prof, t)
        print(f"{name}  {t:4.2f}  {h:8.4f}  {kappa(prof, t):7.4f}  "
              f"{cr:7.4f}  {ct:7.4f}")

# the normalized curvature functions make the radial level k = f(kappa,...)
# independent of the order r
prof = profiles["cosh  (increasing kappa)"]
print("\nk(t) = f(kappa, ..., kappa) is the same for every order r:")
for r in (1, 2):
    spec = CurvatureSpec(n=2, r=r)
    print(f"  r={r}:  k(1.0) = {k_radial(prof, spec, 1.0):.15f}"
          f"   (tanh(1) = {np.tanh(1.0):.15f})")

# a tabulated profile: same numbers through a not-a-knot cubic spline
ts = np.linspace(0.1, 3.2, 300)
table = WarpingProfile.from_table(ts, np.cosh(ts))
h, h1, h2 = table.eval(1.0)
print(f"\ntabulated cosh at t=1: h={h:.10f} (exact {np.cosh(1.0):.10f}), "
      f"h'={h1:.10f}, h''={h2:.10f}")
