"""Warping profiles and the ambient quantities derived from them.

The warped metric dt^2 + h^2(t) dsigma^2 is fully described by h and its
first two derivatives.  Every slice {t} x M is umbilic with principal
curvature kappa = h'/h, and the mean-convexity hypothesis kappa > 0 is
what the whole construction rests on.
"""

import numpy as np

from warpcurve import (CurvatureSpec, WarpingProfile, ambient_curvature,
                       f_eval, kappa)

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

# the normalized curvature functions make the radial level
# k = f(kappa, ..., kappa) equal to kappa itself, to the bit, for every r
kap = kappa(profiles["cosh  (increasing kappa)"], 1.0)
print(f"\nk(t) = f(kappa, kappa) is kappa = {kap:.17g} at t = 1:")
for r in (1, 2):
    k = f_eval(CurvatureSpec(n=2, r=r), (kap, kap))
    print(f"  r={r}:  f(kappa, kappa) = {k:.17g}   equal: {k == kap}")

# a tabulated profile: same numbers through a not-a-knot cubic spline
ts = np.linspace(0.1, 3.2, 300)
table = WarpingProfile.from_table(ts, np.cosh(ts))
h, h1, h2 = table.eval(1.0)
print(f"\ntabulated cosh at t=1: h={h:.10f} (exact {np.cosh(1.0):.10f}), "
      f"h'={h1:.10f}, h''={h2:.10f}")
