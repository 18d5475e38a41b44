"""Extrinsic geometry of a graph in the warped product.

For a wavy height field over the 2-torus we compute the full per-node
package (W, metric, second fundamental form, shape operator, principal
curvatures, support function) and check the structural identities that
hold for any graph.
"""

import numpy as np

from warpcurve import WarpingProfile, compute_geometry, make_grid
from warpcurve.geometry import special_frame_deviations, support_identity_check

prof = WarpingProfile.cosh(0.2, 3.0)
g = make_grid(2, 48)
X, Y = g.coords()
z = 1.0 + 0.08 * np.sin(X) * np.cos(Y) + 0.03 * np.cos(2 * X)

geom = compute_geometry(z, g, prof)
print("height field z = 1 + 0.08 sin u cos v + 0.03 cos 2u on a 48x48 torus")
print(f"  W        in [{geom.W.min():.4f}, {geom.W.max():.4f}]")
print(f"  lam_max  in [{geom.lam[..., 0].min():.4f}, {geom.lam[..., 0].max():.4f}]")
print(f"  lam_min  in [{geom.lam[..., 1].min():.4f}, {geom.lam[..., 1].max():.4f}]")
print(f"  tau      in [{geom.tau.min():.4f}, {geom.tau.max():.4f}]")
print(f"  nu0 < 0 everywhere: {bool(np.all(geom.nu0 < 0))}")

# rank-one-update determinant identity det g = h^(2n-2) W^2
det_err = np.abs(np.linalg.det(geom.g) / (geom.h ** 2 * geom.W ** 2) - 1).max()
print(f"  det g identity: rel err {det_err:.2e}")

# a constant slice is umbilic with lam = kappa
geom_c = compute_geometry(np.full(g.shape, 1.0), g, prof)
print(f"  umbilic slice: max |lam - tanh(1)| = "
      f"{np.abs(geom_c.lam - np.tanh(1.0)).max():.2e}")

# the gradient-aligned special frame reproduces the shape operator
node = (7, 31)
dev = special_frame_deviations(geom, tuple(np.array([i]) for i in node))[0]
print(f"  special frame at node {node}: deviation {dev:.2e}")

# support-function gradient identities hold up to stencil truncation
err_eta, err_tau = support_identity_check(geom)
print(f"  support identities: err_eta {err_eta:.2e}, err_tau {err_tau:.2e} "
      f"(dx^2 = {g.dx**2:.2e})")
