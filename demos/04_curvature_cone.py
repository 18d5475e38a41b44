"""The normalized curvature functions and their cone structure.

f(lam) = (S_r / C(n, r))^(1/r) on the Garding cone Gamma_r is degree-one
homogeneous, normalized so f(kappa, ..., kappa) = kappa, elliptic
(f_i > 0), and concave; Euler's relation saturates sum f_i lam_i = f.
"""

import numpy as np

from warpcurve import CurvatureSpec, check_structural, f_eval, f_grad, in_cone
from warpcurve.curvature import sample_cone
from warpcurve.geometry import matrix_derivative

spec = CurvatureSpec(n=2, r=2)
print("cone membership (Gamma_2 in dimension 2 is the positive quadrant):")
for lam in ([1.0, 1.0], [3.0, -0.1], [0.5, 2.0]):
    print(f"  lam = {lam}: in_cone = {in_cone(spec, lam)}")

lam = np.array([1.0, 4.0])
print(f"\nf(1, 4) = {f_eval(spec, lam)}   (sqrt(S_2) = 2)")
print(f"f_grad(1, 4) = {f_grad(spec, lam)}   (chain rule: 1, 0.25)")

# derivative with respect to the full symmetric matrix: the frame sum
# sum_k f_k q_k q_k^T over its eigenpairs, the sum Newton's Jacobian uses;
# smooth through the umbilic diag(0.8, 0.8), where it is f_1 I
m = np.array([[2.0, 1.0], [1.0, 2.0]])
print(f"\nmatrix derivative at [[2,1],[1,2]]:\n{matrix_derivative(spec, m)}")
for gap in (1e-3, 1e-9, 0.0):
    F = matrix_derivative(spec, np.diag([0.8 + gap, 0.8]))
    print(f"  at diag(0.8 + {gap:g}, 0.8): {np.diag(F)}")

# sampled structural report on a curvature slab
rep = check_structural(spec, mu1=0.5, mu2=2.0)
print(f"\nstructural report on the slab 0.5 <= f <= 2 "
      f"({rep.samples} samples):")
print(f"  min sum f_i           = {rep.min_sum_fi:.6f}")
print(f"  min sum f_i lam_i     = {rep.min_sum_fi_lambda:.6f}")
print(f"  Euler violation       = {rep.euler_violation:.2e}")
print(f"  concavity violation   = {rep.concavity_violation:.2e}")
print(f"  Schur-order violation = {rep.schur_violation:.2e}")
print(f"  note: {rep.note}")

# degree-one homogeneity means rays through the cone scale linearly
rng = np.random.default_rng(1)
pts = sample_cone(spec, rng, 3, 1.0, 1.0)
for p in pts:
    print(f"  f({p.round(3)}) = {f_eval(spec, p):.12f}, "
          f"f(2 lam) = {f_eval(spec, 2 * p):.12f}")
