"""Independent brute-force cross-checks.

These deliberately avoid the code paths they certify: the dense Jacobian
differentiates the residual one column at a time (no coloring, no chain
rule), the gradient check differences f_eval directly, and the 2x2
eigensolver is the half-angle form (mean +- radius, eigenvectors from
the arctan2 angle).  The geometry takes its eigenpairs from a different
closed form (geometry.eig2_sym: the root of larger magnitude, the other
as det / root, the eigenvector from a cancellation-free null vector), so
the verify row "oracle: eig2 vs eigh eigenvalues" compares two
independent computations; it keeps its name so reports stay comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConeError
from . import curvature
from .solver import residual


@dataclass
class OracleReport:
    quantity: str
    max_abs_err: float
    max_rel_err: float
    location: object

    def __post_init__(self):
        if not (np.isfinite(self.max_abs_err) and self.max_abs_err >= 0):
            raise ValueError("oracle errors must be finite and nonnegative")


def fd_jacobian(z, s, hp, step=None):
    """Dense central-difference Jacobian of the residual.

    Perturbs one node at a time; on a ConeError the step shrinks by 10x,
    at most three times.
    """
    zvals = np.asarray(z.values if hasattr(z, "values") else z, dtype=float)
    if step is None:
        step = 1e-6 * (1.0 + float(np.abs(zvals).max()))
    for attempt in range(4):
        try:
            return _fd_dense(zvals, s, hp, step)
        except ConeError:
            if attempt == 3:
                raise
            step /= 10.0


def _fd_dense(zvals, s, hp, step):
    grid = hp.grid
    size = grid.size
    J = np.empty((size, size))
    flat = grid.flatten(zvals).copy()
    for q in range(size):
        zp = flat.copy()
        zp[q] += step
        zm = flat.copy()
        zm[q] -= step
        rp = grid.flatten(residual(grid.unflatten(zp), s, hp).values)
        rm = grid.flatten(residual(grid.unflatten(zm), s, hp).values)
        J[:, q] = (rp - rm) / (2.0 * step)
    return J


def fd_gradcheck(spec, lam, step=1e-6):
    """Central finite differences of f_eval against f_grad at one point."""
    lam = np.asarray(lam, dtype=float)
    for i in range(spec.n):
        for sign in (+1.0, -1.0):
            probe = lam.copy()
            probe[i] += sign * 10.0 * step
            if not curvature.in_cone(spec, probe):
                raise ConeError(
                    f"lambda too close to the cone boundary for step {step:g}")
    grad = curvature.f_grad(spec, lam)
    fd = np.empty(spec.n)
    for i in range(spec.n):
        lp = lam.copy()
        lp[i] += step
        lm = lam.copy()
        lm[i] -= step
        fd[i] = (curvature.f_eval(spec, lp) - curvature.f_eval(spec, lm)) \
            / (2.0 * step)
    abs_err = np.abs(fd - grad)
    rel_err = abs_err / np.maximum(np.abs(grad), 1e-300)
    worst = int(np.argmax(rel_err))
    return OracleReport(quantity="f_grad vs central FD",
                        max_abs_err=float(abs_err.max()),
                        max_rel_err=float(rel_err[worst]),
                        location=worst)


def eig2_oracle(m):
    """Closed-form eigenpair of a symmetric 2x2 matrix (half-angle form).

    Returns eigenvalues sorted descending and the rotation Q whose columns
    are the matching eigenvectors.
    """
    m = np.asarray(m, dtype=float)
    a, b, c = m[0, 0], m[0, 1], m[1, 1]
    mean = 0.5 * (a + c)
    rad = np.hypot(0.5 * (a - c), b)
    lam = np.array([mean + rad, mean - rad])
    theta = 0.5 * np.arctan2(2.0 * b, a - c)
    co, si = np.cos(theta), np.sin(theta)
    Q = np.array([[co, -si], [si, co]])
    return lam, Q
