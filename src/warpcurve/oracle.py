"""Independent brute-force cross-checks.

These deliberately avoid the code paths they certify.  The two finite-
difference Jacobians difference the residual without the chain rule,
by solver.fd_quotient: fd_jacobian one node at a time into a dense
array, fd_colored_jacobian one color of TorusGrid.coloring at a time
into the fixed sparse layout (Curtis, Powell & Reid, J. Inst. Math.
Appl. 13, 1974).  Both take the central step 1e-6 (1 + |z|_inf) and
shrink it by 10x, at most three times, on a ConeError; a non-finite
residual is a ShapeError.  The gradient check differences f_eval
directly, at the step GRAD_STEP, and the 2x2 eigensolver is the
half-angle form (mean +- radius, eigenvectors from the arctan2 angle).
The geometry takes its eigenpairs from a different closed form
(geometry.eig2_sym: the root of larger magnitude, the other as det /
root, the eigenvector from a cancellation-free null vector), so the
verify row "oracle: eig2 vs eigh eigenvalues" compares two independent
computations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConeError
from . import curvature, solver
from .grid import field_values

GRAD_STEP = 1e-6           # central step of fd_gradcheck


@dataclass
class OracleReport:
    max_abs_err: float
    max_rel_err: float
    location: object

    def __post_init__(self):
        if not (np.isfinite(self.max_abs_err) and self.max_abs_err >= 0):
            raise ValueError("oracle errors must be finite and nonnegative")


def fd_jacobian(z, s, hp):
    """Dense central-difference Jacobian of the residual."""
    return _shrinking_step(_fd_dense, z, s, hp)


def fd_colored_jacobian(z, s, hp):
    """Colored central-difference Jacobian of the residual, a CSR matrix
    in the grid's fixed layout."""
    # looked up at call time, so a wrapper around the solver's function
    # sees every call
    return _shrinking_step(solver._fd_colored_jacobian, z, s, hp)


def _shrinking_step(fd, z, s, hp):
    """fd(zvals, s, hp, step) at step 1e-6 (1 + |z|_inf), shrunk on
    ConeError."""
    zvals = field_values(z)
    step = 1e-6 * (1.0 + float(np.abs(zvals).max()))
    for attempt in range(4):
        try:
            return fd(zvals, s, hp, step)
        except ConeError:
            if attempt == 3:
                raise
            step /= 10.0


def _fd_dense(zvals, s, hp, step):
    grid = hp.grid
    return np.stack([solver.fd_quotient(zvals, s, hp, step, grid.unflatten(e))
                     for e in np.eye(grid.size)], axis=1)


def fd_gradcheck(spec, lam):
    """Central finite differences of f_eval against f_grad, at GRAD_STEP.

    lam is one point (n,) or a batch (..., n).  Every probe at +-10 step
    along each axis must stay in the cone, else ConeError names the first
    offending point before anything is evaluated.  The reported location
    is the worst coordinate for one point and the index (point...,
    coordinate) for a batch.
    """
    lam = np.asarray(lam, dtype=float)
    step = GRAD_STEP
    eye = np.eye(spec.n)
    guard = lam[..., None, None, :] \
        + np.array([1.0, -1.0])[:, None, None] * (10.0 * step) * eye
    outside = ~curvature.in_cone(spec, guard).all(axis=(-2, -1))
    if np.any(outside):
        point = _index(np.argmax(outside), outside.shape)
        where = f" at point {point}" if point else ""
        raise ConeError(
            f"lambda too close to the cone boundary for step {step:g}{where}",
            node=point or None)
    grad = curvature.f_grad(spec, lam)
    fd = (curvature.f_eval(spec, lam[..., None, :] + step * eye)
          - curvature.f_eval(spec, lam[..., None, :] - step * eye)) \
        / (2.0 * step)
    abs_err = np.abs(fd - grad)
    rel_err = abs_err / np.maximum(np.abs(grad), 1e-300)
    worst = _index(np.argmax(rel_err), rel_err.shape)
    return OracleReport(max_abs_err=float(abs_err.max()),
                        max_rel_err=float(rel_err[worst]),
                        location=worst[0] if lam.ndim == 1 else worst)


def _index(flat, shape):
    return tuple(int(i) for i in np.unravel_index(flat, shape))


def eig2_oracle(m):
    """Closed-form eigenpairs of symmetric 2x2 matrices (half-angle form).

    m is (..., 2, 2).  Returns eigenvalues (..., 2) sorted descending and
    the rotations Q (..., 2, 2) whose columns are the matching
    eigenvectors.
    """
    m = np.asarray(m, dtype=float)
    a, b, c = m[..., 0, 0], m[..., 0, 1], m[..., 1, 1]
    mean = 0.5 * (a + c)
    rad = np.hypot(0.5 * (a - c), b)
    lam = np.stack([mean + rad, mean - rad], axis=-1)
    theta = 0.5 * np.arctan2(2.0 * b, a - c)
    co, si = np.cos(theta), np.sin(theta)
    Q = np.stack([np.stack([co, -si], axis=-1),
                  np.stack([si, co], axis=-1)], axis=-2)
    return lam, Q
