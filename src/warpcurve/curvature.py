"""Normalized r-th mean curvature functions on Garding cones.

The admissible symmetric function of order r in dimension n is

    f(lam) = (S_r(lam) / C(n, r)) ** (1/r),

defined on the cone Gamma_r = {S_1 > 0, ..., S_r > 0}, in the dimensions
n = 1, 2 of the torus base (CurvatureSpec takes no other).  The
normalization makes f homogeneous of degree one with f(1, ..., 1) = 1, so
the radial level k(t) = f(kappa, ..., kappa) equals kappa(t) for every r,
Euler's relation gives sum_i f_i lam_i = f exactly, and f is concave on
Gamma_r.  The problem layer therefore takes kappa itself as the level
(ambient.k_level).  f_eval(kappa, ..., kappa) is kappa bit for bit:
S_1 / 1 and (kappa + kappa) / 2 are exact in binary64, and so is
the correctly rounded square root of fl(kappa^2) while kappa^2 neither
under- nor overflows (about 1e-154 < kappa < 1e154); the tests pin it on
the batch path (sqrt) and on the single-point path (libm pow) alike.

Every function takes one point (n,) or a batch (..., n).  A single point
and a batch can differ in the last bit: on a single point the powers are
Python-float or NumPy-scalar `**`, which call libm pow, while on an array
NumPy turns `** 0.5` into sqrt and otherwise runs its SIMD power loop.
On an AVX-512 machine, over 200k values uniform in [0.5, 3), the two
differed on 149 values at exponent 0.5 and on 10,392 at exponent -0.5.
The solver evaluates whole grids, so oracle.fd_gradcheck runs on
batches too and certifies the array path; geometry.matrix_derivative,
the frame sum that verify checks for Newton's M, flattens even a single
matrix into a batch for the same reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConeError, ConfigError

_SAMPLES = 2000        # cone points check_structural samples on a slab


@dataclass(frozen=True)
class CurvatureSpec:
    """Order r and dimension n of the curvature function: n in {1, 2},
    as on the torus grid, and 1 <= r <= n."""

    n: int
    r: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ConfigError(f"dimension n must be 1 or 2, got {self.n}")
        if not 1 <= self.r <= self.n:
            raise ConfigError(f"order r must satisfy 1 <= r <= n={self.n}")

    @property
    def normalization(self):
        return float(math.comb(self.n, self.r))


def sym_poly(lam, q):
    """Elementary symmetric polynomial S_q over the last axis (n = 1, 2),
    1 <= q <= n, the orders the cone margin reads.

    The recurrence e_m += lam_i e_{m-1} is unrolled, one operation per
    step of it, so the result is the recurrence's bit for bit (-0.0, NaN
    and inf included): S_1 = (0 + l0) + l1 and S_2 = 0 + l1 (0 + l0),
    l1 * 1 being l1 exactly.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if n not in (1, 2) or not 1 <= q <= n:
        raise ConfigError(f"need n in (1, 2) and 1 <= q <= n, got n = {n}, "
                          f"q = {q}")
    if n == 1:
        out = 0.0 + lam[..., 0]
    else:
        e1 = 0.0 + lam[..., 0]
        out = e1 + lam[..., 1] if q == 1 else 0.0 + lam[..., 1] * e1
    return float(out) if out.ndim == 0 else out


def _sym_poly_recurrence(lam, q):
    """S_q of lam (..., n) by the recurrence over the entries: the tests'
    reference for the unrolled sym_poly."""
    n = lam.shape[-1]
    batch = lam.shape[:-1]
    e = np.zeros(batch + (q + 1,))
    e[..., 0] = 1.0
    for i in range(n):
        li = lam[..., i]
        top = min(i + 1, q)
        for m in range(top, 0, -1):
            e[..., m] += li * e[..., m - 1]
    return e[..., q]


def _sym_poly_reduced(lam, q):
    """S_q(lam | i) with entry i omitted, shape batch + (n,), 0 <= q < n.

    Summed over the other entries directly: the recurrence
    e_q(lam|i) = e_q(lam) - lam_i e_{q-1}(lam|i) cancels when lam_i
    dominates.  At n = 1, 2 it is S_0 = 1 or, at n = 2, S_1 of the other
    entry, 0 + l_j.
    """
    lam = np.asarray(lam, dtype=float)
    return np.ones(lam.shape) if q == 0 else 0.0 + lam[..., ::-1]


def _cone_polys(spec, lam):
    """[S_1, ..., S_r] of lam, as sym_poly returns them, and their
    minimum, an array (0-d for one point): the cone margin."""
    polys = [sym_poly(lam, q) for q in range(1, spec.r + 1)]
    m = np.asarray(polys[0])
    for p in polys[1:]:
        m = np.minimum(m, p)
    return polys, m


def cone_margin(spec, lam):
    """min over 1 <= q <= r of S_q(lam); positive iff lam is in Gamma_r."""
    _, out = _cone_polys(spec, lam)
    return float(out) if out.ndim == 0 else out


def in_cone(spec, lam):
    """Membership in the Garding cone Gamma_r (strict inequalities)."""
    m = cone_margin(spec, lam)
    if np.ndim(m) == 0:
        return bool(m > 0)
    return m > 0


def _require_cone(spec, lam):
    """ConeError unless lam lies in Gamma_r; returns [S_1, ..., S_r]."""
    polys, m = _cone_polys(spec, lam)
    if not np.all(m > 0):  # a NaN margin too
        if m.ndim == 0:
            raise ConeError(f"lambda outside Gamma_{spec.r}: margin {float(m):.3e}")
        flat = int(np.argmin(m))
        node = tuple(int(i) for i in np.unravel_index(flat, m.shape))
        raise ConeError(
            f"lambda outside Gamma_{spec.r} at node {node}: "
            f"margin {float(m.ravel()[flat]):.3e}", node=node)
    return polys


def f_eval(spec, lam):
    """Normalized curvature value (S_r / C(n,r)) ** (1/r) on Gamma_r."""
    lam = np.asarray(lam, dtype=float)
    Sr = _require_cone(spec, lam)[-1]
    val = (Sr / spec.normalization) ** (1.0 / spec.r)
    return float(val) if np.ndim(val) == 0 else val


def f_grad(spec, lam):
    """Partial derivatives f_i, all positive on Gamma_r.

    f_i = (1/r) (S_r/C)^(1/r - 1) S_{r-1}(lam|i) / C.
    """
    lam = np.asarray(lam, dtype=float)
    C = spec.normalization
    r = spec.r
    Sr = np.asarray(_require_cone(spec, lam)[-1])
    red = _sym_poly_reduced(lam, r - 1)
    out = (1.0 / r) * (Sr / C) ** (1.0 / r - 1.0)
    return out[..., None] * red / C


@dataclass
class StructuralReport:
    """Sampled extrema of the structural conditions on a cone slab."""

    samples: int
    min_sum_fi: float
    min_sum_fi_lambda: float
    euler_violation: float
    concavity_violation: float
    min_fi: float
    schur_violation: float
    note: ClassVar[str] = (
        "on the cone boundary the normalized f tends to 0, so the limsup "
        "condition holds whenever inf psi > 0")


def sample_cone(spec, rng, count, fmin, fmax):
    """Random points of Gamma_r rescaled so f lands in [fmin, fmax]."""
    out = np.empty((count, spec.n))
    got = 0
    while got < count:
        cand = rng.uniform(-1.0, 2.0, size=(4 * (count - got) + 16, spec.n))
        keep = cand[in_cone(spec, cand)]
        take = min(count - got, keep.shape[0])
        out[got:got + take] = keep[:take]
        got += take
    targets = rng.uniform(fmin, fmax, size=count)
    vals = f_eval(spec, out)
    return out * (targets / vals)[:, None]


def check_structural(spec, mu1, mu2, seed=20240901):
    """Sample the slab {mu1 <= f <= mu2} at _SAMPLES cone points and
    report structural extrema.

    Reported quantities: the sampled minima of sum f_i and sum f_i lam_i,
    the worst violation of the Euler saturation sum f_i lam_i = f, and the
    worst midpoint-concavity violation over paired samples.
    """
    if not 0 < mu1 <= mu2:
        raise ConfigError("need 0 < mu1 <= mu2")
    rng = np.random.default_rng(seed)
    lam = sample_cone(spec, rng, _SAMPLES, mu1, mu2)
    fv = f_eval(spec, lam)
    fg = f_grad(spec, lam)
    sum_fi = fg.sum(axis=-1)
    sum_fi_lam = (fg * lam).sum(axis=-1)
    euler = np.abs(sum_fi_lam - fv).max()
    half = _SAMPLES // 2
    a, b = lam[:half], lam[half:2 * half]
    conc = (f_eval(spec, a) + f_eval(spec, b)) / 2.0 - f_eval(spec, (a + b) / 2.0)
    concavity = max(0.0, float(conc.max()))
    lam_desc = -np.sort(-lam, axis=-1)
    fg_desc = f_grad(spec, lam_desc)
    schur = float(np.maximum(0.0, fg_desc[..., :-1] - fg_desc[..., 1:]).max()) \
        if spec.n > 1 else 0.0
    return StructuralReport(
        samples=_SAMPLES,
        min_sum_fi=float(sum_fi.min()),
        min_sum_fi_lambda=float(sum_fi_lam.min()),
        euler_violation=float(euler),
        concavity_violation=concavity,
        min_fi=float(fg.min()),
        schur_violation=schur)
