"""The condition-by-condition verification table.

Every structural claim the construction rests on is checked numerically
at desk scale: profile mean convexity, prescription hypotheses, gauge
properties, homotopy family conditions, curvature-function structure, geometry
identities, and oracle agreement of the analytic derivative paths.  Each
check yields one row (name, worst-case value, requirement, verdict), the
verdict being the printed requirement applied to the value
(CheckRow.against) but for the two support-order rows, whose requirement
is a band.  The profile, prescription, gauge and homotopy rows are
computed where the checks they share with construction live
(WarpingProfile.scan, warpcurve.problem); this module only tabulates
them.
"""

from __future__ import annotations

import numpy as np

from . import curvature, oracle
from .ambient import k_level, kappa
from .errors import ConeError
from .geometry import (compute_geometry, matrix_derivative,
                       special_frame_deviations, support_identity_check)
from .grid import NodeField, make_grid, random_smooth
from .problem import CheckRow, hypothesis_rows
from .solver import assemble_jacobian, manufactured_field, residual

_STATES = 3            # seeded states of the Jacobian probe row
_PROBES = 2            # seeded +-1 directions per Jacobian state
_PROBE_STEP = 1e-4     # probe step per dx^2, scaled by (1 + |z|_inf)
_MATRIX_FD_STEP = 1e-6  # central-difference step of the matrix derivative


def profile_rows(profile):
    (h, t_h), (kap, t_kap) = profile.scan()
    return [CheckRow.against("profile: min h on domain scan", h, "> 0",
                             (t_h,)),
            CheckRow.against("profile: min kappa on domain scan", kap, "> 0",
                             (t_kap,))]


def prescription_rows(p):
    return list(hypothesis_rows(p))


def gauge_rows(hp):
    return hp.gauge_report()


def homotopy_rows(hp):
    return hp.homotopy_report()


def structural_rows(spec, mu1, mu2, seed):
    rep = curvature.check_structural(spec, mu1, mu2, seed=seed)
    return [CheckRow.against(f"curvature: {name}", value, requirement)
            for name, value, requirement in (
        ("Euler |sum f_i lam_i - f|", rep.euler_violation, "<= 1e-12"),
        ("midpoint concavity violation", rep.concavity_violation, "<= 1e-12"),
        ("min sum f_i on slab", rep.min_sum_fi, "> 0"),
        ("min sum f_i lam_i on slab", rep.min_sum_fi_lambda, "> 0"),
        ("min f_i on slab", rep.min_fi, "> 0"),
        ("Schur ordering violation", rep.schur_violation, "<= 1e-12"))]


def curvature_property_rows(spec, seed):
    rng = np.random.default_rng(seed + 1)
    lam = curvature.sample_cone(spec, rng, 1000, 0.5, 2.0)
    c = rng.uniform(0.5, 2.0, size=1000)
    hom = np.abs(curvature.f_eval(spec, lam * c[:, None])
                 - c * curvature.f_eval(spec, lam)).max()
    rows = [CheckRow.against("curvature: homogeneity |f(c lam) - c f|", hom,
                             "<= 1e-12")]
    if spec.n > 1:
        perm = np.abs(curvature.f_eval(spec, lam[..., ::-1])
                      - curvature.f_eval(spec, lam)).max()
        rows.append(CheckRow.against("curvature: permutation symmetry", perm,
                                     "<= 1e-14"))
    worst = oracle.fd_gradcheck(spec, lam[:200]).max_rel_err
    rows.append(CheckRow.against("oracle: f_grad vs FD, 200 cone points",
                                 worst, "<= 1e-6"))
    if spec.n == 2:
        m = _random_cone_matrices(spec, rng, 100)
        # Newton's M is this frame sum (geometry._frame_sum), seen through
        # the metric, so the row checks the derivative Newton uses
        F = matrix_derivative(spec, m)
        fd = _fd_matrix_derivative(spec, m)
        worst = float((np.abs(F - fd).max(axis=(-2, -1))
                       / np.abs(F).max(axis=(-2, -1))).max())
        rows.append(CheckRow.against("oracle: matrix derivative vs FD", worst,
                                     "<= 1e-6"))
    return rows


def _random_cone_matrices(spec, rng, count):
    """count symmetric 2x2 matrices Q diag(lam) Q^T, lam in the cone."""
    lam = curvature.sample_cone(spec, rng, count, 0.5, 2.0)
    th = rng.uniform(0, 2 * np.pi, size=count)
    c, s = np.cos(th), np.sin(th)
    Q = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)],
                 axis=-2)
    return (Q * lam[:, None, :]) @ np.swapaxes(Q, -1, -2)


def _fd_matrix_derivative(spec, m):
    """Central differences of f(eigenvalues) for matrices m (..., n, n)."""
    n = m.shape[-1]
    out = np.empty(m.shape)
    for k in range(n):
        for l in range(k, n):
            E = np.zeros((n, n))
            E[k, l] = 1.0
            E[l, k] = 1.0
            fp = curvature.f_eval(spec, _eigvals_desc(m + _MATRIX_FD_STEP * E))
            fm = curvature.f_eval(spec, _eigvals_desc(m - _MATRIX_FD_STEP * E))
            d = (fp - fm) / (2.0 * _MATRIX_FD_STEP)
            out[..., k, l] = out[..., l, k] = d / (2.0 if k != l else 1.0)
    return out


def _eigvals_desc(m):
    return np.linalg.eigvalsh(m)[..., ::-1]


def _field_amplitude(hp):
    """Sup-norm of the smooth fields added to t0 for the geometry, support
    order and Jacobian rows: 0.04 of the barrier slab's width."""
    return 0.04 * (hp.t_plus - hp.t_minus)


def geometry_rows(hp, seed):
    grid, profile, spec = hp.grid, hp.profile, hp.spec
    rng = np.random.default_rng(seed + 2)
    rows = []
    zc = NodeField.constant(grid, hp.t0)
    geom_c = compute_geometry(zc, grid, profile)
    node = (0,) * grid.n
    kap0 = float(k_level(geom_c.h[node], geom_c.h1[node]))
    umb = float(np.abs(geom_c.lam - kap0).max())
    rows.append(CheckRow.against("geometry: umbilic slice |lam - kappa|", umb,
                                 "<= 1e-12"))
    z = hp.t0 + random_smooth(grid, rng, _field_amplitude(hp))
    geom = compute_geometry(z, grid, profile)
    det_err = np.abs(np.linalg.det(geom.g)
                     / (geom.h ** (2 * grid.n - 2) * geom.W ** 2) - 1.0).max()
    rows.append(CheckRow.against("geometry: det g identity rel err", det_err,
                                 "<= 1e-10"))
    orient = np.abs(geom.nu0 * geom.W + geom.h).max() / geom.h.max()
    rows.append(CheckRow.against("geometry: orientation nu0 W = -h", orient,
                                 "<= 1e-14"))
    rows.append(_special_frame_row(geom, rng))
    if grid.n == 2:
        idx = tuple(rng.integers(grid.N, size=(50, 2)).T)
        lam, _ = oracle.eig2_oracle(geom.atilde[idx])
        worst = float(np.abs(lam - geom.lam[idx]).max())
        rows.append(CheckRow.against("oracle: eig2 vs eigh eigenvalues",
                                     worst, "<= 1e-10"))
    rows.extend(_support_order_rows(hp))
    return rows


def _special_frame_row(geom, rng):
    """Special-frame deviation at 400 random nodes where |grad z| >= 1e-8."""
    idx = tuple(rng.integers(geom.grid.N, size=(400, geom.grid.n)).T)
    gn = np.sqrt((geom.grad[idx] ** 2).sum(axis=-1))
    keep = gn >= 1e-8
    dev = float(special_frame_deviations(
        geom, tuple(i[keep] for i in idx)).max(initial=0.0))
    return CheckRow.against(
        f"geometry: special frame dev, {int(keep.sum())} nodes", dev,
        "<= 1e-10")


def _support_order_rows(hp):
    grid, profile = hp.grid, hp.profile
    amp = _field_amplitude(hp)

    def errs(g):
        z = manufactured_field(g, hp.t0, amp)[0]
        return support_identity_check(compute_geometry(z, g, profile))

    e1 = errs(grid)
    g2 = make_grid(grid.n, 2 * grid.N, grid.L, grid.order)
    e2 = errs(g2)
    expect = 2.0 ** grid.order
    rows = []
    for label, a, b in (("eta", e1[0], e2[0]), ("tau", e1[1], e2[1])):
        ratio = float(a / b)
        # an explicit verdict: the requirement is a band, not one bound
        rows.append(CheckRow(f"geometry: support {label} error ratio N->2N",
                             ratio, f"{expect:g} +- 15%",
                             abs(ratio - expect) <= 0.15 * expect))
    return rows


def _cone_jacobian(hp, dz, s):
    """(z, J at z) for z = t0 + dz, dz halved until z lies in the cone,
    where J is defined (assemble_jacobian raises ConeError outside).  It
    draws nothing, so a state already inside is unchanged, and it ends:
    at z = t0 every curvature is kappa > 0."""
    while True:
        z = hp.t0 + dz
        try:
            return z, assemble_jacobian(z, s, hp)
        except ConeError:
            dz = 0.5 * dz


def jacobian_rows(hp, seed):
    """Directional probes of Newton's analytic J at _STATES seeded states.

    Newton uses J only through products J x, so each of the _PROBES probes
    per state compares J v, for a seeded +-1 vector v, with the central
    difference of the public residual along v (Griewank & Walther,
    "Evaluating Derivatives", SIAM 2008): 1 + 2 _PROBES residual
    evaluations per state.  The step scales with the stencil: d2
    amplifies a perturbation by 1/dx^2, so h = _PROBE_STEP dx^2
    (1 + |z|_inf) keeps the truncation error independent of N.  The
    error is relative to max |J v|.  Each state is t0 plus a smooth
    field of amplitude _field_amplitude(hp), halved until the state lies
    in the cone (_cone_jacobian).
    """
    grid = hp.grid
    rng = np.random.default_rng(seed + 3)
    amp = _field_amplitude(hp)
    drawn = [(random_smooth(grid, rng, amp), float(rng.uniform(0.0, 1.0)))
             for _ in range(_STATES)]
    worst = 0.0
    for dz, s in drawn:
        z, J = _cone_jacobian(hp, dz, s)
        h = _PROBE_STEP * grid.dx ** 2 * (1.0 + float(np.abs(z).max()))
        for v in rng.choice((-1.0, 1.0), size=(_PROBES,) + grid.shape):
            Jv = J @ grid.flatten(v)
            fd = (residual(z + h * v, s, hp).values
                  - residual(z - h * v, s, hp).values) / (2.0 * h)
            err = np.abs(Jv - grid.flatten(fd)).max() / np.abs(Jv).max()
            worst = max(worst, float(err))
    return [CheckRow.against(f"oracle: analytic J v vs FD, {_STATES} states "
                             f"x {_PROBES} probes", worst, "<= 1e-6")]


def build_condition_table(hp, seed):
    """All verification rows for a configured problem."""
    rows = []
    rows += profile_rows(hp.profile)
    rows += prescription_rows(hp.prescription)
    rows += gauge_rows(hp)
    rows += homotopy_rows(hp)
    k_lo, k_hi = (kappa(hp.profile, t) for t in (hp.t_minus, hp.t_plus))
    mu1, mu2 = min(k_lo, k_hi), max(k_lo, k_hi)
    rows += structural_rows(hp.spec, mu1, mu2, seed)
    rows += curvature_property_rows(hp.spec, seed)
    rows += geometry_rows(hp, seed)
    rows += jacobian_rows(hp, seed)
    return rows
