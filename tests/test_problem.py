import numpy as np
import pytest

import warpcurve as wc
from warpcurve.problem import (HomotopyProblem, Gauge, S_LATTICE,
                               barrier_crossings, build_phi,
                               build_prescription, psi_homotopy,
                               validation_lattices)

from conftest import SINH1, TANH1, make_problem


@pytest.fixture(scope="module")
def cosh():
    return wc.WarpingProfile.cosh(0.2, 3.0)


@pytest.fixture(scope="module")
def spec1():
    return wc.CurvatureSpec(1, 1)


def test_crossing_prescription_validates(cosh, spec1):
    g = wc.make_grid(1, 64)
    # psi = sinh(1)/cosh(t) crosses k = tanh(t) exactly at t = 1
    p = build_prescription(cosh, spec1, g, c0=np.sinh(1.0), eps=0.0, mode=1,
                           t_minus=0.5, t_plus=1.6)
    assert p.validated
    lo, hi = barrier_crossings(p)
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)


def test_hypothesis_a_failure_names_letter(cosh, spec1):
    g = wc.make_grid(1, 64)
    with pytest.raises(wc.ValidationError) as exc:
        build_prescription(cosh, spec1, g, c0=np.sinh(1.0), eps=0.0, mode=1,
                           t_minus=1.2, t_plus=1.6)
    assert exc.value.hypothesis == "a"
    assert exc.value.t is not None


def test_hypothesis_c_fails_for_t_constant_custom_psi(cosh, spec1):
    g = wc.make_grid(1, 64)
    with pytest.raises(wc.ValidationError) as exc:
        build_prescription(cosh, spec1, g, form="custom",
                           psi_fn=lambda t, coords: 0.7 + 0.0 * np.asarray(t),
                           t_minus=0.5, t_plus=1.2)
    assert exc.value.hypothesis == "c"   # d/dt (h psi) = h' psi > 0


def test_positivity_failure(cosh, spec1):
    g = wc.make_grid(1, 64)
    with pytest.raises(wc.ValidationError) as exc:
        build_prescription(cosh, spec1, g, c0=0.5, eps=0.6, mode=1,
                           t_minus=0.5, t_plus=1.6)
    assert exc.value.hypothesis == "positivity"


def test_config_errors(cosh, spec1):
    g = wc.make_grid(1, 64)
    with pytest.raises(wc.ConfigError):
        build_prescription(cosh, spec1, g, c0=1.0, t_minus=1.6, t_plus=0.5)
    with pytest.raises(wc.ConfigError):
        build_prescription(cosh, spec1, g, c0=-1.0, t_minus=0.5, t_plus=1.6)
    with pytest.raises(wc.ConfigError):
        build_prescription(cosh, spec1, g, c0=1.0, t_minus=0.1, t_plus=1.6)


def test_validation_lattice_resolution(cosh, spec1):
    g = wc.make_grid(1, 64)
    p = build_prescription(cosh, spec1, g, c0=np.sinh(1.0), t_minus=0.5,
                           t_plus=1.6)
    below, slab, above = validation_lattices(p)
    assert slab.size == 257
    assert slab[0] == 0.5 and slab[-1] == 1.6


def test_gauge_normalization_and_decrease(cosh, spec1):
    gauge = build_phi(cosh, spec1, 0.5, 1.5, t0=1.0, eps_phi=0.1)
    assert abs(gauge.phi(1.0) - 1.0) <= 1e-14
    t = np.linspace(0.5, 1.5, 101)
    phi = gauge.phi(t)
    assert np.all(np.diff(phi) < 0)
    assert np.all(gauge.phi_prime(t) < 0)


def test_gauge_error_for_fast_decaying_k_and_recovery():
    prof = wc.WarpingProfile.power(0.5, 0.5, 4.0)
    spec = wc.CurvatureSpec(1, 1)
    with pytest.raises(wc.GaugeError):
        build_phi(prof, spec, 1.0, 3.0, eps_phi=0.01)
    gauge = build_phi(prof, spec, 1.0, 3.0, eps_phi=1.5)
    assert gauge.eps_phi == 1.5


def test_gauge_rejects_negative_decay(cosh, spec1):
    with pytest.raises(wc.GaugeError):
        build_phi(cosh, spec1, 0.5, 1.5, eps_phi=-0.1)


def test_homotopy_endpoints_and_midpoint(cosh, spec1):
    hp = make_problem(n=1, N=64, t_minus=0.5, t_plus=1.5)   # t0 = 1
    zc = np.full((64,), 1.0)
    v1, _ = psi_homotopy(hp, 1.0, zc)
    assert np.abs(v1 - SINH1 / np.cosh(1.0)).max() <= 1e-15
    v0, _ = psi_homotopy(hp, 0.0, zc)
    assert np.abs(v0 - hp.gauge.psi0(1.0)).max() <= 1e-15
    # at the crossing-anchor point both endpoints equal k(1) = tanh(1)
    vmid, _ = psi_homotopy(hp, 0.5, 1.0, u=(0,))
    assert vmid == pytest.approx(TANH1, rel=1e-14)
    with pytest.raises(wc.ConfigError):
        psi_homotopy(hp, 1.5, zc)


def test_homotopy_linearity_and_default_anchor(cosh, spec1):
    hp = make_problem(n=1, N=64)       # t_plus = 1.6 so t0 defaults to 1.05
    assert hp.t0 == pytest.approx(1.05)
    z = np.full((64,), 0.9)
    for s in (0.25, 0.5, 0.75):
        vs, _ = hp.psi_of(s, z)
        v1, _ = hp.psi_of(1.0, z)
        v0, _ = hp.psi_of(0.0, z)
        assert np.abs(vs - (s * v1 + (1 - s) * v0)).max() <= 1e-15


def test_drift_identity_at_s0(cosh, spec1):
    hp = make_problem(n=1, N=64)
    slab = np.linspace(0.5, 1.6, 257)
    drift = hp.drift_lattice(0.0, slab)
    psi0 = np.asarray(hp.gauge.psi0(slab))[:, None]
    assert np.abs(drift + 0.1 * psi0).max() <= 1e-15
    raw = hp.drift_raw_lattice(0.5, slab)
    red = hp.drift_lattice(0.5, slab)
    assert np.abs(raw - red).max() <= 1e-13


def test_homotopy_report_margins(cosh, spec1):
    hp = make_problem(n=1, N=64, eps=0.1, t_plus=1.5)
    rows = hp.homotopy_report()
    assert [r.passed for r in rows] == [True] * 4
    assert all(r.margin > 1e-12 for r in rows)   # strict slack


def test_homotopy_v_fails_exactly_at_zero_decay(cosh, spec1):
    hp = make_problem(n=1, N=64, eps=0.1, t_plus=1.5)
    gauge0 = Gauge(profile=hp.profile, spec=hp.spec, t0=hp.t0, eps_phi=0.0)
    hp0 = HomotopyProblem(prescription=hp.prescription, profile=hp.profile,
                          spec=hp.spec, grid=hp.grid, gauge=gauge0,
                          t0=hp.t0, eps_phi=0.0)
    rows = hp0.homotopy_report()
    assert [r.passed for r in rows] == [True, True, True, False]
    assert rows[3].margin == 0.0
    assert rows[3].witness[0] == 0.0      # worst point reported at s = 0


def test_barrier_crossing_interval_and_monotonicity(cosh, spec1):
    g = wc.make_grid(1, 256)
    widths = []
    for eps in (0.0, 0.05, 0.1):
        p = build_prescription(cosh, spec1, g, c0=np.sinh(1.0), eps=eps,
                               mode=1, t_minus=0.5, t_plus=1.5)
        lo, hi = barrier_crossings(p)
        widths.append(hi - lo)
        assert lo <= 1.0 + 1e-12 and hi >= 1.0 - 1e-12
    assert widths[0] <= widths[1] <= widths[2]
    # frozen crossing heights for eps = 0.1: asinh(sinh(1) -+ 0.1)
    p = build_prescription(cosh, spec1, g, c0=np.sinh(1.0), eps=0.1, mode=1,
                           t_minus=0.5, t_plus=1.5)
    lo, hi = barrier_crossings(p)
    assert lo == pytest.approx(0.9335620000839950, abs=1e-10)
    assert hi == pytest.approx(1.0632398456297002, abs=1e-10)


def test_bisect_error_without_sign_change(cosh, spec1):
    g = wc.make_grid(1, 64)
    p = build_prescription(cosh, spec1, g, c0=0.1, eps=0.0, mode=1,
                           t_minus=0.5, t_plus=1.5, validate=False)
    with pytest.raises(wc.BisectError):
        barrier_crossings(p)


def _bisect_crossings(p):
    """60 bisection steps per node: the crossings barrier_crossings returns."""
    ang, coords = p._flat_args()
    lo = np.full(p.grid.size, p.t_minus)
    hi = np.full(p.grid.size, p.t_plus)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        pos = p._psi(mid, ang, coords) - p.k_of(mid) > 0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    cross = 0.5 * (lo + hi)
    return float(cross.min()), float(cross.max())


@pytest.mark.parametrize("n,mode,eps", [
    (1, 1, 0.0), (1, 1, 0.13), (1, 2, -0.02), (1, 3, 0.27), (1, 4, 0.05),
    (1, 4, 0.27), (2, (1, 2), 0.1), (1, None, 0.0)])
def test_barrier_crossings_match_bisection(cosh, n, mode, eps, monkeypatch):
    g = wc.make_grid(n, 256 if n == 1 else 32)
    spec = wc.CurvatureSpec(n, 1)
    if mode is None:
        p = build_prescription(cosh, spec, g, form="custom",
                               psi_fn=_custom_psi, t_minus=0.5, t_plus=1.5)
    else:
        p = build_prescription(cosh, spec, g, c0=np.sinh(1.0), eps=eps,
                               mode=mode, t_minus=0.5, t_plus=1.5)
    k_of = p.k_of
    passes = []
    monkeypatch.setattr(p, "k_of", lambda t: passes.append(t) or k_of(t))
    got = barrier_crossings(p)
    monkeypatch.undo()
    ref = _bisect_crossings(p)
    for x, y in zip(got, ref):
        assert abs(x - y) <= 4 * np.spacing(y)
    # two passes check the bracket ends; bisection took 60 more
    assert len(passes) - 2 <= 13
    if eps == 0.0 and mode is not None:
        # psi = sinh(1) / cosh(t) crosses k = tanh(t) at t = 1 exactly
        assert abs(got[0] - 1.0) <= 4 * np.spacing(1.0)
        assert abs(got[1] - 1.0) <= 4 * np.spacing(1.0)


def test_s_lattice_is_the_documented_one():
    assert S_LATTICE == (0.0, 0.25, 0.5, 0.75, 1.0)


def test_angular_mode_two_axes(cosh):
    spec = wc.CurvatureSpec(2, 1)
    g = wc.make_grid(2, 16)
    p = build_prescription(cosh, spec, g, c0=np.sinh(1.0), eps=0.1,
                           mode=(2, 1), t_minus=0.5, t_plus=1.5)
    X, Y = g.coords()
    assert np.allclose(p.angular, np.cos(2 * X) * np.cos(Y), atol=1e-14)
    with pytest.raises(wc.ConfigError):
        build_prescription(cosh, spec, g, c0=1.0, eps=0.1, mode=(1,),
                           t_minus=0.5, t_plus=1.5)


# -- fused (psi, d_t psi) and the streamed homotopy report ----------------------

def _custom_psi(t, coords):
    # h psi = (sinh 1 + 0.05 cos u) e^{-0.1 (t - 1)}: strictly decreasing in t
    return (SINH1 + 0.05 * np.cos(coords[0])) * np.exp(-0.1 * (t - 1.0)) \
        / np.cosh(t)


def _custom_psi_t(t, coords):
    return -(0.1 + np.tanh(t)) * _custom_psi(t, coords)


def _problems(cosh, spec1):
    g = wc.make_grid(1, 64)
    radial = make_problem(n=1, N=64, eps=0.1, t_plus=1.5)
    out = [radial]
    for psi_t_fn in (None, _custom_psi_t):
        p = build_prescription(cosh, spec1, g, form="custom",
                               psi_fn=_custom_psi, psi_t_fn=psi_t_fn,
                               t_minus=0.5, t_plus=1.5)
        out.append(wc.build_homotopy(p))
    return out


def _per_term(hp, s, t, ang, coords):
    """(Psi, d_t Psi) from the per-term formulas, one profile call each."""
    p, gauge = hp.prescription, hp.gauge
    if p.form == "radial-decay":
        h, _, _ = p.profile.eval(t)
        psi = (p.c0 + p.eps * ang) / h
        h, h1, _ = p.profile.eval(t)
        psi_t = -(h1 / h) * (p.c0 + p.eps * ang) / h
    else:
        psi = p.psi_fn(t, coords)
        if p.psi_t_fn is not None:
            psi_t = p.psi_t_fn(t, coords)
        else:
            dt = 1e-6 * (1.0 + np.abs(t))
            psi_t = (p.psi_fn(t + dt, coords) - p.psi_fn(t - dt, coords)) \
                / (2.0 * dt)
    psi0 = gauge.psi0(t)
    h, h1, _ = gauge.profile.eval(t)
    psi0_t = -(gauge.eps_phi + h1 / h) * gauge.psi0(t)
    return (s * psi + (1.0 - s) * psi0, s * psi_t + (1.0 - s) * psi0_t,
            psi, psi_t)


def test_fused_psi_pairs_match_per_term_formulas(cosh, spec1):
    rng = np.random.default_rng(3)
    for hp in _problems(cosh, spec1):
        p = hp.prescription
        z = 1.0 + 0.2 * rng.standard_normal(hp.grid.shape)
        coords = hp.grid.coords()
        for s in (0.0, 0.3, 1.0):
            val, dt, _, _ = _per_term(hp, s, z, p.angular, coords)
            got = hp.psi_of(s, z)
            assert np.array_equal(got[0], val) and np.array_equal(got[1], dt)
            ang = None if p.angular is None else p.angular[5]
            val, dt, _, _ = _per_term(hp, s, 1.1, ang, coords[:, 5])
            assert psi_homotopy(hp, s, 1.1, u=5) == (float(val), float(dt))
        # d/dt (h psi) on the lattice, as h' psi + h psi_t
        slab = np.linspace(0.5, 1.5, 9)
        ang, flat = p._flat_args()
        t = slab[:, None]
        a = np.zeros((1, hp.grid.size)) if ang is None else ang[None, :]
        _, _, psi, psi_t = _per_term(hp, 1.0, t, a, flat[:, None, :])
        h, h1, _ = cosh.eval(t)
        expect = np.zeros_like(psi) if p.form == "radial-decay" \
            else h1 * psi + h * psi_t
        assert np.array_equal(p.dt_h_psi_lattice(slab), expect)


def _stacked_homotopy_report(hp):
    """homotopy_report's (ii) and (v) rows from the full (s, t, node) stacks."""
    p = hp.prescription
    _, slab, _ = validation_lattices(p)
    vals = np.stack([hp.psi_lattice(s, slab) for s in S_LATTICE])
    m2 = float(vals.min())
    idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
    strict_s = [s for s in S_LATTICE if s < 1.0]
    drifts = np.stack([hp.drift_lattice(s, slab) for s in strict_s])
    m5 = float((-drifts).min())
    i5 = np.unravel_index(int(np.argmax(drifts)), drifts.shape)
    return [(m2, (S_LATTICE[idx[0]], float(slab[idx[1]]), int(idx[2]))),
            (m5, (strict_s[i5[0]], float(slab[i5[1]]), int(i5[2])))]


def test_homotopy_report_matches_stacked_lattices(cosh, spec1):
    hps = _problems(cosh, spec1)
    hp = hps[0]
    gauge0 = Gauge(profile=hp.profile, spec=hp.spec, t0=hp.t0, eps_phi=0.0)
    hps.append(HomotopyProblem(prescription=hp.prescription,
                               profile=hp.profile, spec=hp.spec, grid=hp.grid,
                               gauge=gauge0, t0=hp.t0, eps_phi=0.0))
    for hp in hps:
        rows = hp.homotopy_report()
        got = [(r.margin, r.witness) for r in (rows[0], rows[3])]
        assert got == _stacked_homotopy_report(hp)
