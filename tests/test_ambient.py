import re

import numpy as np
import pytest

import warpcurve as wc
from warpcurve import verify
from warpcurve.ambient import ambient_curvature, kappa

from conftest import COSH1, SINH1, TANH1


def test_eval_exp_all_derivatives_coincide():
    prof = wc.WarpingProfile.exp(-2.0, 2.0)
    h, h1, h2 = prof.eval(0.7)
    target = 2.0137527074704765216245493886  # exp(0.7)
    for v in (h, h1, h2):
        assert v == pytest.approx(target, rel=1e-15)


def test_eval_cosh_at_zero_and_one():
    prof = wc.WarpingProfile.cosh(-0.5, 3.0)
    assert prof.eval(0.0) == (1.0, 0.0, 1.0)
    h, h1, h2 = prof.eval(1.0)
    assert h == pytest.approx(COSH1, rel=1e-15)
    assert h1 == pytest.approx(SINH1, rel=1e-15)
    assert h2 == pytest.approx(COSH1, rel=1e-15)


def test_eval_outside_interval_raises():
    prof = wc.WarpingProfile.cosh(0.2, 3.0)
    with pytest.raises(wc.DomainError):
        prof.eval(3.5)
    with pytest.raises(wc.DomainError):
        prof.eval(0.2)   # interval is open


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.2, 3.0])
@pytest.mark.parametrize("shape", ["scalar", "0-d", "array"])
def test_domain_check_rejects_non_finite_heights_and_the_ends(bad, shape):
    # one min and one max: a NaN anywhere fails both comparisons
    prof = wc.WarpingProfile.cosh(0.2, 3.0)
    t = {"scalar": bad, "0-d": np.array(bad),
         "array": np.array([1.0, bad, 2.0])}[shape]
    with pytest.raises(wc.DomainError, match="outside profile interval"):
        prof.eval(t)
    with pytest.raises(wc.DomainError):
        prof.antiderivative(t)
    inside = np.array([0.2 + 1e-12, 1.0, 3.0 - 1e-12])
    assert np.array_equal(prof.eval(inside)[0], np.cosh(inside))
    assert prof.eval(np.empty(0))[0].size == 0


def test_cosh_profile_aliases_h_and_h2():
    h, h1, h2 = wc.WarpingProfile.cosh(0.2, 3.0).eval(np.linspace(0.5, 2, 5))
    assert h2 is h


def test_kappa_values():
    assert kappa(wc.WarpingProfile.exp(-2.0, 2.0), 0.3) == pytest.approx(1.0)
    prof = wc.WarpingProfile.cosh(0.2, 3.0)
    assert kappa(prof, 1.0) == pytest.approx(TANH1, rel=1e-15)


def test_kappa_zero_violates_mean_convexity():
    prof = wc.WarpingProfile.cosh(-0.5, 3.0)
    with pytest.raises(wc.ProfileError):
        kappa(prof, 0.0)


def test_kappa_exp_is_exactly_one():
    # h' = h, so the radial level kappa is 1 to the bit, a Python float
    prof = wc.WarpingProfile.exp(-2.0, 2.0)
    for t in (-1.0, 0.0, 1.3):
        k = kappa(prof, t)
        assert k == 1.0 and type(k) is float


def test_ambient_curvature_coefficients():
    exp = wc.WarpingProfile.exp(-2.0, 2.0)
    cr, ct = ambient_curvature(exp, 0.4)
    assert cr == pytest.approx(1.0) and ct == pytest.approx(-1.0)
    cosh = wc.WarpingProfile.cosh(-0.5, 3.0)
    assert ambient_curvature(cosh, 0.0) == (1.0, 0.0)
    cr, ct = ambient_curvature(cosh, 1.0)
    assert cr == pytest.approx(1.0, rel=1e-15)
    assert ct == pytest.approx(-0.5800256583859739, rel=1e-14)  # -tanh(1)^2


def test_kappa_strictly_increasing_for_cosh(cosh_profile):
    t = np.linspace(0.25, 2.95, 200)
    kap = kappa(cosh_profile, t)
    assert np.all(np.diff(kap) > 0)


@pytest.mark.parametrize("prof", [
    wc.WarpingProfile.cosh(0.2, 3.0),
    wc.WarpingProfile.exp(-2.0, 2.0),
    wc.WarpingProfile.power(2.0, 0.3, 4.0),
])
def test_h1_matches_finite_differences(prof):
    t = np.linspace(prof.t_lo, prof.t_hi, 202)[1:-1]
    d = 1e-6
    h, h1, _ = prof.eval(t)
    fd = (prof.eval(t + d)[0] - prof.eval(t - d)[0]) / (2 * d)
    assert np.all(np.abs(h1 - fd) <= 1e-6 * (1.0 + np.abs(h1)))


def test_power_profile_decreasing_kappa():
    prof = wc.WarpingProfile.power(1.5, 0.5, 5.0)
    kap = kappa(prof, np.linspace(0.6, 4.5, 50))
    assert np.all(np.diff(kap) < 0)
    assert np.all(kap > 0)


def test_custom_table_matches_sampled_cosh():
    ts = np.linspace(0.1, 3.2, 200)
    prof = wc.WarpingProfile.from_table(ts, np.cosh(ts))
    t = np.linspace(0.3, 3.0, 57)
    h, h1, h2 = prof.eval(t)
    assert np.abs(h - np.cosh(t)).max() < 1e-8
    assert np.abs(h1 - np.sinh(t)).max() < 1e-5
    # spline derivatives are C2-consistent with the spline itself
    d = 1e-5
    fd1 = (prof.eval(t + d)[0] - prof.eval(t - d)[0]) / (2 * d)
    fd2 = (prof.eval(t + d)[0] - 2 * h + prof.eval(t - d)[0]) / d ** 2
    assert np.abs(fd1 - h1).max() < 1e-7
    assert np.abs(fd2 - h2).max() < 1e-4


def test_custom_table_kappa_scan_rejects_decreasing_h():
    ts = np.linspace(0.1, 3.0, 100)
    with pytest.raises(wc.ProfileError):
        wc.WarpingProfile.from_table(ts, 2.0 - 0.5 * ts)


def test_custom_table_scan_can_be_suppressed():
    ts = np.linspace(-0.5, 7.0, 100)
    prof = wc.WarpingProfile.from_table(ts, np.ones_like(ts),
                                        require_mean_convex=False)
    h, h1, _ = prof.eval(1.0)
    assert h == pytest.approx(1.0, abs=1e-12)
    assert abs(h1) < 1e-10


def test_custom_table_rejects_nonpositive_h():
    ts = np.linspace(0.0, 2.0, 50)
    with pytest.raises(wc.ProfileError):
        wc.WarpingProfile.from_table(ts, ts - 1.0, require_mean_convex=False)


def test_table_and_power_inputs_are_refused_by_name():
    with pytest.raises(wc.ProfileError,
                       match=r"^power profile lives on \(0, inf\)$"):
        wc.WarpingProfile.power(2.0, -1.0, 1.0)
    with pytest.raises(wc.ConfigError,
                       match="^custom-table profile requires samples; use "
                             "WarpingProfile.from_table$"):
        wc.WarpingProfile("custom-table", (), 0.5, 1.5)
    ts = np.linspace(0.5, 2.0, 8)
    with pytest.raises(wc.ConfigError, match="^table abscissae must be "
                                             "strictly increasing$"):
        wc.WarpingProfile.from_table(np.r_[ts[:4], ts[3:7]], np.cosh(ts))
    for lo, hi in ((0.4, 2.0), (0.5, 2.1)):
        with pytest.raises(wc.ConfigError, match="^requested interval "
                                                 "exceeds the table range$"):
            wc.WarpingProfile.from_table(ts, np.cosh(ts), t_lo=lo, t_hi=hi)


def test_eval_refuses_an_underflowed_h():
    # t^400 underflows to 0 near the open end t = 0 of a power profile
    prof = wc.WarpingProfile.power(400.0, 0.0, 2.0)
    assert prof.eval(1.5)[0] > 0
    for t in (1e-3, np.array([1.5, 1e-3])):
        with pytest.raises(wc.ProfileError, match="^h\\(t\\) <= 0 inside "
                                                  "the queried interval$"):
            prof.eval(t)


def test_antiderivative_closed_forms():
    cosh = wc.WarpingProfile.cosh(0.2, 3.0)
    assert cosh.antiderivative(1.0) == pytest.approx(SINH1, rel=1e-15)
    power = wc.WarpingProfile.power(2.0, 0.1, 4.0)
    assert power.antiderivative(3.0) == pytest.approx(9.0, rel=1e-14)
    ts = np.linspace(0.1, 3.2, 300)
    table = wc.WarpingProfile.from_table(ts, np.cosh(ts))
    got = table.antiderivative(2.0) - table.antiderivative(0.5)
    assert got == pytest.approx(np.sinh(2.0) - np.sinh(0.5), abs=1e-8)


def test_profile_construction_errors():
    with pytest.raises(wc.ConfigError):
        wc.WarpingProfile("spiral", (), 0.0, 1.0)
    with pytest.raises(wc.ConfigError):
        wc.WarpingProfile.cosh(2.0, 1.0)
    with pytest.raises(wc.ConfigError):
        wc.WarpingProfile.power(-1.0, 0.1, 1.0)
    # NaN used to pass p <= 0 and fail later as hypothesis (positivity)
    with pytest.raises(wc.ConfigError, match="p > 0"):
        wc.WarpingProfile.power(np.nan, 0.1, 1.0)
    # infinities passed the order and sign checks and failed later
    with pytest.raises(wc.ConfigError, match="p > 0, got \\(inf,\\)"):
        wc.WarpingProfile.power(np.inf, 0.1, 1.0)
    for lo, hi, name in ((0.2, np.inf, "t_hi"), (-np.inf, 1.0, "t_lo")):
        with pytest.raises(wc.ConfigError, match=f"{name} must be finite"):
            wc.WarpingProfile.cosh(lo, hi)


@pytest.mark.parametrize("kind,params,t_lo,t_hi,where", [
    ("cosh", (), 0.2, 1e300, "t_hi = 1e+300"),
    ("exp", (), 0.2, 1e300, "t_hi = 1e+300"),
    ("cosh", (), 0.2, 800.0, "t_hi = 800.0"),
    ("cosh", (), 0.2, 710.476, "t_hi = 710.476"),
    ("cosh", (), -800.0, 3.0, "t_lo = -800.0"),
    ("exp", (), 0.2, 709.8, "t_hi = 709.8"),
    ("power", (400.0,), 0.3, 10.0, "t_hi = 10.0, p = 400.0"),
    # h'' = p (p - 1) t^(p - 2) is the one that overflows here
    ("power", (0.5,), 1e-300, 4.0, "t_lo = 1e-300, p = 0.5"),
])
def test_profile_refuses_an_end_where_it_overflows(kind, params, t_lo, t_hi,
                                                   where):
    # the validation lattices come within 1e-9 (t_hi - t_lo) of the ends,
    # where the overflow used to surface as a NaN blamed on a hypothesis
    message = f"{kind} profile overflows at {where}: "
    with pytest.raises(wc.ConfigError, match=re.escape(message)):
        wc.WarpingProfile(kind, params, t_lo, t_hi)


def test_profile_admits_the_largest_finite_ends():
    # cosh(710.47) and exp(709.78) are finite; t = 0 is the open end of a
    # power profile, where h' and h'' have a pole; the validation lattices'
    # ends then evaluate to finite values
    for prof in (wc.WarpingProfile.cosh(0.2, 710.47),
                 wc.WarpingProfile.exp(-2.0, 709.78),
                 wc.WarpingProfile.power(0.5, 0.0, 4.0),
                 wc.WarpingProfile.power(300.0, 0.3, 10.0)):
        inset = 1e-9 * (prof.t_hi - prof.t_lo)
        ends = np.array([prof.t_lo + inset, prof.t_hi - inset])
        assert np.isfinite(prof.eval(ends)).all()


@pytest.mark.parametrize("prof", [
    wc.WarpingProfile.cosh(0.2, 3.0),
    wc.WarpingProfile.exp(-2.0, 2.0),
    wc.WarpingProfile.power(0.5, 0.3, 4.0),
    wc.WarpingProfile.from_table(np.linspace(0.1, 3.2, 40),
                                 np.cosh(np.linspace(0.1, 3.2, 40))),
])
def test_scan_is_the_first_minimum_on_the_interior_lattice(prof):
    # one scan vets tables at construction and gives verify's profile rows
    t = np.linspace(prof.t_lo, prof.t_hi, 1026)[1:-1]
    h, h1, _ = prof.eval(t)
    kap = h1 / h
    lowest = [(a.min(), t[np.argmin(a)]) for a in (h, kap)]
    assert prof.scan() == tuple(lowest)
    rows = verify.profile_rows(prof)
    assert [(r.value, r.witness, r.passed) for r in rows] == \
        [(m, (at,), m > 0) for m, at in lowest]
