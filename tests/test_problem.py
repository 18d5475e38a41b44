import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import warpcurve as wc
from warpcurve import verify
from warpcurve.ambient import kappa
from warpcurve.cli import RunConfig
from warpcurve.problem import (CUSTOM_C_SLACK, S_LATTICE, CheckRow,
                               CustomPrescription, Gauge, HomotopyProblem,
                               Prescription, barrier_crossings,
                               build_custom_prescription, build_phi,
                               build_prescription, hypothesis_rows,
                               validation_lattices, _blend)

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
        build_custom_prescription(
            cosh, spec1, g, lambda t, coords: 0.7 + 0.0 * np.asarray(t),
            lambda t, coords: 0.0 * np.asarray(t), t_minus=0.5, t_plus=1.2)
    assert exc.value.hypothesis == "c"   # d/dt (h psi) = h' psi > 0


def test_positivity_failure(cosh, spec1):
    g = wc.make_grid(1, 64)
    with pytest.raises(wc.ValidationError) as exc:
        build_prescription(cosh, spec1, g, c0=0.5, eps=0.6, mode=1,
                           t_minus=0.5, t_plus=1.6)
    assert exc.value.hypothesis == "positivity"


def test_config_errors(cosh, spec1):
    g = wc.make_grid(1, 64)
    kw = dict(eps=0.0, mode=1)
    with pytest.raises(wc.ConfigError):
        build_prescription(cosh, spec1, g, c0=1.0, t_minus=1.6, t_plus=0.5,
                           **kw)
    with pytest.raises(wc.ConfigError):
        build_prescription(cosh, spec1, g, c0=-1.0, t_minus=0.5, t_plus=1.6,
                           **kw)
    # a NaN c0 is an input error too; it used to fail validation as
    # hypothesis (positivity)
    with pytest.raises(wc.ConfigError, match="c0 > 0"):
        build_prescription(cosh, spec1, g, c0=np.nan, t_minus=0.5,
                           t_plus=1.6, **kw)
    with pytest.raises(wc.ConfigError):
        build_prescription(cosh, spec1, g, c0=1.0, t_minus=0.1, t_plus=1.6,
                           **kw)
    # the custom form shares the slab check
    with pytest.raises(wc.ConfigError, match="t_lo < t_minus < t_plus"):
        build_custom_prescription(cosh, spec1, g, _custom_psi, _custom_psi_t,
                                  t_minus=0.1, t_plus=1.6)


def test_psi_fn_selects_the_custom_form(cosh, spec1):
    g = wc.make_grid(1, 64)
    radial = build_prescription(cosh, spec1, g, c0=SINH1, eps=0.0, mode=1,
                                t_minus=0.5, t_plus=1.5)
    custom = build_custom_prescription(cosh, spec1, g, _custom_psi,
                                       _custom_psi_t, t_minus=0.5,
                                       t_plus=1.5)
    assert (type(radial), type(custom)) == (Prescription, CustomPrescription)
    assert not hasattr(radial, "coords") and not hasattr(custom, "h_psi")
    assert (radial.c_slack, custom.c_slack) == (0.0, CUSTOM_C_SLACK)
    h = cosh.eval(1.1)[0]
    assert np.array_equal(custom.psi(1.1, h, slice(None)),
                          _custom_psi(1.1, custom.coords))
    # each constructor takes its own form's inputs only
    with pytest.raises(TypeError, match="psi_fn"):
        build_prescription(cosh, spec1, g, c0=SINH1, eps=0.0, mode=1,
                           psi_fn=_custom_psi, t_minus=0.5, t_plus=1.5)
    with pytest.raises(TypeError, match="c0"):
        build_custom_prescription(cosh, spec1, g, _custom_psi, _custom_psi_t,
                                  c0=SINH1, t_minus=0.5, t_plus=1.5)


def test_custom_form_needs_its_exact_t_derivative(cosh, spec1):
    g = wc.make_grid(1, 64)
    with pytest.raises(TypeError, match="psi_t_fn"):
        build_custom_prescription(cosh, spec1, g, _custom_psi, t_minus=0.5,
                                  t_plus=1.5)

    # h psi = sinh 1 + 0.05 cos u is t-independent: (c) holds with
    # equality, and the exact psi_t leaves only rounding where a central
    # difference used to read 1.42e-10 against the 1e-10 slack
    def psi(t, x):
        return (SINH1 + 0.05 * np.cos(x[-1])) / np.cosh(t)

    p = build_custom_prescription(cosh, spec1, g, psi,
                                  lambda t, x: -np.tanh(t) * psi(t, x),
                                  t_minus=0.5, t_plus=1.5)
    c = list(hypothesis_rows(p))[3]
    assert c.name == "hypothesis (c): max d/dt(h psi) on slab"
    assert c.passed and abs(c.value) <= 1e-14


def test_the_validated_h_psi_is_read_only(cosh, spec1):
    # the solver and the crossings read the h psi validation checked
    p = build_prescription(cosh, spec1, wc.make_grid(1, 64), c0=SINH1,
                           eps=0.1, mode=1, t_minus=0.5, t_plus=1.5)
    with pytest.raises(ValueError, match="read-only"):
        p.h_psi[0] = -1.0


@pytest.mark.parametrize("spec_nr,grid_n", [((2, 1), 1), ((1, 1), 2),
                                            ((2, 2), 1)],
                         ids=["spec21-grid1", "spec11-grid2",
                              "spec22-grid1"])
def test_spec_and_grid_must_agree_on_n(cosh, spec_nr, grid_n):
    # f's normalization reads spec.n: with another n than the grid's,
    # z = t0 no longer solves s = 0, and the solve leaves the slab
    spec = wc.CurvatureSpec(*spec_nr)
    g = wc.make_grid(grid_n, 32)
    mode = 1 if grid_n == 1 else (1, 1)
    message = f"^curvature spec n = {spec.n} does not match the grid's " \
        f"n = {grid_n}$"
    with pytest.raises(wc.ConfigError, match=message):
        build_prescription(cosh, spec, g, c0=SINH1, eps=0.05, mode=mode,
                           t_minus=0.5, t_plus=1.5)
    with pytest.raises(wc.ConfigError, match=message):
        build_custom_prescription(cosh, spec, g, _custom_psi, _custom_psi_t,
                                  t_minus=0.5, t_plus=1.5)


def test_settable_surface_has_no_overwritten_or_raising_inputs():
    def params(fn):
        return [(q.name, q.kind.name, q.default is q.empty)
                for q in inspect.signature(fn).parameters.values()]

    def init_fields(cls):
        return [f.name for f in dataclasses.fields(cls) if f.init]

    pos, kw = "POSITIONAL_OR_KEYWORD", "KEYWORD_ONLY"
    shared = [("profile", pos, True), ("spec", pos, True), ("grid", pos, True)]
    slab = [("t_minus", kw, True), ("t_plus", kw, True)]
    assert params(build_prescription) == shared + [
        ("c0", pos, True), ("eps", pos, True), ("mode", pos, True)] + slab
    assert params(build_custom_prescription) == shared + [
        ("psi_fn", pos, True), ("psi_t_fn", pos, True)] + slab
    fields = ["profile", "spec", "grid", "t_minus", "t_plus"]
    assert init_fields(Prescription) == fields + ["c0", "eps", "mode"]
    assert init_fields(CustomPrescription) == fields + ["psi_fn", "psi_t_fn"]
    assert init_fields(Gauge) == ["profile", "t0", "eps_phi"]
    assert params(wc.compute_geometry) == [
        ("z", pos, True), ("grid", pos, True), ("profile", pos, True)]


# every defaulted parameter of the functions and methods warpcurve defines,
# dataclass fields included: a knob added or removed fails here until this
# pin and CHANGES.md record it
_SETTABLE_SURFACE = {
    "ambient.WarpingProfile.__init__": ('_spline=None',),
    "ambient.WarpingProfile.from_table": ('t_lo=None', 't_hi=None'),
    "cli.RunConfig.__init__": (
        "profile_kind='cosh'", 'profile_p=2.0', 'table_t=()', 'table_h=()',
        't_lo=0.2', 't_hi=3.0', 'n=1', 'N=256', 'L=6.283185307179586',
        'order=2', 'r=1', 'c0=1.1752011936438014', 'eps=0.0', 'mode=(1,)',
        't_minus=0.5', 't_plus=1.6', 't0=None', 'eps_phi=0.1',
        'newton_tol=1e-10', 'max_newton=30', 'ds0=1.0', 'ds_min=0.0001',
        "out_dir='out'", 'seed=12345', 'sweep_N=()',
        'sweep_eps=(0.0, 0.05, 0.1)', 'sweep_r=()',
    ),
    "cli._key": ('parse=float', 'key=None', 'kind=None'),
    "cli._sweep_row": ('residual=nan', 'newton=0'),
    "cli.build_problem": ('r=None', 'eps=None', 'N=None'),
    "cli.main": ('argv=None',),
    "curvature.check_structural": ('seed=20240901',),
    "errors.ConeError.__init__": ('node=None',),
    "grid.TorusGrid.__init__": ('L=6.283185307179586', 'order=2'),
    "problem.CheckRow.__init__": ('witness=None',),
    "problem.CheckRow.against": ('witness=None',),
    "problem._reduce": ('pick=argmin', 'svals=None'),
    "problem.build_homotopy": ('t0=None', 'eps_phi=0.1'),
    "solver.SolverConfig.__init__": (
        'newton_tol=1e-10', 'max_newton=30', 'ds0=1.0', 'ds_min=0.0001',
    ),
    "solver._evaluate": ('at=None',),
    "solver.continuation": ('cfg=None',),
    "solver.newton_solve": (
        'cfg=None', 'theta_max=None', 'at=None',
    ),
}


def _package_callables():
    """(module attribute name, surface key, function) for every function
    and method warpcurve defines; a class's methods are listed under each
    name that binds the class, so an alias of it resolves too."""
    out = []
    for info in pkgutil.iter_modules(wc.__path__):
        module = importlib.import_module(f"warpcurve.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [obj] if inspect.isfunction(obj) else \
                list(vars(obj).values()) if inspect.isclass(obj) else []
            for fn in members:
                fn = getattr(fn, "__func__", fn)     # class/static methods
                if inspect.isfunction(fn):
                    out.append((name, f"{info.name}.{fn.__qualname__}", fn))
    return out


def _defaulted_parameters():
    """The _SETTABLE_SURFACE of the installed package; a module or a
    callable default shows as its name."""
    def shown(value):
        if inspect.ismodule(value) or callable(value):
            return value.__name__
        return repr(value)

    out = {}
    for _, key, fn in _package_callables():
        params = inspect.signature(fn).parameters.values()
        defaults = tuple(f"{q.name}={shown(q.default)}"
                         for q in params if q.default is not q.empty)
        if defaults:
            out[key] = defaults
    return out


def test_settable_surface_pins_every_default():
    assert _defaulted_parameters() == _SETTABLE_SURFACE


def _params(fn):
    """fn's parameters as a call binds them: without a first self or cls."""
    params = list(inspect.signature(fn).parameters.values())
    return params[1:] if params and params[0].name in ("self", "cls") \
        else params


def _omitted_defaults(call, fn):
    """The defaulted parameters of fn that a call leaves out.  A **kwargs
    argument leaves out every default; a *args one passes every
    positional rest."""
    params = _params(fn)
    if any(kw.arg is None for kw in call.keywords):
        return {q.name for q in params if q.default is not q.empty}
    if any(isinstance(a, ast.Starred) for a in call.args):
        return set()
    named = {kw.arg for kw in call.keywords}
    return {q.name for q in params[len(call.args):]
            if q.default is not q.empty and q.name not in named}


def _passed_parameters(call, fn):
    """The parameters of fn that a call passes.  A **kwargs argument
    passes every one; a *args one every positional rest."""
    params = _params(fn)
    if any(kw.arg is None for kw in call.keywords):
        return {q.name for q in params}
    if not any(isinstance(a, ast.Starred) for a in call.args):
        params = params[:len(call.args)]
    return {q.name for q in params if q.kind.name.startswith("POSITIONAL")} \
        | {kw.arg for kw in call.keywords}


def _package_calls(dirs):
    """(path, surface key, function, call) for every call of a callable
    the package defines, in the .py files under the repository's dirs.

    A call is matched by the name it calls, a bare name or an attribute:
    a function or a class by any module name bound to it (a class calls
    its __init__), a method by its own; cls(...) in a classmethod calls
    the class that defines it."""
    by_name = {}
    for name, key, fn in _package_callables():
        method = "." in fn.__qualname__ and fn.__name__ != "__init__"
        called = fn.__name__ if method else name
        by_name.setdefault(called, []).append((key, fn))
    root = Path(__file__).resolve().parents[1]
    for path in sorted(p for d in dirs for p in (root / d).rglob("*.py")):
        tree = ast.parse(path.read_text())
        class_of = {}
        for cdef in ast.walk(tree):
            for fdef in cdef.body if isinstance(cdef, ast.ClassDef) else ():
                if any(getattr(d, "id", None) == "classmethod"
                       for d in getattr(fdef, "decorator_list", ())):
                    class_of.update(
                        (call, cdef.name) for call in ast.walk(fdef)
                        if isinstance(call, ast.Call)
                        and getattr(call.func, "id", None) == "cls")
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            called = class_of.get(call) or (
                func.id if isinstance(func, ast.Name) else
                func.attr if isinstance(func, ast.Attribute) else None)
            for key, fn in by_name.get(called, ()):
                yield path.relative_to(root), key, fn, call


def _surface_names(defaults):
    return {d.split("=", 1)[0] for d in defaults}


def test_every_default_is_omitted_outside_tests():
    relied = {}
    for path, key, fn, call in _package_calls(("src", "demos", "perfbench")):
        if "tests" not in path.parts:
            relied.setdefault(key, set()).update(_omitted_defaults(call, fn))
    unrelied = {}
    for key, defaults in _SETTABLE_SURFACE.items():
        dead = _surface_names(defaults) - relied.get(key, set())
        if dead:
            unrelied[key] = sorted(dead)
    assert unrelied == {}


# defaults no caller outside tests and examples overrides, kept for a
# stated reason
_OVERRIDDEN_ONLY_BY_TESTS = {
    # the seam tests substitute for the command line
    "cli.main": {"argv"},
}


def test_every_default_is_overridden_by_some_call():
    # the dual of the test above: a setting needs a caller outside tests
    # and examples that wants another value than its default, in src/ or
    # perfbench; a default only tests or demos override is a constant in
    # disguise
    passed = {}
    for path, key, fn, call in _package_calls(("src", "perfbench")):
        if "tests" not in path.parts:
            passed.setdefault(key, set()).update(_passed_parameters(call, fn))
    never = {}
    for key, defaults in _SETTABLE_SURFACE.items():
        fixed = _surface_names(defaults) - passed.get(key, set()) \
            - _OVERRIDDEN_ONLY_BY_TESTS.get(key, set())
        if fixed:
            never[key] = sorted(fixed)
    assert never == {}


@pytest.mark.parametrize("requirement, below, at, above", [
    ("> 0", False, False, True),
    ("> 0 (strict lattice)", False, False, True),
    ("< 0", True, False, False),
    ("<= 1e-12", True, True, False),
])
def test_a_row_verdict_is_its_requirement(requirement, below, at, above):
    bound = float(requirement.split()[1])
    step = max(abs(bound), 1e-300) * 1e-3
    for value, passed in ((bound - step, below), (bound, at),
                          (bound + step, above), (np.nan, False)):
        row = CheckRow.against("row", np.float64(value), requirement)
        assert row.passed is passed, (value, requirement)
        assert type(row.value) is float
        assert row.value == value or np.isnan(value) and np.isnan(row.value)
        assert (row.name, row.requirement, row.witness) == \
            ("row", requirement, None)
    assert CheckRow.against("row", 1.0, "> 0", (0.5, 3)).witness == (0.5, 3)


def test_validation_lattice_resolution(cosh, spec1):
    g = wc.make_grid(1, 64)
    p = build_prescription(cosh, spec1, g, c0=np.sinh(1.0), eps=0.0, mode=1,
                           t_minus=0.5, t_plus=1.6)
    below, slab, above = validation_lattices(p)
    assert slab.size == 257
    assert slab[0] == 0.5 and slab[-1] == 1.6


def test_gauge_normalization_and_decrease(cosh):
    gauge = build_phi(cosh, 0.5, 1.5, t0=1.0, eps_phi=0.1)
    assert abs(gauge.phi(1.0) - 1.0) <= 1e-14
    t = np.linspace(0.5, 1.5, 101)
    phi = gauge.phi(t)
    assert np.all(np.diff(phi) < 0)
    assert np.all(gauge.phi_prime(t) < 0)


def test_gauge_error_for_fast_decaying_k_and_recovery():
    prof = wc.WarpingProfile.power(0.5, 0.5, 4.0)
    with pytest.raises(wc.GaugeError):
        build_phi(prof, 1.0, 3.0, t0=None, eps_phi=0.01)
    gauge = build_phi(prof, 1.0, 3.0, t0=None, eps_phi=1.5)
    assert gauge.eps_phi == 1.5


def test_gauge_anchor_outside_the_slab_is_a_config_error(cosh):
    for t0 in (0.5, 2.0):
        with pytest.raises(wc.ConfigError, match=f"^anchor t0 = {t0} must "
                           r"lie in \(0.5, 1.5\)$"):
            build_phi(cosh, 0.5, 1.5, t0=t0, eps_phi=0.1)


def test_gauge_rejects_negative_decay(cosh):
    with pytest.raises(wc.GaugeError):
        build_phi(cosh, 0.5, 1.5, t0=None, eps_phi=-0.1)


@pytest.mark.parametrize("eps_phi", [np.nan, np.inf])
def test_gauge_rejects_a_non_finite_decay(cosh, eps_phi):
    # a NaN rate used to pass both the sign test and the phi' < 0 scan
    with pytest.raises(wc.GaugeError, match="finite"):
        build_phi(cosh, 0.5, 1.5, t0=None, eps_phi=eps_phi)


def test_gauge_underflow_asks_for_a_lower_rate(cosh):
    # exp(eps_phi (t0 - t)) underflows phi to 0 above t0, so phi' = -0:
    # a larger rate cannot make it negative
    with pytest.raises(wc.GaugeError, match="phi = 0 underflows near t = "
                       ".*, so phi' = -0 is not < 0; lower eps_phi$"):
        build_phi(cosh, 0.5, 1.5, t0=None, eps_phi=1e300)


@pytest.mark.parametrize("eps_phi", [0.01, 1000.0])
def test_increasing_gauge_asks_for_a_higher_rate(eps_phi):
    # kappa = 1/(2t): phi' has the sign of 1/(2t) - eps_phi, positive near
    # t_lo = 0 for any rate; at 1000, phi = inf there and phi' = +inf
    prof = wc.WarpingProfile.power(0.5, 0.0, 4.0)
    with pytest.raises(wc.GaugeError,
                       match="^phi' = .* >= 0 near t = 4e-09; raise eps_phi$"):
        build_phi(prof, 1.0, 3.0, t0=None, eps_phi=eps_phi)


def test_gauge_overflow_to_nan_asks_for_a_lower_rate(cosh, monkeypatch):
    # an overflowed phi = inf times a vanishing bracket gives phi' = NaN
    monkeypatch.setattr(Gauge, "phi",
                        lambda self, t: np.full(np.shape(t), np.inf))
    monkeypatch.setattr(Gauge, "phi_prime", lambda self, t: self.phi(t) * 0)
    with pytest.raises(wc.GaugeError, match="phi = inf overflows near t = "
                       ".*, so phi' = nan is not < 0; lower eps_phi$"):
        build_phi(cosh, 0.5, 1.5, t0=None, eps_phi=0.1)


def test_gauge_rows_witness_the_first_pick_of_their_lattices(cosh, spec1):
    hp = make_problem(n=1, N=64, eps=0.1, t_plus=1.5)
    p = hp.prescription
    power = wc.WarpingProfile.power(0.5, 0.5, 4.0)
    pp = Prescription(power, spec1, wc.make_grid(1, 16), t_minus=1.0,
                      t_plus=2.0, c0=1.0, eps=0.0, mode=(1,))
    hps = [hp, wc.build_homotopy(p, t0=hp.t0, eps_phi=0.0),
           wc.build_homotopy(p, t0=0.6, eps_phi=2.0),
           # gauges build_phi refuses: the anchor above t_plus fails (c),
           # phi ~ sqrt(t) increases and fails (b)-(d)
           HomotopyProblem(p, Gauge(cosh, t0=1.55, eps_phi=0.1)),
           HomotopyProblem(pp, Gauge(power, t0=1.5, eps_phi=0.0))]
    failed = []
    for hp in hps:
        g = hp.gauge
        below, slab, above = validation_lattices(hp.prescription)
        full = np.concatenate([below, slab, above])
        t0 = np.array([g.t0])
        lattices = [(g.phi(slab), slab, np.argmin),
                    (g.phi(below) - 1.0, below, np.argmin),
                    (1.0 - g.phi(above), above, np.argmin),
                    (g.phi_prime(full), full, np.argmax),
                    (np.abs(g.phi(t0) - 1.0), t0, np.argmax)]
        rows = verify.gauge_rows(hp)
        for row, (a, tarr, pick) in zip(rows, lattices, strict=True):
            i = int(pick(a))
            assert (row.value, row.witness) == (a[i], (tarr[i],))
        # the margins and verdicts as the verify table computed them when
        # it reduced the gauge lattices itself
        phi_slab, phi_below = g.phi(slab), g.phi(below)
        phi_above = g.phi(above)
        dphi, at_t0 = g.phi_prime(full).max(), abs(float(g.phi(g.t0)) - 1.0)
        assert [r.value for r in rows] == [
            phi_slab.min(), phi_below.min() - 1.0, 1.0 - phi_above.max(),
            dphi, at_t0]
        assert [r.passed for r in rows] == [
            phi_slab.min() > 0, phi_below.min() > 1.0, phi_above.max() < 1.0,
            dphi < 0, at_t0 <= 1e-14]
        failed.append([r.name[:9] for r in rows if not r.passed])
    assert failed == [[], [], [], ["gauge (c)"],
                      ["gauge (b)", "gauge (c)", "gauge (d)"]]


def test_homotopy_stores_each_input_once(cosh, spec1):
    hp = make_problem(n=1, N=64, eps=0.1, t_plus=1.5)
    p, g = hp.prescription, hp.gauge
    assert (hp.profile, hp.spec, hp.grid) == (p.profile, p.spec, p.grid)
    assert (hp.t0, hp.eps_phi) == (g.t0, g.eps_phi)
    with pytest.raises(AttributeError):
        hp.eps_phi = 0.0


def test_homotopy_endpoints_and_midpoint(cosh, spec1):
    hp = make_problem(n=1, N=64, t_minus=0.5, t_plus=1.5)   # t0 = 1
    zc = np.full((64,), 1.0)
    h, h1, _ = hp.profile.eval(zc)
    v1, _ = hp.psi_of(1.0, zc, h, h1)
    assert np.abs(v1 - SINH1 / np.cosh(1.0)).max() <= 1e-15
    v0, _ = hp.psi_of(0.0, zc, h, h1)
    assert np.abs(v0 - hp.gauge.psi0(1.0, hp.profile.eval(1.0)[0])).max() \
        <= 1e-15
    # at the crossing-anchor point both endpoints equal k(1) = tanh(1)
    h, h1, _ = hp.profile.eval(1.0)
    psi = hp.prescription.psi(1.0, h, 0)
    psi0, _ = hp.gauge.psi0_pair(1.0, h, h1)
    assert 0.5 * psi + 0.5 * psi0 == pytest.approx(TANH1, rel=1e-14)


def test_homotopy_linearity_and_default_anchor(cosh, spec1):
    hp = make_problem(n=1, N=64)       # t_plus = 1.6 so t0 defaults to 1.05
    assert hp.t0 == pytest.approx(1.05)
    z = np.full((64,), 0.9)
    h, h1, _ = hp.profile.eval(z)
    for s in (0.25, 0.5, 0.75):
        vs, _ = hp.psi_of(s, z, h, h1)
        v1, _ = hp.psi_of(1.0, z, h, h1)
        v0, _ = hp.psi_of(0.0, z, h, h1)
        assert np.abs(vs - (s * v1 + (1 - s) * v0)).max() <= 1e-15


def test_drift_identity_at_s0(cosh, spec1):
    hp = make_problem(n=1, N=64)
    slab = np.linspace(0.5, 1.6, 257)
    drift = hp.drift_lattice(0.0, slab)
    psi0 = hp.gauge.psi0(slab, hp.profile.eval(slab)[0])[:, None]
    assert np.abs(drift + 0.1 * psi0).max() <= 1e-15
    raw = _drift_raw_lattice(hp, 0.5, slab)
    red = hp.drift_lattice(0.5, slab)
    assert np.abs(raw - red).max() <= 1e-13


def test_homotopy_report_margins(cosh, spec1):
    hp = make_problem(n=1, N=64, eps=0.1, t_plus=1.5)
    rows = hp.homotopy_report()
    assert [r.passed for r in rows] == [True] * 4
    assert all(r.value > 1e-12 for r in rows)   # strict slack


def test_homotopy_v_fails_exactly_at_zero_decay(cosh, spec1):
    hp = make_problem(n=1, N=64, eps=0.1, t_plus=1.5)
    hp0 = wc.build_homotopy(hp.prescription, t0=hp.t0, eps_phi=0.0)
    rows = hp0.homotopy_report()
    assert [r.passed for r in rows] == [True, True, True, False]
    assert rows[3].value == 0.0
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
    p = Prescription(cosh, spec1, g, c0=0.1, eps=0.0, mode=1,
                     t_minus=0.5, t_plus=1.5)
    with pytest.raises(wc.BisectError):
        barrier_crossings(p)


def _bisect_crossings(p):
    """60 bisection steps per node: the crossings barrier_crossings returns."""
    lo = np.full(p.grid.size, p.t_minus)
    hi = np.full(p.grid.size, p.t_plus)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        pos = p.psi(mid, p.profile.eval(mid)[0], slice(None)) \
            - kappa(p.profile, mid) > 0
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
        p = build_custom_prescription(cosh, spec, g, _custom_psi,
                                      _custom_psi_t, t_minus=0.5, t_plus=1.5)
    else:
        p = build_prescription(cosh, spec, g, c0=np.sinh(1.0), eps=eps,
                               mode=mode, t_minus=0.5, t_plus=1.5)
    passes, levels = [], []
    profile_eval, k_level = p.profile.eval, wc.ambient.k_level
    monkeypatch.setattr(p.profile, "eval",
                        lambda t: passes.append(t) or profile_eval(t))
    monkeypatch.setattr(wc.ambient, "k_level",
                        lambda *a: levels.append(a) or k_level(*a))
    got = barrier_crossings(p)
    monkeypatch.undo()
    ref = _bisect_crossings(p)
    for x, y in zip(got, ref):
        assert abs(x - y) <= 4 * np.spacing(y)
    # one profile evaluation per pass: k comes from the h, h' psi uses
    assert len(levels) == len(passes)
    # two passes check the bracket ends; bisection took 60 more
    assert len(passes) - 2 <= 13
    if eps == 0.0 and mode is not None:
        # psi = sinh(1) / cosh(t) crosses k = tanh(t) at t = 1 exactly
        assert abs(got[0] - 1.0) <= 4 * np.spacing(1.0)
        assert abs(got[1] - 1.0) <= 4 * np.spacing(1.0)


def _crossings_or_error(p):
    try:
        return barrier_crossings(p)
    except wc.BisectError as exc:
        return str(exc)


def _both_paths(p, monkeypatch):
    """barrier_crossings (or its BisectError) on the two-node path and on
    the all-node path, which a prescription without a key takes."""
    two = _crossings_or_error(p)
    with monkeypatch.context() as m:
        m.setattr(p, "separable_key", lambda: None)
        every = _crossings_or_error(p)
    return two, every


def _psi_node_sizes(p, monkeypatch):
    """Number of nodes psi is evaluated at, per call of barrier_crossings."""
    sizes, psi = [], p.psi
    monkeypatch.setattr(
        p, "psi", lambda t, h, node=slice(None):
        sizes.append(np.arange(p.grid.size)[node].size) or psi(t, h, node))
    barrier_crossings(p)
    monkeypatch.undo()
    return sizes


def test_separable_crossings_root_find_two_nodes(cosh, monkeypatch):
    g = wc.make_grid(1, 256)
    spec = wc.CurvatureSpec(1, 1)
    p = build_prescription(cosh, spec, g, c0=SINH1, eps=0.13, mode=3,
                           t_minus=0.5, t_plus=1.5)
    sizes = _psi_node_sizes(p, monkeypatch)
    assert sizes[:2] == [2, 2] and max(sizes) == 2
    custom = build_custom_prescription(cosh, spec, g, _custom_psi,
                                       _custom_psi_t, t_minus=0.5,
                                       t_plus=1.5)
    sizes = _psi_node_sizes(custom, monkeypatch)
    assert sizes[:2] == [g.size, g.size]


@pytest.mark.parametrize("profile,n,N,mode,eps", [
    ("cosh", 1, 256, 3, 0.13), ("cosh", 1, 2048, 4, -0.2),
    ("cosh", 1, 64, 0, 0.1), ("cosh", 2, 32, (2, 1), 0.1),
    ("cosh", 2, 32, (0, 0), -0.1), ("exp", 1, 100, 5, 0.27),
    ("power", 2, 24, (1, 3), 0.2)])
def test_separable_crossings_equal_the_all_node_path(profile, n, N, mode,
                                                     eps, monkeypatch):
    # psi = k where h' = h psi: c0 = h'(t_mid) puts the eps = 0 crossing
    # mid-slab; a 0 frequency makes every key tie
    prof = _PROFILES[profile]
    t_minus, t_plus = prof.t_lo + np.array([0.2, 0.8]) * (prof.t_hi
                                                          - prof.t_lo)
    c0 = float(prof.eval(np.array(0.5 * (t_minus + t_plus)))[1])
    p = build_prescription(prof, wc.CurvatureSpec(n, 1), wc.make_grid(n, N),
                           c0=c0, eps=eps * c0, mode=mode, t_minus=t_minus,
                           t_plus=t_plus)
    two, every = _both_paths(p, monkeypatch)
    assert isinstance(two, tuple)
    assert two == every


@pytest.mark.parametrize("n,N,mode,c0", [
    (1, 18, 2, 0.3), (1, 22, 4, 0.5), (2, 19, (1, 3), 0.5), (1, 64, 1, 0.1),
    (1, 64, 3, 3.0), (2, 16, (0, 2), 2.5)])
def test_separable_bisect_error_names_the_full_check_node(cosh, n, N, mode,
                                                          c0, monkeypatch):
    # c0 0.1-0.5 fail at t_minus, 2.5 and 3 at t_plus; in the first three
    # two keys one ulp apart round to the same F(t_minus), so the failing
    # node is not argmin(h psi)
    p = Prescription(cosh, wc.CurvatureSpec(n, 1), wc.make_grid(n, N),
                     c0=c0, eps=0.3, mode=mode, t_minus=0.5,
                     t_plus=1.5)
    two, every = _both_paths(p, monkeypatch)
    assert two.startswith("no sign change for the crossing at node ")
    assert two == every
    if c0 in (0.3, 0.5):
        key = p.h_psi
        node = int(two.rsplit(" ", 1)[1])
        assert node != np.argmin(key) and key[node] != key.min()


def test_nan_prescription_has_no_barrier(cosh, spec1, monkeypatch):
    # NaN compares False both ways: it must fail the bracket's sign check,
    # not pass it and close every bracket onto t_minus
    p = Prescription(cosh, spec1, wc.make_grid(1, 64), c0=SINH1,
                     eps=float("nan"), mode=1, t_minus=0.5,
                     t_plus=1.5)
    two, every = _both_paths(p, monkeypatch)
    assert two == every == "no sign change for the crossing at node 0"


def test_s_lattice_is_the_documented_one():
    assert S_LATTICE == (0.0, 0.25, 0.5, 0.75, 1.0)


def _angular(p):
    """The angular factor g(u) of a radial-decay prescription, flat order."""
    return wc.problem._angular_field(p.grid, p.mode)


def test_angular_mode_two_axes(cosh):
    spec = wc.CurvatureSpec(2, 1)
    g = wc.make_grid(2, 16)
    p = build_prescription(cosh, spec, g, c0=np.sinh(1.0), eps=0.1,
                           mode=(2, 1), t_minus=0.5, t_plus=1.5)
    X, Y = g.coords()
    # in flat node order, and h psi = c0 + eps g(u) stored once from it
    assert np.allclose(_angular(p), g.flatten(np.cos(2 * X) * np.cos(Y)),
                       atol=1e-14)
    assert np.array_equal(p.h_psi, p.c0 + p.eps * _angular(p))
    with pytest.raises(wc.ConfigError,
                       match=r"needs 2 frequencies, got \(1, 2, 3\)"):
        build_prescription(cosh, spec, g, c0=1.0, eps=0.1, mode=(1, 2, 3),
                           t_minus=0.5, t_plus=1.5)


def test_the_default_mode_at_n2_is_m_0(cosh):
    # one frequency at n = 2 means (m, 0), for the config's default too
    spec, g = wc.CurvatureSpec(2, 2), wc.make_grid(2, 16)
    kw = dict(c0=np.sinh(1.0), eps=0.1, t_minus=0.5, t_plus=1.6)
    default = build_prescription(cosh, spec, g, mode=RunConfig().mode, **kw)
    assert np.array_equal(default.h_psi,
                          build_prescription(cosh, spec, g, mode=(1, 0),
                                             **kw).h_psi)
    assert np.array_equal(default.h_psi,
                          build_prescription(cosh, spec, g, mode=(1,),
                                             **kw).h_psi)
    assert wc.problem.angular_mode(3, 2, 16) == (3, 0)


@pytest.mark.parametrize("n, mode", [(1, 1.5), (1, np.nan), (1, np.inf),
                                     (1, -np.inf), (2, (1, 2.5)),
                                     (2, (np.nan, 1)), (1, "1")],
                         ids=["1.5", "nan", "inf", "-inf", "1-2.5", "nan-1",
                              "text"])
def test_a_non_integer_mode_is_a_config_error(cosh, n, mode):
    # int() used to truncate 1.5 to 1 and raise a bare ValueError on NaN
    # and an OverflowError on inf
    spec, g = wc.CurvatureSpec(n, 1), wc.make_grid(n, 16)
    with pytest.raises(wc.ConfigError, match=re.escape(
            f"angular mode needs integer frequencies, got {mode!r}")):
        build_prescription(cosh, spec, g, c0=SINH1, eps=0.1, mode=mode,
                           t_minus=0.5, t_plus=1.5)


_BOUND_64 = "angular mode needs |m| <= N/2 = 32 for N = 64 nodes per axis"


@pytest.mark.parametrize("kw, message", [
    ({"eps": np.nan}, "radial-decay prescription needs a finite eps, got nan"),
    ({"eps": np.inf}, "radial-decay prescription needs a finite eps, got inf"),
    ({"eps": -np.inf},
     "radial-decay prescription needs a finite eps, got -inf"),
    ({"mode": 40}, f"{_BOUND_64}, got 40"),
    ({"mode": 2.0 ** 70}, f"{_BOUND_64}, got 1.1805916207174113e+21"),
    ({"mode": 1e308}, f"{_BOUND_64}, got 1e+308"),
    ({"mode": 10 ** 20}, f"{_BOUND_64}, got 100000000000000000000"),
    ({"mode": (1, -33)}, f"{_BOUND_64}, got (1, -33)"),
], ids=["eps-nan", "eps-inf", "eps-minus-inf", "mode-40", "mode-2**70",
        "mode-1e308", "mode-10**20", "mode-1--33"])
def test_radial_decay_inputs_are_config_errors(cosh, kw, message):
    # eps = nan failed as "hypothesis (positivity) violated"; mode 40 built
    # the mode-24 field on 64 nodes, 2**70 an aliased one, 1e308 a NaN
    # field after an overflow warning, and 10**20 was "not an integer"
    n = len(np.atleast_1d(kw.get("mode", 1)))
    args = {"c0": SINH1, "eps": 0.1, "mode": 1, **kw}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(wc.ConfigError, match=f"^{re.escape(message)}$"):
            build_prescription(cosh, wc.CurvatureSpec(n, 1),
                               wc.make_grid(n, 64), t_minus=0.5,
                               t_plus=1.5, **args)


def test_a_mode_at_the_nyquist_bound_is_resolved(cosh, spec1):
    # cos(32 u) on 64 nodes is (-1)^j; 33 would sample cos(31 u)
    p = build_prescription(cosh, spec1, wc.make_grid(1, 64), c0=SINH1,
                           eps=0.1, mode=-32, t_minus=0.5, t_plus=1.5)
    assert np.array_equal(p.h_psi, SINH1 + 0.1 * (-1.0) ** np.arange(64))


def test_an_integer_valued_float_mode_is_that_integer(cosh, spec1):
    g = wc.make_grid(1, 64)
    kw = dict(c0=SINH1, eps=0.1, t_minus=0.5, t_plus=1.5)
    assert np.array_equal(
        build_prescription(cosh, spec1, g, mode=2.0, **kw).h_psi,
        build_prescription(cosh, spec1, g, mode=2, **kw).h_psi)
    mode = wc.problem.angular_mode(np.array([2.0, -1.0]), 2, 16)
    assert mode == (2, -1) and all(type(m) is int for m in mode)


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
    p = build_custom_prescription(cosh, spec1, g, _custom_psi, _custom_psi_t,
                                  t_minus=0.5, t_plus=1.5)
    return [radial, wc.build_homotopy(p)]


def _per_term(hp, s, t, ang, coords):
    """Psi, d_t Psi, psi, psi_t, psi0, psi0_t from the per-term formulas."""
    p, gauge = hp.prescription, hp.gauge
    if isinstance(p, Prescription):
        h, _, _ = p.profile.eval(t)
        psi = (p.c0 + p.eps * ang) / h
        h, h1, _ = p.profile.eval(t)
        psi_t = -(h1 / h) * (p.c0 + p.eps * ang) / h
    else:
        psi = p.psi_fn(t, coords)
        psi_t = p.psi_t_fn(t, coords)
    h, h1, _ = gauge.profile.eval(t)
    psi0 = gauge.k0h0 * np.exp(gauge.eps_phi * (gauge.t0 - t)) / h
    psi0_t = -(gauge.eps_phi + h1 / h) * psi0
    return (s * psi + (1.0 - s) * psi0, s * psi_t + (1.0 - s) * psi0_t,
            psi, psi_t, psi0, psi0_t)


def _drift_raw_lattice(hp, s, tarr):
    """d_t Psi + kappa Psi on (t-lattice) x nodes, termwise from the pairs."""
    t = np.asarray(tarr)[:, None]
    h, h1, _ = hp.profile.eval(t)
    (psi, psi_t), (psi0, psi0_t) = (hp.prescription.psi_pair(t, h, h1),
                                    hp.gauge.psi0_pair(t, h, h1))
    val = s * psi + (1.0 - s) * psi0
    return s * psi_t + (1.0 - s) * psi0_t + (h1 / h) * val


def _problems_2d(cosh):
    g = wc.make_grid(2, 16)
    p = build_custom_prescription(cosh, wc.CurvatureSpec(2, 1), g,
                                  _custom_psi, _custom_psi_t, t_minus=0.5,
                                  t_plus=1.5)
    return [make_problem(n=2, N=16, eps=0.1, t_plus=1.5), wc.build_homotopy(p)]


def test_psi_of_is_the_blend_of_both_pairs_bit_for_bit(cosh, spec1):
    # at s = 1 psi_of computes no gauge pair, whose weight in the blend is
    # 0; its result is the blend's all the same, as it is at s < 1, also
    # for a psi_t_fn that returns a constant (psi_pair broadcasts it)
    rng = np.random.default_rng(29)
    constant_t = CustomPrescription(
        profile=cosh, spec=spec1, grid=wc.make_grid(1, 64), t_minus=0.5,
        t_plus=1.5, psi_fn=lambda t, x: 0.7 - 0.05 * np.cos(x[-1]) + 0.0 * t,
        psi_t_fn=lambda t, x: 0.0)
    for hp in _problems(cosh, spec1) + _problems_2d(cosh) + [
            wc.build_homotopy(constant_t)]:
        f, u = hp.grid.flatten, hp.grid.unflatten
        for _ in range(4):
            z = rng.uniform(0.55, 1.45, hp.grid.shape)
            h, h1, _ = cosh.eval(z)
            flat = f(z), f(h), f(h1)
            pairs = hp.prescription.psi_pair(*flat), hp.gauge.psi0_pair(*flat)
            for s in (0.0, 0.5, 1.0):
                got = hp.psi_of(s, z, h, h1)
                for k in range(2):
                    want = u(_blend(s, pairs[0][k], pairs[1][k]))
                    assert got[k].tobytes() == want.tobytes()


def test_psi_at_s1_is_finite_where_the_gauge_overflows(cosh, spec1,
                                                       monkeypatch):
    # the gauge pair is non-finite only where exp(eps_phi (t0 - z))
    # overflows, eps_phi (t0 - z) > 709: there the blend at s = 1 was
    # 0 inf = NaN, and Psi(1) is psi, as the homotopy defines it
    for hp in _problems(cosh, spec1):
        z = np.linspace(0.6, 1.4, hp.grid.N)
        h, h1, _ = cosh.eval(z)
        monkeypatch.setattr(hp.gauge, "psi0_pair", lambda t, h, h1: (
            np.full(t.shape, np.inf), np.full(t.shape, -np.inf)))
        psi, psi_t = hp.prescription.psi_pair(z, h, h1)
        got = hp.psi_of(1.0, z, h, h1)
        assert got[0].tobytes() == psi.tobytes()
        assert got[1].tobytes() == psi_t.tobytes()
        assert np.all(np.isinf(hp.psi_of(0.5, z, h, h1)[0]))


def test_fused_psi_pairs_match_per_term_formulas(cosh, spec1):
    rng = np.random.default_rng(3)
    for hp in _problems(cosh, spec1) + _problems_2d(cosh):
        p, grid = hp.prescription, hp.grid
        z = 1.0 + 0.2 * rng.standard_normal(grid.shape)
        coords = grid.coords()
        flat = np.stack([grid.flatten(c) for c in coords])
        flat_ang = _angular(p) if isinstance(p, Prescription) else None
        ang = None if flat_ang is None else grid.unflatten(flat_ang)
        h, h1, _ = cosh.eval(z)
        for s in (0.0, 0.3, 1.0):
            val, dt, *_ = _per_term(hp, s, z, ang, coords)
            got = hp.psi_of(s, z, h, h1)
            assert np.array_equal(got[0], val) and np.array_equal(got[1], dt)
            # one node through the evaluator's flat node index
            _, _, psi, psi_t, psi0, psi0_t = _per_term(
                hp, s, 1.1, None if ang is None else flat_ang[5], flat[:, 5])
            h5, h15, _ = cosh.eval(1.1)
            assert p.psi(1.1, h5, 5) == psi
            assert hp.gauge.psi0_pair(1.1, h5, h15) == (psi0, psi0_t)
            # psi_pair at one height over every node, node 5 among them
            _, _, psi, psi_t, _, _ = _per_term(hp, s, 1.1, flat_ang, flat)
            pair = p.psi_pair(1.1, h5, h15)
            assert np.array_equal(pair[0], psi)
            assert np.array_equal(pair[1], psi_t)
        # the lattices: (t column) x (all nodes in flat order)
        slab = np.linspace(0.5, 1.5, 9)
        t = slab[:, None]
        a = np.zeros((1, grid.size)) if ang is None else flat_ang[None, :]
        val, dt, psi, psi_t, _, _ = _per_term(hp, 1.0, t, a, flat[:, None, :])
        assert np.array_equal(_psi_lattice(p, slab), psi)
        assert np.array_equal(_Psi_lattice(hp, 1.0, slab), val)
        h, h1, _ = cosh.eval(t)
        assert np.array_equal(_drift_raw_lattice(hp, 1.0, slab),
                              dt + (h1 / h) * val)
        if isinstance(p, Prescription):
            # one column: every node's d/dt (h psi) is exactly 0
            assert np.array_equal(p.dt_h_psi_lattice(slab),
                                  np.zeros((slab.size, 1)))
        else:
            assert np.array_equal(p.dt_h_psi_lattice(slab),
                                  h1 * psi + h * psi_t)


def _stacked_homotopy_report(hp):
    """homotopy_report's (value, witness) pairs from the full stacks.

    Each row's margin lattice is stacked over s and reduced by one
    np.argmin: Psi for (ii), Psi - k at t_minus for (iii), k - Psi at
    t_plus for (iv) and minus the drift for s < 1 for (v).
    """
    p = hp.prescription
    _, slab, _ = validation_lattices(p)
    k_lo, k_hi = (kappa(p.profile, t) for t in (p.t_minus, p.t_plus))

    def psi(tarr):
        return np.stack([_Psi_lattice(hp, s, tarr) for s in S_LATTICE])

    strict_s = [s for s in S_LATTICE if s < 1.0]
    full = (slab.size, hp.grid.size)   # radial-decay drifts are one column
    drifts = np.stack([np.broadcast_to(hp.drift_lattice(s, slab), full)
                       for s in strict_s])
    out = []
    for a, svals, tarr in ((psi(slab), S_LATTICE, slab),
                           (psi([p.t_minus]) - k_lo, S_LATTICE, [p.t_minus]),
                           (k_hi - psi([p.t_plus]), S_LATTICE, [p.t_plus]),
                           (-drifts, strict_s, slab)):
        i = np.unravel_index(int(np.argmin(a)), a.shape)
        out.append((float(a[i]), (svals[i[0]], float(tarr[i[1]]), int(i[2]))))
    return out


def test_homotopy_report_matches_stacked_lattices(cosh, spec1):
    hps = _problems(cosh, spec1)
    hp = hps[0]
    hps.append(wc.build_homotopy(hp.prescription, t0=hp.t0, eps_phi=0.0))
    for hp in hps:
        rows = hp.homotopy_report()
        assert [(r.value, r.witness) for r in rows] == \
            _stacked_homotopy_report(hp)


def test_homotopy_iv_witness_is_the_first_argmin_of_its_margin(cosh):
    # at s = 1, nodes 3 and 16 hold Psi values one rounding apart that tie
    # in k - Psi: the witness is the first node attaining the margin, not
    # the first argmax of Psi
    p = Prescription(cosh, wc.CurvatureSpec(1, 1), wc.make_grid(1, 19),
                     c0=0.1, eps=-0.09, mode=3, t_minus=0.5,
                     t_plus=1.5)
    hp = wc.build_homotopy(p, eps_phi=4.0)
    row = hp.homotopy_report()[2]
    assert (row.value, row.witness) == _stacked_homotopy_report(hp)[2]
    assert row.witness == (1.0, 1.5, 3)
    assert np.argmax(_Psi_lattice(hp, 1.0, [p.t_plus])[0]) == 16


# -- the hypothesis margins: one engine for validation and verify ------------

def _custom_form(c0, eps):
    # depends on the last coordinate, so a witness at n = 2 pins the flat order
    def psi(t, x):
        return (c0 + eps * np.cos(x[-1])) / np.cosh(t)
    return dict(psi_fn=psi, psi_t_fn=lambda t, x: -np.tanh(t) * psi(t, x))


_FAILING = {
    "positivity-radial": dict(c0=0.5, eps=0.6, mode=1, t_minus=0.5,
                              t_plus=1.6),
    "positivity-custom": dict(_custom_form(0.5, 0.6), t_minus=0.5,
                              t_plus=1.6),
    "a-radial": dict(c0=SINH1, eps=0.0, mode=1, t_minus=1.2, t_plus=1.6),
    "a-custom": dict(_custom_form(SINH1, 0.05), t_minus=1.2, t_plus=1.6),
    "b-radial": dict(c0=SINH1, eps=0.05, mode=2, t_minus=0.5, t_plus=0.9),
    "b-custom": dict(_custom_form(SINH1, -0.05), t_minus=0.5, t_plus=0.9),
    # h psi = 0.7 - 0.05 cos u grows with h: d/dt (h psi) = h' psi > 0
    "c-custom": dict(t_minus=0.5, t_plus=1.2,
                     psi_fn=lambda t, x: 0.7 - 0.05 * np.cos(x[-1]) + 0.0 * t,
                     psi_t_fn=lambda t, x: 0.0 * t),
}

_MESSAGES = {
    "positivity-radial": "hypothesis (positivity) violated at t=0.5, "
                         "node={}: psi = -0.0886819 <= 0",
    "positivity-custom": "hypothesis (positivity) violated at t=0.5, "
                         "node={}: psi = -0.0886819 <= 0",
    "a-radial": "hypothesis (a) violated at t=1.2, node={}: "
                "psi - k = -0.184607 <= 0 (need psi > k)",
    "a-custom": "hypothesis (a) violated at t=1.2, node={}: "
                "psi - k = -0.212222 <= 0 (need psi > k)",
    "b-radial": "hypothesis (b) violated at t=0.9, node={}: "
                "k - psi = -0.138641 <= 0 (need psi < k)",
    "b-custom": "hypothesis (b) violated at t=0.9, node={}: "
                "k - psi = -0.138641 <= 0 (need psi < k)",
    "c-custom": "hypothesis (c) violated at t=1.2, node={}: "
                "d/dt(h psi) = 1.1321 > 0",
}

# witness node at n = 1 (N = 64) and n = 2 (N = 16, flat order)
_NODES = {"positivity-radial": (32, 8), "positivity-custom": (32, 128),
          "a-radial": (0, 0), "a-custom": (32, 128), "b-radial": (0, 0),
          "b-custom": (32, 128), "c-custom": (32, 128)}


def _failing_prescription(cosh, n, case, direct=False):
    """The failing case built by its form's constructor, which raises,
    or, direct, as that form's type, which does not validate."""
    g = wc.make_grid(n, 64 if n == 1 else 16)
    kw = dict(_FAILING[case])
    if n == 2 and "mode" in kw:
        kw["mode"] = (kw["mode"], 1)
    if "psi_fn" in kw:
        build = CustomPrescription if direct else build_custom_prescription
    else:
        build = Prescription if direct else build_prescription
    return build(cosh, wc.CurvatureSpec(n, 1), g, **kw)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("case", sorted(_FAILING))
def test_validation_error_messages(cosh, n, case):
    with pytest.raises(wc.ValidationError) as exc:
        _failing_prescription(cosh, n, case)
    assert str(exc.value) == _MESSAGES[case].format(_NODES[case][n - 1])
    assert exc.value.hypothesis == case.split("-")[0]
    assert exc.value.node == _NODES[case][n - 1]


def _psi_lattice(p, tarr):
    """psi on (t-lattice) x (all nodes)."""
    t = np.asarray(tarr)[:, None]
    return p.psi(t, p.profile.eval(t)[0], slice(None))


def _Psi_lattice(hp, s, tarr):
    """Psi = s psi + (1 - s) psi0 on (t-lattice) x (all nodes)."""
    t = np.asarray(tarr)[:, None]
    psi0 = hp.gauge.psi0(t, hp.profile.eval(t)[0])
    return s * _psi_lattice(hp.prescription, tarr) + (1.0 - s) * psi0


def _lattice_margins(p):
    """positivity and (a)-(c) reduced over the full validation lattices.

    Returns the margins and the first (t, node) np.argmin (np.argmax for
    (c)) picks on each lattice.
    """
    below, slab, above = validation_lattices(p)
    k_below = kappa(p.profile, below)[:, None]
    k_above = kappa(p.profile, above)[:, None]
    # radial-decay d/dt (h psi) is one column; spread it over the nodes
    dth = np.broadcast_to(p.dt_h_psi_lattice(slab), (slab.size, p.grid.size))
    lattices = [(_psi_lattice(p, slab), slab, np.argmin),
                (_psi_lattice(p, below) - k_below, below, np.argmin),
                (k_above - _psi_lattice(p, above), above, np.argmin),
                (dth, slab, np.argmax)]
    margins = [a.min() for a, _, _ in lattices[:3]] + [dth.max()]
    witnesses = []
    for a, tarr, pick in lattices:
        it, node = np.unravel_index(int(pick(a)), a.shape)
        witnesses.append((float(tarr[it]), int(node)))
    return margins, witnesses


def _assert_engine_rows(p):
    """hypothesis_rows and homotopy (ii)-(v) equal the full-lattice ones."""
    rows = verify.prescription_rows(p)
    ref, witnesses = _lattice_margins(p)
    slack = CUSTOM_C_SLACK if isinstance(p, CustomPrescription) else 0.0
    assert [r.value for r in rows] == ref
    assert [r.witness for r in rows] == witnesses
    assert [r.passed for r in rows] == [m > 0 for m in ref[:3]] \
        + [ref[3] <= slack]
    hp = wc.build_homotopy(p)
    assert [(r.value, r.witness) for r in hp.homotopy_report()] == \
        _stacked_homotopy_report(hp)
    return rows


def _check_prescription_rows(cosh, n, case):
    if case is None:
        g = wc.make_grid(n, 64 if n == 1 else 16)
        p = build_prescription(cosh, wc.CurvatureSpec(n, 1), g, c0=SINH1,
                               eps=0.1, mode=1 if n == 1 else (1, 1),
                               t_minus=0.5, t_plus=1.5)
    else:
        p = _failing_prescription(cosh, n, case, direct=True)
    rows = _assert_engine_rows(p)
    assert rows == list(hypothesis_rows(p))
    if case is not None:
        # validation raises the first failed row, witness included
        bad = next(r for r in rows if not r.passed)
        with pytest.raises(wc.ValidationError) as exc:
            wc.problem._validate_prescription(p)
        assert (exc.value.t, exc.value.node) == bad.witness
        assert f"{bad.value:.6g}" in str(exc.value)


@pytest.mark.parametrize("case", [None] + sorted(_FAILING))
def test_prescription_rows_are_the_engine_rows(cosh, case):
    _check_prescription_rows(cosh, 1, case)


@pytest.mark.parametrize("case", [None] + sorted(_FAILING))
def test_prescription_rows_are_the_engine_rows_2d(cosh, case):
    _check_prescription_rows(cosh, 2, case)


# -- the separable (T + M) margins of the radial-decay form -----------------

_PROFILES = {"cosh": wc.WarpingProfile.cosh(0.2, 3.0),
             "exp": wc.WarpingProfile.exp(-1.0, 2.0),
             "power": wc.WarpingProfile.power(2.0, 0.3, 3.0)}


def test_property_tests_draw_the_same_examples_every_run():
    # conftest's hypothesis profile derandomizes every @given test
    draws = []

    @settings(max_examples=10, database=None)
    @given(x=st.floats(0.0, 1.0))
    def draw(x):
        draws[-1].append(x)

    for _ in range(2):
        draws.append([])
        draw()
    assert draws[0] == draws[1] and len(set(draws[0])) > 1


@settings(max_examples=60, deadline=None, database=None)
@given(n=st.sampled_from([1, 2]), N=st.integers(16, 48),
       modes=st.tuples(st.integers(0, 5), st.integers(0, 5)),
       eps=st.one_of(st.just(0.0), st.floats(-0.8, 0.8)),
       c0=st.floats(0.3, 2.0), profile=st.sampled_from(sorted(_PROFILES)),
       lo=st.floats(0.05, 0.6), width=st.floats(0.1, 0.9))
def test_separable_margins_equal_the_full_lattice(n, N, modes, eps, c0,
                                                  profile, lo, width):
    # built directly: failing hypotheses must keep their witnesses too; a
    # 0 frequency makes g constant, so every node ties (TorusGrid needs
    # N >= 16)
    prof = _PROFILES[profile]
    t_minus = prof.t_lo + lo * (prof.t_hi - prof.t_lo)
    t_plus = t_minus + width * (prof.t_hi - t_minus)
    p = Prescription(prof, wc.CurvatureSpec(n, 1), wc.make_grid(n, N),
                     c0=c0, eps=eps, mode=modes[:n], t_minus=t_minus,
                     t_plus=t_plus)
    _assert_engine_rows(p)


@pytest.mark.parametrize("n,N,mode", [(1, 19, 3), (1, 38, 4), (2, 19, (3, 1))])
def test_separable_witness_keeps_rounding_ties(cosh, n, N, mode):
    # two nodes whose h psi differ by one ulp round to the same psi on
    # some t-row: the full lattice's first argmin is not argmin(h psi)
    p = build_prescription(cosh, wc.CurvatureSpec(n, 1), wc.make_grid(n, N),
                           c0=SINH1, eps=0.3, mode=mode, t_minus=0.5,
                           t_plus=1.5)
    node = _assert_engine_rows(p)[0].witness[1]
    key = p.h_psi
    assert node != np.argmin(key) and key[node] != key.min()


def test_nan_prescription_fails_at_the_full_lattice_witness(cosh, spec1):
    g = wc.make_grid(1, 64)
    p = Prescription(cosh, spec1, g, c0=SINH1, eps=float("nan"),
                     mode=1, t_minus=0.5, t_plus=1.5)
    rows = list(hypothesis_rows(p))
    _, witnesses = _lattice_margins(p)
    assert [r.witness for r in rows] == witnesses
    assert [np.isnan(r.value) for r in rows] == [True] * 3 + [False]
    assert [r.passed for r in rows] == [False, False, False, True]
    with pytest.raises(wc.ValidationError) as exc:
        wc.problem._validate_prescription(p)
    assert str(exc.value) == \
        "hypothesis (positivity) violated at t=0.5, node=0: psi = nan <= 0"
    hp = wc.build_homotopy(p)
    rows = hp.homotopy_report()
    ref = _stacked_homotopy_report(hp)
    assert [r.witness for r in rows] == [w for _, w in ref]
    assert rows[0].witness == (0.0, 0.5, 0)
    # Psi is NaN at every s, s = 0 included (0 * nan = nan)
    assert [np.isnan(r.value) for r in rows] == [True] * 3 + [False]
    assert [np.isnan(m) for m, _ in ref] == [True] * 3 + [False]
    assert (rows[3].value, rows[3].witness) == ref[3]


def test_separable_margins_allocate_no_full_lattice(cosh):
    # n = 2, N = 128: one 257 x 16384 lattice of float64 is 33.7 MB
    grid = wc.make_grid(2, 128)
    spec = wc.CurvatureSpec(2, 1)
    tracemalloc.start()
    try:
        p = build_prescription(cosh, spec, grid, c0=SINH1, eps=0.1,
                               mode=(1, 1), t_minus=0.5, t_plus=1.5)
        rows = wc.build_homotopy(p).homotopy_report()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.passed for r in rows] == [True] * 4
    assert peak < 4e6
