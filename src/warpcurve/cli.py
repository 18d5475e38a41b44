"""Command-line front end: solve, verify, and sweep workflows.

Configs are INI-style key-value blocks (JSON with the same nesting is
also accepted).  All floating output is printed with 17 significant
digits so reports round-trip exactly; runs are deterministic for a fixed
config and seed.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .ambient import WarpingProfile
from .curvature import CurvatureSpec
from .errors import (BarrierViolation, BisectError, ConeError, ConfigError,
                     ContinuationStall, DomainError, FrameError, GaugeError,
                     NewtonStall, ProfileError, ShapeError, ValidationError,
                     WarpcurveError)
from .geometry import compute_geometry, fields_csv
from .grid import make_grid, save_field
from .problem import barrier_crossings, build_homotopy, build_prescription
from .solver import (SolverConfig, build_manufactured, continuation,
                     newton_solve, residual)
from .verify import build_condition_table

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CODES = {
    ConfigError: 3,
    ValidationError: 4,
    GaugeError: 5,
    NewtonStall: 6,
    ContinuationStall: 7,
    BarrierViolation: 8,
    ConeError: 9,
    ProfileError: 10,
    DomainError: 11,
    BisectError: 12,
    ShapeError: 13,
    FrameError: 14,
}

_EXIT_DOC = """exit codes:
  0   success (verify: all rows passed)
  1   verify: one or more rows failed
  2   usage error (bad arguments, unreadable config)
  3   ConfigError        4  ValidationError (prints the hypothesis letter)
  5   GaugeError         6  NewtonStall
  7   ContinuationStall  8  BarrierViolation
  9   ConeError         10  ProfileError
 11   DomainError       12  BisectError
 13   ShapeError        14  FrameError
"""


def _fmt(x):
    return format(float(x), ".17g")


# -- configuration ------------------------------------------------------------

_SOLVER_DEFAULTS = SolverConfig()


@dataclass
class RunConfig:
    profile_kind: str = "cosh"
    profile_p: float = 2.0
    table_t: tuple = ()
    table_h: tuple = ()
    t_lo: float = 0.2
    t_hi: float = 3.0
    n: int = 1
    N: int = 256
    L: float = 2.0 * np.pi
    order: int = 2
    r: int = 1
    form: str = "radial-decay"
    c0: float = float(np.sinh(1.0))
    eps: float = 0.0
    mode: tuple = (1,)
    t_minus: float = 0.5
    t_plus: float = 1.6
    t0: float = None
    eps_phi: float = 0.1
    newton_tol: float = _SOLVER_DEFAULTS.newton_tol
    max_newton: int = _SOLVER_DEFAULTS.max_newton
    ds0: float = _SOLVER_DEFAULTS.ds0
    ds_min: float = _SOLVER_DEFAULTS.ds_min
    jacobian: str = "analytic"
    out_dir: str = "out"
    unsafe: bool = False
    seed: int = 12345
    sweep_N: tuple = ()
    sweep_eps: tuple = (0.0, 0.05, 0.1)
    sweep_r: tuple = ()
    mms_center: float = 1.0
    mms_amplitude: float = 0.01
    mms_freqs: tuple = ()

    def validate(self):
        if self.r > self.n:
            raise ConfigError(f"curvature order r={self.r} exceeds n={self.n}")
        if not (self.t_lo < self.t_minus < self.t_plus < self.t_hi):
            raise ConfigError("need t_lo < t_minus < t_plus < t_hi")
        if self.t0 is not None and not (self.t_minus < self.t0 < self.t_plus):
            raise ConfigError("anchor t0 must lie in (t_minus, t_plus)")
        if self.jacobian not in ("analytic", "fd", "fd-colored"):
            raise ConfigError(f"unknown jacobian mode {self.jacobian!r}")

    def echo(self):
        pairs = {k: (list(v) if isinstance(v, tuple) else v)
                 for k, v in vars(self).items()}
        return json.dumps(pairs, indent=2, sort_keys=True)


def _floats(text):
    return tuple(float(x) for x in str(text).replace(",", " ").split())


def _ints(text):
    return tuple(int(x) for x in str(text).replace(",", " ").split())


def _load_blocks(path):
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        raw = json.loads(text)
        return {str(k): dict(v) for k, v in raw.items()}
    cp = configparser.ConfigParser()
    cp.optionxform = str            # keep key case: n and N differ
    cp.read_string(text)
    return {name: dict(cp.items(name)) for name in cp.sections()}


def load_config(path):
    """Parse a config file (INI blocks or JSON) into a RunConfig."""
    blocks = _load_blocks(path)
    cfg = RunConfig()

    def get(block, key, cast, current):
        val = blocks.get(block, {}).get(key)
        if val is None:
            return current
        if cast is bool:
            return str(val).strip().lower() in ("1", "true", "yes", "on")
        return cast(val)

    cfg.profile_kind = get("profile", "kind", str, cfg.profile_kind)
    cfg.profile_p = get("profile", "p", float, cfg.profile_p)
    cfg.table_t = get("profile", "table_t", _floats, cfg.table_t)
    cfg.table_h = get("profile", "table_h", _floats, cfg.table_h)
    cfg.t_lo = get("profile", "t_lo", float, cfg.t_lo)
    cfg.t_hi = get("profile", "t_hi", float, cfg.t_hi)
    cfg.n = get("grid", "n", int, cfg.n)
    cfg.N = get("grid", "n_nodes", int, get("grid", "N", int, cfg.N))
    cfg.L = get("grid", "l", float, get("grid", "L", float, cfg.L))
    cfg.order = get("grid", "order", int, cfg.order)
    cfg.r = get("curvature", "r", int, cfg.r)
    cfg.form = get("prescription", "form", str, cfg.form)
    cfg.c0 = get("prescription", "c0", float, cfg.c0)
    cfg.eps = get("prescription", "eps", float, cfg.eps)
    cfg.mode = get("prescription", "mode", _ints, cfg.mode)
    cfg.t_minus = get("prescription", "t_minus", float, cfg.t_minus)
    cfg.t_plus = get("prescription", "t_plus", float, cfg.t_plus)
    cfg.t0 = get("homotopy", "t0", float, cfg.t0)
    cfg.eps_phi = get("homotopy", "eps_phi", float, cfg.eps_phi)
    cfg.newton_tol = get("solver", "newton_tol", float, cfg.newton_tol)
    cfg.max_newton = get("solver", "max_newton", int, cfg.max_newton)
    cfg.ds0 = get("solver", "ds0", float, cfg.ds0)
    cfg.ds_min = get("solver", "ds_min", float, cfg.ds_min)
    cfg.jacobian = get("solver", "jacobian", str, cfg.jacobian)
    cfg.out_dir = get("output", "dir", str, cfg.out_dir)
    cfg.unsafe = get("run", "unsafe", bool, cfg.unsafe)
    cfg.seed = get("run", "seed", int, cfg.seed)
    cfg.sweep_N = get("sweep", "n_values", _ints,
                      get("sweep", "N", _ints, cfg.sweep_N))
    cfg.sweep_eps = get("sweep", "eps", _floats, cfg.sweep_eps)
    cfg.sweep_r = get("sweep", "r", _ints, cfg.sweep_r)
    cfg.mms_center = get("manufactured", "center", float, cfg.mms_center)
    cfg.mms_amplitude = get("manufactured", "amplitude", float,
                            cfg.mms_amplitude)
    cfg.mms_freqs = get("manufactured", "freqs", _ints, cfg.mms_freqs)
    if len(cfg.mode) == 1 and cfg.n == 2:
        cfg.mode = (cfg.mode[0], 0)
    cfg.validate()
    return cfg


def build_problem(cfg, grid=None, r=None, eps=None):
    """Instantiate profile, grid, spec, prescription, and homotopy."""
    if cfg.profile_kind == "cosh":
        profile = WarpingProfile.cosh(cfg.t_lo, cfg.t_hi)
    elif cfg.profile_kind == "exp":
        profile = WarpingProfile.exp(cfg.t_lo, cfg.t_hi)
    elif cfg.profile_kind == "power":
        profile = WarpingProfile.power(cfg.profile_p, cfg.t_lo, cfg.t_hi)
    elif cfg.profile_kind == "custom-table":
        profile = WarpingProfile.from_table(cfg.table_t, cfg.table_h,
                                            cfg.t_lo, cfg.t_hi)
    else:
        raise ConfigError(f"unknown profile kind {cfg.profile_kind!r}")
    if grid is None:
        grid = make_grid(cfg.n, cfg.N, cfg.L, cfg.order)
    spec = CurvatureSpec(n=cfg.n, r=cfg.r if r is None else r)
    presc = build_prescription(
        profile, spec, grid, form=cfg.form, c0=cfg.c0,
        eps=cfg.eps if eps is None else eps, mode=cfg.mode,
        t_minus=cfg.t_minus, t_plus=cfg.t_plus, validate=not cfg.unsafe)
    hp = build_homotopy(presc, t0=cfg.t0, eps_phi=cfg.eps_phi)
    return profile, grid, spec, presc, hp


def solver_config(cfg):
    mode = "fd-colored" if cfg.jacobian in ("fd", "fd-colored") else "analytic"
    return SolverConfig(newton_tol=cfg.newton_tol, max_newton=cfg.max_newton,
                        ds0=cfg.ds0, ds_min=cfg.ds_min, jacobian_mode=mode)


# -- subcommands ---------------------------------------------------------------

def cmd_solve(cfg):
    profile, grid, spec, presc, hp = build_problem(cfg)
    scfg = solver_config(cfg)
    z, report = continuation(hp, scfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "steps.csv", "w", newline="") as f:
        f.write(report.csv_header() + "\n")
        for row in report.csv_rows():
            f.write(row + "\n")
    save_field(z, out / "z_final.f64")
    geom = compute_geometry(z, grid, profile)
    (out / "fields.csv").write_text(fields_csv(geom))
    fin = report.final
    margin_lo = fin.z_min - hp.t_minus
    margin_hi = hp.t_plus - fin.z_max
    lines = ["# warpcurve solve report", "", "[config]", cfg.echo(), "",
             "[field header]",
             f"n = {grid.n}", f"N = {grid.N}", f"L = {_fmt(grid.L)}",
             "layout = little-endian float64, node order axis-0 fastest", "",
             "[steps]", report.csv_header()]
    lines += list(report.csv_rows())
    lines += ["", "[summary]",
              f"verdict = {report.verdict}",
              f"final_residual = {_fmt(fin.residual)}",
              f"z_min = {_fmt(fin.z_min)}",
              f"z_max = {_fmt(fin.z_max)}",
              f"barrier_margin_lo = {_fmt(margin_lo)}",
              f"barrier_margin_hi = {_fmt(margin_hi)}",
              f"cone_margin = {_fmt(fin.cone_margin)}",
              f"newton_total = {sum(s.newton_iters for s in report.steps)}"]
    (out / "report.txt").write_text("\n".join(lines) + "\n")
    print(f"solve ok: residual={_fmt(fin.residual)} "
          f"barrier_margins=({_fmt(margin_lo)}, {_fmt(margin_hi)}) "
          f"cone_margin={_fmt(fin.cone_margin)} out={out}")
    return EXIT_OK


def cmd_verify(cfg):
    profile, grid, spec, presc, hp = build_problem(cfg)
    rows = build_condition_table(hp, seed=cfg.seed)
    width = max(len(r.name) for r in rows) + 2
    print(f"warpcurve {__version__} verification table "
          f"(seed {cfg.seed})")
    for r in rows:
        print(r.format(width))
    failed = [r for r in rows if not r.passed]
    print(f"{len(rows) - len(failed)}/{len(rows)} rows passed")
    if failed:
        for r in failed:
            print(f"FAILED: {r.name} = {_fmt(r.value)} (need {r.requirement})")
        return EXIT_VERIFY_FAILED
    return EXIT_OK


_SWEEP_HEADER = ("axis,value,status,residual,newton_total,z_min,z_max,"
                 "barrier_lo,barrier_hi,lam1_max,grad_max")


def _sweep_row(axis, value, status, residual=np.nan, newton=0, zmin=np.nan,
               zmax=np.nan, blo=np.nan, bhi=np.nan, lam1=np.nan, gmax=np.nan):
    return (f"{axis},{_fmt(value)},{status},{_fmt(residual)},{newton},"
            f"{_fmt(zmin)},{_fmt(zmax)},{_fmt(blo)},{_fmt(bhi)},"
            f"{_fmt(lam1)},{_fmt(gmax)}")


def cmd_sweep(cfg, axis):
    rows = [_SWEEP_HEADER]
    ok_runs = 0
    invariant_fired = False
    scfg = solver_config(cfg)

    def run_solve(n_nodes=None, r=None, eps=None):
        grid = make_grid(cfg.n, n_nodes or cfg.N, cfg.L, cfg.order)
        _, grid, spec, presc, hp = build_problem(cfg, grid=grid, r=r, eps=eps)
        z, report = continuation(hp, scfg)
        lo, hi = barrier_crossings(presc) if presc.validated else \
            (hp.t_minus, hp.t_plus)
        return presc, hp, z, report, lo, hi

    if axis == "N":
        if not cfg.unsafe:
            raise ConfigError("manufactured-solution sweep needs unsafe mode "
                              "(run.unsafe = true or --unsafe)")
        values = cfg.sweep_N or ((64, 128, 256) if cfg.n == 1 else (24, 48, 96))
        if len(values) < 2:
            raise ConfigError("sweep axis needs at least 2 values")
        profile, _, spec, _, _ = build_problem(
            cfg, grid=make_grid(cfg.n, max(16, min(values)), cfg.L, cfg.order))
        freqs = cfg.mms_freqs or (1,) * cfg.n
        for N in values:
            grid = make_grid(cfg.n, N, cfg.L, cfg.order)
            try:
                zm, hp = build_manufactured(grid, profile, spec,
                                            cfg.mms_center, cfg.mms_amplitude,
                                            freqs)
                res0 = float(np.abs(residual(zm, 1.0, hp).values).max())
                z, stats = newton_solve(zm, 1.0, hp, scfg)
                geom = compute_geometry(z, grid, profile)
                rows.append(_sweep_row(
                    "N", N, "ok", res0, stats.iterations,
                    float(z.values.min()), float(z.values.max()),
                    hp.t_minus, hp.t_plus,
                    float(geom.lam[..., 0].max()), geom.grad_sup))
                ok_runs += 1
            except WarpcurveError as exc:
                invariant_fired |= isinstance(exc, (BarrierViolation, ConeError))
                rows.append(_sweep_row("N", N, type(exc).__name__))
    elif axis in ("eps", "r"):
        values = cfg.sweep_eps if axis == "eps" else \
            cfg.sweep_r or tuple(range(1, cfg.n + 1))
        if len(values) < 2:
            raise ConfigError("sweep axis needs at least 2 values")
        for value in values:
            try:
                presc, hp, z, report, lo, hi = run_solve(**{axis: value})
                fin = report.final
                rows.append(_sweep_row(
                    axis, value, "ok", fin.residual,
                    sum(s.newton_iters for s in report.steps),
                    fin.z_min, fin.z_max, lo, hi, fin.lam1_max, fin.grad_max))
                ok_runs += 1
            except WarpcurveError as exc:
                invariant_fired |= isinstance(exc, (BarrierViolation, ConeError))
                rows.append(_sweep_row(axis, value, type(exc).__name__))
    elif axis == "s-trace":
        presc, hp, z, report, lo, hi = run_solve()
        for st in report.steps:
            rows.append(_sweep_row("s", st.s, "ok", st.residual,
                                   st.newton_iters, st.z_min, st.z_max, lo, hi,
                                   st.lam1_max, st.grad_max))
        ok_runs += 1
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"sweep_{axis.replace('-', '_')}.csv"
    path.write_text("\n".join(rows) + "\n")
    print(f"sweep {axis}: {ok_runs} run(s) ok, wrote {path}")
    if ok_runs == 0 or invariant_fired:
        return EXIT_CODES[BarrierViolation] if invariant_fired else \
            EXIT_CODES[NewtonStall]
    return EXIT_OK


# -- entry point ----------------------------------------------------------------

def _parser():
    ap = argparse.ArgumentParser(
        prog="warpcurve",
        description="Prescribed Weingarten curvature graphs in warped "
                    "products: continuation solver and structural checks.",
        epilog=_EXIT_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, descr in (("solve", "run the continuation to s = 1"),
                        ("verify", "print the structural condition table"),
                        ("sweep", "repeat solves across an axis")):
        p = sub.add_parser(name, help=descr, epilog=_EXIT_DOC,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", required=True, help="config file (INI or JSON)")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="RNG seed (overrides config)")
        p.add_argument("--unsafe", action="store_true",
                       help="skip prescription validation (manufactured runs)")
        p.add_argument("--jacobian", choices=("analytic", "fd"),
                       help="Jacobian mode (overrides config)")
        if name == "sweep":
            p.add_argument("--axis", required=True,
                           choices=("N", "eps", "r", "s-trace"))
    return ap


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return EXIT_USAGE
    except (json.JSONDecodeError, configparser.Error, ValueError) as exc:
        print(f"error: cannot parse config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WarpcurveError as exc:
        return _report_error(exc)
    if args.out:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    if args.unsafe:
        cfg.unsafe = True
    if args.jacobian:
        cfg.jacobian = args.jacobian
    try:
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        return cmd_sweep(cfg, args.axis)
    except WarpcurveError as exc:
        return _report_error(exc)


def _report_error(exc):
    code = EXIT_CODES.get(type(exc), 70)
    print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
