"""Command-line front end: solve, verify, and sweep workflows.

Configs are INI-style key-value blocks (JSON with the same nesting is
also accepted); RunConfig's fields declare every key a config may set,
and the loader refuses any other.  All floating output is printed with
17 significant digits so reports round-trip exactly; runs are
deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass, field, fields
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
from .problem import (barrier_crossings, build_homotopy, build_phi,
                      build_prescription, check_slab, radial_decay_inputs)
from .solver import SolverConfig, continuation
from .verify import build_condition_table

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CODES = {cls: code for code, cls in enumerate(
    (ConfigError, ValidationError, GaugeError, NewtonStall, ContinuationStall,
     BarrierViolation, ConeError, ProfileError, DomainError, BisectError,
     ShapeError, FrameError), start=3)}

_EXIT_DOC = "\n".join([
    "exit codes:",
    "  0   success (verify: all rows passed)",
    "  1   verify: one or more rows failed",
    "  2   usage error (bad arguments, unreadable config)",
    *(f" {code:>2}   {cls.__name__}" for cls, code in EXIT_CODES.items()),
    ""])


def _fmt(x):
    return format(float(x), ".17g")


# -- configuration ------------------------------------------------------------

_SOLVER_DEFAULTS = SolverConfig()


def _many(cast):
    """Parser of a list key: a JSON array, or text split on commas/blanks."""
    def parse(value):
        items = value if isinstance(value, list) else \
            value.replace(",", " ").split()
        return tuple(cast(str(x)) for x in items)
    return parse


_floats, _ints = _many(float), _many(int)


def _key(default, block, parse=float, key=None, kind=None):
    """A RunConfig field set by `[block] key` (key defaults to the field
    name), parsed from the value's text, or a list key's JSON array; a
    profile key read only by one profile kind names it."""
    return field(default=default, metadata={"block": block, "key": key,
                                            "parse": parse, "kind": kind})


@dataclass
class RunConfig:
    """One run's settings; each field's metadata is the key that sets it."""

    profile_kind: str = _key("cosh", "profile", str, key="kind")
    profile_p: float = _key(2.0, "profile", key="p", kind="power")
    table_t: tuple = _key((), "profile", _floats, kind="custom-table")
    table_h: tuple = _key((), "profile", _floats, kind="custom-table")
    t_lo: float = _key(0.2, "profile")
    t_hi: float = _key(3.0, "profile")
    n: int = _key(1, "grid", int)
    N: int = _key(256, "grid", int)
    L: float = _key(2.0 * np.pi, "grid")
    order: int = _key(2, "grid", int)
    r: int = _key(1, "curvature", int)
    c0: float = _key(float(np.sinh(1.0)), "prescription")
    eps: float = _key(0.0, "prescription")
    mode: tuple = _key((1,), "prescription", _ints)
    t_minus: float = _key(0.5, "prescription")
    t_plus: float = _key(1.6, "prescription")
    t0: float = _key(None, "homotopy")
    eps_phi: float = _key(0.1, "homotopy")
    newton_tol: float = _key(_SOLVER_DEFAULTS.newton_tol, "solver")
    max_newton: int = _key(_SOLVER_DEFAULTS.max_newton, "solver", int)
    ds0: float = _key(_SOLVER_DEFAULTS.ds0, "solver")
    ds_min: float = _key(_SOLVER_DEFAULTS.ds_min, "solver")
    out_dir: str = _key("out", "output", str, key="dir")
    seed: int = _key(12345, "run", int)
    sweep_N: tuple = _key((), "sweep", _ints, key="N")
    sweep_eps: tuple = _key((0.0, 0.05, 0.1), "sweep", _floats, key="eps")
    sweep_r: tuple = _key((), "sweep", _ints, key="r")

    def validate(self):
        """Refuse a bad key before any command runs.  The library checks
        every key, by building or checking what it sets, at its configured
        value and at each [sweep] value; only the hypotheses stay per
        sweep point (build_prescription)."""
        if self.seed < 0:
            raise ConfigError(f"[run] seed must be >= 0, got {self.seed}")
        # the N/2 grid's nodes are every other node of the N grid
        if any(b != 2 * a for a, b in zip(self.sweep_N, self.sweep_N[1:])):
            raise ConfigError(f"[sweep] N = {list(self.sweep_N)} must double "
                              f"from each value to the next")
        profile = build_profile(self)
        check_slab(profile, self.t_minus, self.t_plus)
        self.mode = _check_point(self, self.r, self.eps, self.N)
        for axis in ("N", "eps", "r"):
            self.check_sweep(axis, getattr(self, f"sweep_{axis}"))
        build_phi(profile, self.t_minus, self.t_plus, self.t0, self.eps_phi)
        solver_config(self)

    def check_sweep(self, axis, values):
        """The library's checks of each point of a sweep axis; an error
        names the key and the value before the library's reason."""
        for value in values:
            try:
                _check_point(self, **{"r": self.r, "eps": self.eps,
                                      "N": self.N, axis: value})
            except ConfigError as exc:
                raise ConfigError(f"[sweep] {axis} = {value}: {exc}") from None

    def echo(self):
        pairs = {k: (list(v) if isinstance(v, tuple) else v)
                 for k, v in vars(self).items()}
        return json.dumps(pairs, indent=2, sort_keys=True)


# (block, key) -> field, for every key a config may set
_SCHEMA = {(f.metadata["block"], f.metadata["key"] or f.name): f
           for f in fields(RunConfig)}


def _unique_keys(pairs):
    """A JSON object as a dict; a key given twice is an error, as in INI."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate JSON key {key!r}")
        obj[key] = value
    return obj


def _load_blocks(path):
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        blocks = json.loads(text, object_pairs_hook=_unique_keys)
        for name, kv in blocks.items():
            if not isinstance(kv, dict):
                raise ValueError(f"JSON block {name!r} is not an object")
        return blocks
    # no section is the implicit default one, so [DEFAULT] is just an
    # unknown block; values are literal text up to a ` ;` comment
    cp = configparser.ConfigParser(default_section="", interpolation=None,
                                   inline_comment_prefixes=(";",))
    cp.optionxform = str            # keep key case: n and N differ
    cp.read_string(text)
    return {name: dict(cp.items(name)) for name in cp.sections()}


def _parse_config(path):
    """A config file's RunConfig, before validate().

    Every block and key outside the schema, and every profile key the
    chosen profile kind ignores, is a ConfigError naming all of them; a
    value its parser rejects is a ValueError naming its key.
    """
    blocks = _load_blocks(path)
    known = {block for block, _ in _SCHEMA}
    unknown = [f"[{b}]" for b in blocks if b not in known] + [
        f"[{b}] {k}" for b, kv in blocks.items() if b in known
        for k in kv if (b, k) not in _SCHEMA]
    if unknown:
        raise ConfigError(f"unknown config block/key: {', '.join(unknown)}")
    values = {}
    for (block, key), f in _SCHEMA.items():
        if key not in blocks.get(block, {}):
            continue
        raw = blocks[block][key]
        if raw is None:                 # JSON null: not a missing key
            raise ValueError(f"[{block}] {key} = null: a key needs a value")
        try:
            values[f.name] = f.metadata["parse"](
                raw if isinstance(raw, list) else str(raw))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"[{block}] {key} = {raw!r}: {exc}") from None
    cfg = RunConfig(**values)
    ignored = [f"[{block}] {key}" for (block, key), f in _SCHEMA.items()
               if key in blocks.get(block, {})
               and f.metadata["kind"] not in (None, cfg.profile_kind)]
    if ignored:
        raise ConfigError(f"[profile] kind = {cfg.profile_kind} ignores "
                          f"{', '.join(ignored)}")
    return cfg


def _check_point(cfg, r, eps, N):
    """The library's checks of the problem at (r, eps, N) that its
    hypotheses do not need: the curvature spec, the grid and the
    radial-decay inputs.  Returns the mode as build_prescription reads it."""
    CurvatureSpec(n=cfg.n, r=r)
    make_grid(cfg.n, N, cfg.L, cfg.order)
    return radial_decay_inputs(cfg.c0, eps, cfg.mode, cfg.n, N)


def build_profile(cfg):
    """The warping profile a config names."""
    if cfg.profile_kind == "custom-table":
        return WarpingProfile.from_table(cfg.table_t, cfg.table_h,
                                         cfg.t_lo, cfg.t_hi)
    params = (cfg.profile_p,) if cfg.profile_kind == "power" else ()
    return WarpingProfile(cfg.profile_kind, params, cfg.t_lo, cfg.t_hi)


def build_problem(cfg, r=None, eps=None, N=None):
    """The homotopy problem a config names; r, eps and N override it."""
    profile = build_profile(cfg)
    grid = make_grid(cfg.n, cfg.N if N is None else N, cfg.L, cfg.order)
    spec = CurvatureSpec(n=cfg.n, r=cfg.r if r is None else r)
    presc = build_prescription(
        profile, spec, grid, c0=cfg.c0, eps=cfg.eps if eps is None else eps,
        mode=cfg.mode, t_minus=cfg.t_minus, t_plus=cfg.t_plus)
    return build_homotopy(presc, t0=cfg.t0, eps_phi=cfg.eps_phi)


def solver_config(cfg):
    return SolverConfig(newton_tol=cfg.newton_tol, max_newton=cfg.max_newton,
                        ds0=cfg.ds0, ds_min=cfg.ds_min)


# -- subcommands ---------------------------------------------------------------

def cmd_solve(cfg):
    hp = build_problem(cfg)
    grid = hp.grid
    scfg = solver_config(cfg)
    z, report = continuation(hp, scfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "steps.csv", "w", newline="") as f:
        f.write(report.csv_header() + "\n")
        for row in report.csv_rows():
            f.write(row + "\n")
    save_field(z, out / "z_final.f64")
    geom = compute_geometry(z, grid, hp.profile)
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
    rows = build_condition_table(build_problem(cfg), seed=cfg.seed)
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


def _sweep_header(axis):
    """The columns of a sweep CSV; an N sweep adds the refinement ones."""
    return ("axis,value,status,residual,newton_total,z_min,z_max,"
            "barrier_lo,barrier_hi,lam1_max,grad_max"
            + (",dz_coarse,order" if axis == "N" else ""))


def _sweep_row(axis, value, status, residual=np.nan, newton=0, *floats):
    """One CSV row; the columns of the header left out at its end are NaN."""
    cells = [axis, _fmt(value), status, _fmt(residual), str(newton),
             *map(_fmt, floats)]
    cells += [_fmt(np.nan)] * (_sweep_header(axis).count(",") + 1 - len(cells))
    return ",".join(cells)


def cmd_sweep(cfg, axis):
    """Solve at each axis value; a failed point is a row naming its error.
    Exits with the first invariant error's code if one fired, else with
    the first failure's if no point succeeded.

    An N row adds the refinement columns: dz_coarse, the largest change
    of z on the previous N's nodes (every other node of each axis), and
    order, log2 of the ratio of successive dz_coarse.  Each is NaN where
    its previous points are missing or failed."""
    scfg = solver_config(cfg)
    configured = getattr(cfg, f"sweep_{axis}")
    values = configured or {"N": (64, 128, 256) if cfg.n == 1
                            else (24, 48, 96), "eps": (),
                            "r": tuple(range(1, cfg.n + 1))}[axis]
    if len(values) < 2:
        raise ConfigError(f"sweep axis {axis} needs at least 2 values, "
                          f"got {list(values)}")
    if not configured:                  # load checked the configured ones
        cfg.check_sweep(axis, values)
    rows = [_sweep_header(axis)]
    ok_runs, failures = 0, []
    z_prev, dz_prev = None, np.nan
    for value in values:
        try:
            hp = build_problem(cfg, **{axis: value})
            z, report = continuation(hp, scfg)
            lo, hi = barrier_crossings(hp.prescription)
        except WarpcurveError as exc:
            failures.append(exc)
            rows.append(_sweep_row(axis, value, type(exc).__name__))
            z_prev, dz_prev = None, np.nan  # a failed point breaks the chain
            continue
        refine = ()
        if axis == "N":
            coarse = z.values[(slice(None, None, 2),) * z.grid.n]
            dz = np.nan if z_prev is None else np.abs(coarse - z_prev).max()
            with np.errstate(divide="ignore", invalid="ignore"):
                refine = (dz, np.log2(dz_prev / dz))
            z_prev, dz_prev = z.values, dz
        fin = report.final
        rows.append(_sweep_row(axis, value, "ok", fin.residual,
                               sum(s.newton_iters for s in report.steps),
                               fin.z_min, fin.z_max, lo, hi, fin.lam1_max,
                               fin.grad_max, *refine))
        ok_runs += 1

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"sweep_{axis}.csv"
    path.write_text("\n".join(rows) + "\n")
    print(f"sweep {axis}: {ok_runs} run(s) ok, wrote {path}")
    fired = [e for e in failures if isinstance(e, (BarrierViolation,
                                                   ConeError))]
    if fired or not ok_runs:
        return EXIT_CODES.get(type((fired or failures)[0]), 70)
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
        # verify writes no files, and only its random rows read the seed
        if name == "verify":
            p.add_argument("--seed", type=int,
                           help="seed of the random rows (overrides config)")
        else:
            p.add_argument("--out", help="output directory (overrides config)")
        if name == "sweep":
            p.add_argument("--axis", required=True,
                           choices=("N", "eps", "r"))
    return ap


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = _parse_config(args.config)
        if getattr(args, "out", None):
            cfg.out_dir = args.out
        if getattr(args, "seed", None) is not None:
            cfg.seed = args.seed
        cfg.validate()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (configparser.Error, ValueError) as exc:
        print(f"error: cannot parse config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WarpcurveError as exc:
        return _report_error(exc)
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
