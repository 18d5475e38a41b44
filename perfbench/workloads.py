"""The benchmark's workloads, the operations they run and the output checks.

Every workload uses the cosh profile on (0.2, 3.0), c0 = sinh 1, the
barrier slab (0.5, 1.5), eps_phi = 0.1 and the default SolverConfig.  A
seed turns into plain config values (mode, eps) in ``draw_cases``; the
library sees only those values.  Library functions are called through
their modules (``problem.build_prescription``, ``solver.continuation``)
so that a traced run's wrappers see every call.

- solve2d:  one continuation at n=2, r=2, N=128, then save_field and
            fields_csv, as ``warpcurve solve`` does.
- sweep1d:  24 continuations at n=1, r=1, N=2048 (modes 1-4 x eps
            0..0.25, jittered), each followed by barrier_crossings, as
            ``warpcurve sweep --axis eps`` does.
- verify2d: build_condition_table at n=2, r=2, N=64, as
            ``warpcurve verify`` does.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from warpcurve import ambient, curvature, errors, geometry, grid, problem, \
    solver, verify

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

T_LO, T_HI = 0.2, 3.0
C0 = math.sinh(1.0)
T_MINUS, T_PLUS = 0.5, 1.5
EPS_PHI = 0.1
SOLVER_CONFIG = solver.SolverConfig()

MODES_2D = ((1, 1), (1, 2), (2, 1), (2, 2))
# eps <= 0.09 reaches s = 1 in 13 Newton iterations instead of 15; drawing
# from the 15-iteration side keeps the work per seed equal, so seed-to-seed
# spread measures the machine rather than the input
EPS_2D = tuple(round(0.10 + 0.01 * i, 2) for i in range(6))
SWEEP_MODES = (1, 2, 3, 4)
SWEEP_EPS = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25)
# eps = 0 exactly is a trivial solve (z = t0 solves every s, no Newton
# iteration), so the jitter is never 0: a zero draw would change the work of
# a pass by about 3%
SWEEP_JITTER = (-0.02, -0.01, 0.01, 0.02)
VERIFY_EPS = 0.1
VERIFY_ROWS = 33

Z_REF_TOL = 1e-8
# bisection brackets a crossing to (t_plus - t_minus) / 2**60, below one ulp
# at t ~ 1; an exactly constant solution (eps = 0) sits on the crossing, so
# the comparison allows a few ulps
CROSSING_SLACK = 1e-12

@dataclass(frozen=True)
class Case:
    """One problem: plain config values drawn from the seed."""

    n: int
    N: int
    r: int
    mode: tuple
    eps: float
    table_seed: int = 0               # verify2d: seed of the condition table

    @property
    def key(self):
        mode = "x".join(str(m) for m in self.mode)
        return f"n{self.n}-r{self.r}-N{self.N}-mode{mode}-eps{self.eps:.2f}"


def _eps(x):
    return round(x, 2) + 0.0          # + 0.0 turns -0.0 into 0.0


def draw_cases(workload, seed):
    """The problems one pass of a workload runs, drawn from the seed."""
    rng = np.random.default_rng(seed)
    if workload == "solve2d":
        mode = MODES_2D[rng.integers(len(MODES_2D))]
        return [Case(2, 128, 2, mode, EPS_2D[rng.integers(len(EPS_2D))])]
    if workload == "sweep1d":
        return [Case(1, 2048, 1, (m,),
                     _eps(e + SWEEP_JITTER[rng.integers(len(SWEEP_JITTER))]))
                for m in SWEEP_MODES for e in SWEEP_EPS]
    if workload == "verify2d":
        return [Case(2, 64, 2, MODES_2D[rng.integers(len(MODES_2D))],
                     VERIFY_EPS, table_seed=seed)]
    raise ValueError(f"unknown workload {workload!r}")


def reference_cases():
    """Every solve case any seed can draw (the keys of reference.json)."""
    cases = [Case(2, 128, 2, m, e) for m in MODES_2D for e in EPS_2D]
    eps1 = sorted({_eps(e + j) for e in SWEEP_EPS for j in SWEEP_JITTER})
    cases += [Case(1, 2048, 1, (m,), e) for m in SWEEP_MODES for e in eps1]
    return cases


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())["z_range"]


def setup(case, color=False):
    """Prescription, homotopy and the grid's stencil operators."""
    g = grid.make_grid(case.n, case.N)
    profile = ambient.WarpingProfile.cosh(T_LO, T_HI)
    spec = curvature.CurvatureSpec(n=case.n, r=case.r)
    presc = problem.build_prescription(
        profile, spec, g, c0=C0, eps=case.eps, mode=case.mode,
        t_minus=T_MINUS, t_plus=T_PLUS)
    hp = problem.build_homotopy(presc, eps_phi=EPS_PHI)
    for d in range(case.n):
        g.d1_matrix(d)
        g.d2_matrix(d)
    if case.n == 2:
        g.d11_matrix()
    if color:
        g.coloring()
    return presc, hp


def time_setup(workload, cases):
    """Seconds to set up every case of one pass, or None if the library raised."""
    t0 = time.perf_counter()
    try:
        for case in cases:
            setup(case, color=workload == "verify2d")
    except errors.WarpcurveError:
        return None
    return time.perf_counter() - t0


@dataclass
class Rep:
    """Timings of one pass over a workload's cases, plus their outcomes."""

    traced: bool = False
    wall_s: float = 0.0
    setup_s: float = 0.0
    solve_s: float = 0.0
    verify_s: float = 0.0
    outcomes: list = field(default_factory=list)

    @property
    def core_s(self):
        return self.solve_s + self.verify_s

    @property
    def newton_iters(self):
        return sum(o.newton_iters for o in self.outcomes)


@dataclass
class Outcome:
    """One operation: the library error it raised or its failed checks."""

    case: Case
    error: str = ""
    failures: list = field(default_factory=list)
    newton_iters: int = 0

    @property
    def failed(self):
        return bool(self.error or self.failures)


@dataclass
class Solved:
    """What a solve operation hands to its check."""

    presc: object
    hp: object
    z: object
    report: object
    crossings: tuple = None           # barrier_crossings, when the op ran it
    path: Path = None                 # the saved field, when the op wrote it

    @property
    def newton_iters(self):
        return sum(st.newton_iters for st in self.report.steps)


def _solve(case, rep):
    t0 = time.perf_counter()
    presc, hp = setup(case)
    t1 = time.perf_counter()
    z, report = solver.continuation(hp, SOLVER_CONFIG)
    rep.setup_s += t1 - t0
    rep.solve_s += time.perf_counter() - t1
    return Solved(presc, hp, z, report)


def op_solve2d(case, rep, workdir):
    res = _solve(case, rep)
    res.path = workdir / "z_final.f64"
    grid.save_field(res.z, res.path)
    geom = geometry.compute_geometry(res.z, res.hp.grid, res.hp.profile)
    (workdir / "fields.csv").write_text(geometry.fields_csv(geom))
    return res


def op_sweep1d(case, rep, workdir):
    res = _solve(case, rep)
    res.crossings = problem.barrier_crossings(res.presc)
    return res


def op_verify2d(case, rep, workdir):
    t0 = time.perf_counter()
    _, hp = setup(case, color=True)
    t1 = time.perf_counter()
    rows = verify.build_condition_table(hp, seed=case.table_seed)
    rep.setup_s += t1 - t0
    rep.verify_s += time.perf_counter() - t1
    return rows


def check_solve(case, result, reference):
    """Failed checks of a solve: residual, slab, crossings, cone, reference z."""
    hp, z, report = result.hp, result.z, result.report
    crossings = result.crossings or problem.barrier_crossings(result.presc)
    fails = []
    fin = report.final
    if report.verdict != "converged":
        fails.append(f"verdict {report.verdict}")
    if not fin.residual <= SOLVER_CONFIG.newton_tol:
        fails.append(f"final residual {fin.residual:.3e} > newton_tol "
                     f"{SOLVER_CONFIG.newton_tol:.1e}")
    zmin, zmax = float(z.values.min()), float(z.values.max())
    if not (hp.t_minus < zmin and zmax < hp.t_plus):
        fails.append(f"z range [{zmin:.17g}, {zmax:.17g}] leaves the slab "
                     f"({hp.t_minus}, {hp.t_plus})")
    lo, hi = crossings
    if not (lo - CROSSING_SLACK <= zmin and zmax <= hi + CROSSING_SLACK):
        fails.append(f"z range [{zmin:.17g}, {zmax:.17g}] leaves the "
                     f"crossing interval [{lo:.17g}, {hi:.17g}]")
    if not fin.cone_margin > 0:
        fails.append(f"final cone margin {fin.cone_margin:.3e} <= 0")
    ref = reference.get(case.key)
    if ref is None:
        fails.append(f"no stored reference for {case.key}")
    elif abs(zmin - ref[0]) > Z_REF_TOL or abs(zmax - ref[1]) > Z_REF_TOL:
        fails.append(f"z range [{zmin:.17g}, {zmax:.17g}] differs from the "
                     f"reference [{ref[0]:.17g}, {ref[1]:.17g}] by more than "
                     f"{Z_REF_TOL:g}")
    if result.path is not None:
        back = grid.load_field(result.path, z.grid)
        if not np.array_equal(back.values, z.values):
            fails.append("saved field does not read back bit for bit")
        lines = (result.path.parent / "fields.csv").read_text().count("\n")
        if lines != z.grid.size + 1:
            fails.append(f"fields.csv has {lines} lines, expected "
                         f"{z.grid.size + 1}")
    return fails


def check_verify(case, rows, reference):
    """Failed checks of a verification table: every one of 33 rows passes."""
    fails = [f"row failed: {r.name} = {r.value:.17g} (need {r.requirement})"
             for r in rows if not r.passed]
    if len(rows) != VERIFY_ROWS:
        fails.append(f"{len(rows)} rows, expected {VERIFY_ROWS}")
    return fails


OPS = {"solve2d": (op_solve2d, check_solve),
       "sweep1d": (op_sweep1d, check_solve),
       "verify2d": (op_verify2d, check_verify)}


def run_operation(workload, case, rep, workdir, reference, tracer=None):
    """Run one operation, timed into rep; check its output outside the timing.

    A library error is recorded by class and counted as a failed
    operation; the pass carries on with the next case.
    """
    op, check = OPS[workload]
    out = Outcome(case)
    result = None
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        result = op(case, rep, workdir)
    except errors.WarpcurveError as exc:
        out.error = f"{type(exc).__name__}: {exc}"
    finally:
        rep.wall_s += time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if result is not None:
        out.failures = check(case, result, reference)
        out.newton_iters = getattr(result, "newton_iters", 0)
    rep.outcomes.append(out)
    return out


def tally(reps):
    """(correct, attempted, failed) over every operation of every pass.

    A run is correct when no output check failed; an operation failed when
    the library raised or one of its checks failed.
    """
    outcomes = [o for r in reps for o in r.outcomes]
    return (not any(o.failures for o in outcomes), len(outcomes),
            sum(o.failed for o in outcomes))
