"""The benchmark calls warpcurve by name.

perfbench/layers.py looks each wrapped attribute up with getattr when a
traced run starts, and perfbench/workloads.py's ``setup`` calls the grid's
operator API; a renamed or broken one would break ``perfbench/run.py``
without failing any other library test, so both are checked here.  A
layer whose wrapped attribute the library stopped calling would read 0
without breaking anything, so the grid.stencil layer's calls are checked
too.  The benchmark checks its solves against barrier_crossings, so the
two-node crossings of every reference case are pinned here to the
all-node ones, and one solve2d operation runs through its checks.  A
speedup must leave Newton's work unchanged, so every reference case's
per-step Newton counts are pinned (tests/data) and its z range checked
against the benchmark's stored reference.  Its result must not move by a
bit either: the sha256 of each case's z bytes and final residual is pinned
too (tests/data/reference_bits.json, with the NumPy and SciPy versions it
was recorded with), for the reference cases and for an order-4 n = 1 set
that runs the b = 2 band solve.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import warpcurve as wc
from warpcurve.grid import TorusGrid

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    layers = _load("layers")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in layers.targets()
               if not hasattr(owner, attr)]
    assert missing == []


@pytest.mark.parametrize("n", [1, 2])
def test_geometry_reaches_the_stencil_layer_once_each(n, monkeypatch):
    # perfbench's grid.stencil layer wraps TorusGrid.gradient and .hessian
    calls = []
    for name in ("gradient", "hessian"):
        def counted(self, values, _name=name, _method=getattr(TorusGrid,
                                                                name)):
            calls.append(_name)
            return _method(self, values)
        monkeypatch.setattr(TorusGrid, name, counted)
    g = wc.make_grid(n, 16)
    wc.compute_geometry(np.full(g.shape, 1.0), g,
                        wc.WarpingProfile.cosh(0.2, 3.0))
    assert sorted(calls) == ["gradient", "hessian"]


@pytest.mark.parametrize("n,N,r,mode", [(1, 32, 1, (2,)), (2, 16, 2, (1, 2))])
def test_workload_setup_runs_on_small_cases(n, N, r, mode):
    workloads = _load("workloads")
    presc, hp = workloads.setup(workloads.Case(n, N, r, mode, 0.1),
                                color=True)
    assert hp.grid.shape == (N,) * n
    assert presc.grid is hp.grid


@pytest.mark.parametrize("seed", [7, 913, 926])
def test_verify_workload_passes_every_row(seed, tmp_path):
    # seeds 913 and 926 sample a state with a dominant eigenvalue, where
    # the Euler row is most sensitive to the rounding of f_grad; a failed
    # row counts as a failed benchmark operation
    workloads = _load("workloads")
    case, = workloads.draw_cases("verify2d", seed)
    rows = workloads.op_verify2d(case, workloads.Rep(), tmp_path)
    assert workloads.check_verify(case, rows, None) == []
    assert len(rows) == 33


def test_solve_workload_passes_every_check(tmp_path):
    # the seed-7 solve2d pass: its checks count fields.csv's lines and read
    # the saved field back; a failed check counts as a failed operation
    workloads = _load("workloads")
    case, = workloads.draw_cases("solve2d", 7)
    result = workloads.op_solve2d(case, workloads.Rep(), tmp_path)
    assert workloads.check_solve(case, result,
                                 workloads.load_reference()) == []
    assert (tmp_path / "fields.csv").read_text().count("\n") == 1 + 128 ** 2


def test_reference_crossings_equal_the_all_node_path(monkeypatch):
    # the two-node crossings of every case any seed can draw equal the
    # all-node ones bit for bit; the prescriptions are built, not solved
    workloads = _load("workloads")
    profile = wc.WarpingProfile.cosh(workloads.T_LO, workloads.T_HI)
    cases, mismatched = workloads.reference_cases(), []
    for case in cases:
        p = wc.build_prescription(
            profile, wc.CurvatureSpec(case.n, case.r),
            wc.make_grid(case.n, case.N), c0=workloads.C0, eps=case.eps,
            mode=case.mode, t_minus=workloads.T_MINUS,
            t_plus=workloads.T_PLUS)
        two = wc.barrier_crossings(p)
        with monkeypatch.context() as m:
            m.setattr(p, "separable_key", lambda: None)
            every = wc.barrier_crossings(p)
        if two != every:
            mismatched.append((case.key, two, every))
    assert len(cases) == 120
    assert mismatched == []


_DATA = Path(__file__).resolve().parent / "data"


def _bits(z, report):
    """sha256 of the solution's bytes followed by its final residual's."""
    return hashlib.sha256(z.values.tobytes() + np.float64(
        report.final.residual).tobytes()).hexdigest()


def test_reference_cases_keep_their_newton_counts_and_z():
    # the 120 solves any seed can draw: the per-step Newton counts are
    # pinned, each z range is the benchmark's reference within its
    # tolerance (perfbench/reference.json is read, never written), and z
    # and the final residual are the recorded ones bit for bit
    workloads = _load("workloads")
    pinned = json.loads((_DATA / "reference_newton_counts.json").read_text())
    bits = json.loads((_DATA / "reference_bits.json").read_text())[
        "z_and_residual_sha256"]
    reference = workloads.load_reference()
    cases, moved = workloads.reference_cases(), []
    assert len(cases) == len(pinned) == 120
    for case in cases:
        _, hp = workloads.setup(case)
        z, report = wc.continuation(hp, workloads.SOLVER_CONFIG)
        iters = [st.newton_iters for st in report.steps]
        zr = (float(z.values.min()), float(z.values.max()))
        ref = reference[case.key]
        if iters != pinned[case.key] or max(
                abs(a - b) for a, b in zip(zr, ref)) > workloads.Z_REF_TOL \
                or _bits(z, report) != bits[case.key]:
            moved.append((case.key, iters, zr))
    assert moved == []


def test_order4_band_cases_keep_their_newton_counts_and_z():
    # the reference cases are order 2 (b = 1, LAPACK's gtsv); these four
    # order-4 solves run the b = 2 band solve (gbsv)
    workloads = _load("workloads")
    data = json.loads((_DATA / "reference_bits.json").read_text())
    pinned, moved = data["order4_newton_counts"], []
    assert len(pinned) == 4
    for mode in (1, 2, 3, 4):
        key = f"n1-r1-N256-order4-mode{mode}-eps0.1"
        p = wc.build_prescription(
            wc.WarpingProfile.cosh(workloads.T_LO, workloads.T_HI),
            wc.CurvatureSpec(1, 1), wc.make_grid(1, 256, order=4),
            c0=workloads.C0, eps=0.1, mode=(mode,),
            t_minus=workloads.T_MINUS, t_plus=workloads.T_PLUS)
        z, report = wc.continuation(
            wc.build_homotopy(p, eps_phi=workloads.EPS_PHI),
            workloads.SOLVER_CONFIG)
        iters = [st.newton_iters for st in report.steps]
        if iters != pinned[key] or _bits(z, report) != \
                data["z_and_residual_sha256"][key]:
            moved.append((key, iters))
    assert moved == []
