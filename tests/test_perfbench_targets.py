"""The benchmark calls warpcurve by name.

perfbench/layers.py looks each wrapped attribute up with getattr when a
traced run starts, and perfbench/workloads.py's ``setup`` calls the grid's
operator API; a renamed or broken one would break ``perfbench/run.py``
without failing any other library test, so both are checked here.  A
layer whose wrapped attribute the library stopped calling would read 0
without breaking anything, so the grid.stencil layer's calls are checked
too.  The benchmark checks its solves against barrier_crossings, so the
two-node crossings of every reference case are pinned here to the
all-node ones, and one solve2d operation runs through its checks.
"""

import importlib.util
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
