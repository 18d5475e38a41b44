"""Tests of the benchmark itself: span arithmetic, tracing, output checks.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
from warpcurve.grid import NodeField  # noqa: E402


def _span(name, start, end, parent, run=0):
    return [name, start, end, parent, run]


def test_self_time_is_span_minus_union_of_children():
    # times are binary fractions, so the arithmetic is exact
    tree = [
        _span("root", 0.0, 8.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),       # overlaps a: [1, 5] counts once
        _span("leaf", 1.5, 2.5, 1),
        _span("c", 6.0, 7.0, 0),
        _span("d", 7.5, 9.0, 0),       # clipped to the parent's end
        _span("root", 10.0, 10.5, -1),
    ]
    assert spans.self_times(tree) == [2.5, 1.0, 3.0, 1.0, 1.0, 1.5, 0.5]
    agg = spans.aggregate(tree)[0]
    assert agg["root"] == {"self": 3.0, "incl": 8.5, "calls": 2}
    assert agg["leaf"] == {"self": 1.0, "incl": 1.0, "calls": 1}


def test_inclusive_time_counts_outermost_span_of_a_name_once():
    tree = [_span("f", 0.0, 4.0, -1), _span("f", 1.0, 2.0, 0),
            _span("g", 2.0, 3.0, 0, run=0), _span("f", 5.0, 6.0, -1, run=1)]
    agg = spans.aggregate(tree)
    assert agg[0]["f"] == {"self": 3.0, "incl": 4.0, "calls": 2}
    assert agg[1]["f"] == {"self": 1.0, "incl": 1.0, "calls": 1}


def test_tracer_records_nesting_and_restores_attributes():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    seen = []
    tr = spans.Tracer([(ns, "outer", "outer", None),
                       (ns, "inner", "inner",
                        lambda t, args, res, exc: seen.append(
                            (t.parent_name(), args, res)))])
    original = ns.inner
    tr.run_id = 7
    tr.install()
    assert ns.outer(1) == 4
    tr.uninstall()
    assert ns.inner is original
    assert [(s[0], s[3], s[4]) for s in tr.spans] == [("outer", -1, 7),
                                                      ("inner", 0, 7)]
    assert seen == [("outer", (1,), 2)]


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def test_every_drawn_solve_case_has_a_reference(reference):
    for seed in range(200):
        for wl in ("solve2d", "sweep1d"):
            for case in workloads.draw_cases(wl, seed):
                assert case.key in reference
    assert workloads.draw_cases("sweep1d", 3) == workloads.draw_cases(
        "sweep1d", 3)


def test_solve_check_rejects_z_perturbed_by_1e_6(reference):
    case = workloads.draw_cases("sweep1d", 5)[7]
    rep = workloads.Rep()
    result = workloads.op_sweep1d(case, rep, None)
    assert workloads.check_solve(case, result, reference) == []
    moved = NodeField(result.z.values + 1e-6, result.z.grid)
    fails = workloads.check_solve(
        case, dataclasses.replace(result, z=moved), reference)
    assert any("reference" in f for f in fails)


def test_forced_verify_row_failure_counts_in_ops_failed(monkeypatch, tmp_path):
    # eps_phi = 0 is the documented negative control: the drift row fails
    monkeypatch.setattr(workloads, "EPS_PHI", 0.0)
    case = workloads.Case(2, 32, 2, (1, 1), 0.1, table_seed=1)
    rep = workloads.Rep()
    out = workloads.run_operation("verify2d", case, rep, tmp_path, {})
    assert out.failed and not out.error
    assert any("homotopy (v)" in f for f in out.failures)
    assert workloads.tally([rep]) == (False, 1, 1)


def test_library_error_is_counted_and_the_pass_carries_on(tmp_path,
                                                          reference):
    bad = workloads.Case(1, 2048, 1, (1,), 2.0)     # psi < 0: hypothesis fails
    good = workloads.draw_cases("sweep1d", 5)[0]
    rep = workloads.Rep()
    for case in (bad, good):
        workloads.run_operation("sweep1d", case, rep, tmp_path, reference)
    assert rep.outcomes[0].error.startswith("ValidationError")
    assert not rep.outcomes[1].failed
    assert workloads.tally([rep]) == (True, 2, 1)
    assert rep.wall_s > rep.setup_s + rep.solve_s > 0


def test_traced_solve_counts_match_the_solver(tmp_path, reference):
    import layers

    targets = layers.targets()
    originals = [getattr(owner, attr) for owner, attr, _, _ in targets]
    tr = spans.Tracer(targets)
    tr.run_id = 0
    rep = workloads.Rep(traced=True)
    case = workloads.draw_cases("sweep1d", 5)[9]
    out = workloads.run_operation("sweep1d", case, rep, tmp_path, reference, tr)
    assert not out.failed
    assert [getattr(o, a) for o, a, _, _ in targets] == originals
    m = {k: v for k, (v, _) in layers.layer_metrics(
        spans.aggregate(tr.spans)[0], tr.counts[0]).items()}
    assert m["solver.newton_iters"] == out.newton_iters > 0
    assert m["solver.linsolve_calls"] == m["solver.jac_calls"] == out.newton_iters
    assert m["geometry.calls"] == m["solver.evals"] == m["problem.psi_calls"]
    assert m["grid.stencil_calls"] == 2 * m["geometry.calls"]
    assert m["solver.step_accept_ratio"] == 1.0
    assert m["problem.barrier_s"] > 0 and m["oracle.calls"] == 0
