"""Which warpcurve attributes the traced run wraps, and the layer metrics.

Layers are the package modules.  Each target is an attribute the library
looks up at call time, so wrapping it catches every call made from inside
the library too (``newton_solve`` reaches ``_evaluate`` through the solver
module's globals, ``f_eval`` reaches ``cone_margin`` through the curvature
module's).  A name imported into other modules (``compute_geometry`` into
solver and verify) is wrapped in each module that looks it up.

Two kinds of time come out of the spans:
- layer times (``*_s`` of geometry, grid, curvature, ambient, solver,
  problem.psi, oracle) are self times: span minus child spans;
- section times (verify.*, problem.validate, problem.gauge,
  problem.barrier, problem.homotopy_report) are inclusive: they split the
  end-to-end phase they belong to (verify_s, setup_s, wall_s).
"""

from __future__ import annotations

import scipy.sparse.linalg as spla

from warpcurve import ambient, curvature, errors, geometry, grid, oracle, \
    problem, solver, verify

VERIFY_SECTIONS = ("profile", "prescription", "gauge", "homotopy",
                   "structural", "curvature_property", "geometry", "jacobian")


def _newton(tr, args, result, exc):
    if exc is None:
        stats = result[1]
        tr.add("newton_ok", 1)
        tr.add("newton_iters", stats.iterations)
        tr.add("halvings", stats.halvings)
    elif isinstance(exc, errors.NewtonStall):
        tr.add("newton_stalls", 1)


def _spsolve(tr, args, result, exc):
    tr.peak("jac_nnz", args[0].nnz)


def _evaluate(tr, args, result, exc):
    if tr.parent_name() == "solver._fd_colored_jacobian":
        tr.add("fd_evals", 1)


def _coloring(tr, args, result, exc):
    if result is not None:
        tr.peak("colors", result[1])


def targets():
    """(owner, attribute, span name, hook) for every wrapped call site."""
    TG, HP = grid.TorusGrid, problem.HomotopyProblem
    out = [
        (solver, "continuation", "solver.continuation", None),
        (solver, "newton_solve", "solver.newton_solve", _newton),
        (solver, "_evaluate", "solver._evaluate", _evaluate),
        (solver, "_analytic_jacobian", "solver._analytic_jacobian", None),
        (solver, "_fd_colored_jacobian", "solver._fd_colored_jacobian", None),
        (solver, "_monitors", "solver._monitors", None),
        (spla, "spsolve", "solver.spsolve", _spsolve),
        (solver, "compute_geometry", "geometry.compute_geometry", None),
        (verify, "compute_geometry", "geometry.compute_geometry", None),
        (geometry, "compute_geometry", "geometry.compute_geometry", None),
        (geometry, "fields_csv", "geometry.fields_csv", None),
        (curvature, "f_eval", "curvature.f_eval", None),
        (curvature, "f_grad", "curvature.f_grad", None),
        (curvature, "cone_margin", "curvature.cone_margin", None),
        (ambient.WarpingProfile, "eval", "ambient.eval", None),
        (TG, "gradient", "grid.stencil", None),
        (TG, "hessian", "grid.stencil", None),
        (TG, "d1_matrix", "grid.operators", None),
        (TG, "d2_matrix", "grid.operators", None),
        (TG, "d11_matrix", "grid.operators", None),
        (TG, "coloring", "grid.coloring", _coloring),
        (grid, "save_field", "grid.save_field", None),
        (problem, "build_prescription", "problem.build_prescription", None),
        (problem, "_validate_prescription", "problem.validate", None),
        (problem, "build_homotopy", "problem.build_homotopy", None),
        (problem, "build_phi", "problem.gauge", None),
        (HP, "psi_of", "problem.psi", None),
        (HP, "homotopy_report", "problem.homotopy_report", None),
        (problem, "barrier_crossings", "problem.barrier", None),
        (oracle, "fd_gradcheck", "oracle", None),
        (oracle, "eig2_oracle", "oracle", None),
        (verify, "build_condition_table", "verify.build_condition_table", None),
    ]
    out += [(verify, f"{sec}_rows", f"verify.{sec}", None)
            for sec in VERIFY_SECTIONS]
    return out


def _ratio(num, den):
    # 0 when nothing was attempted (verify2d runs no Newton solve)
    return num / den if den else 0.0


def layer_metrics(agg, counts):
    """name -> (value, unit) from one pass's span aggregate and counters."""
    def self_s(*names):
        return sum(agg.get(n, {}).get("self", 0.0) for n in names)

    def incl_s(name):
        return agg.get(name, {}).get("incl", 0.0)

    def calls(*names):
        return sum(agg.get(n, {}).get("calls", 0) for n in names)

    jac = ("solver._analytic_jacobian", "solver._fd_colored_jacobian")
    fv = ("curvature.f_eval", "curvature.f_grad")
    iters, halvings = counts["newton_iters"], counts["halvings"]
    m = {
        "solver.linsolve_s": (self_s("solver.spsolve"), "s"),
        "solver.linsolve_calls": (calls("solver.spsolve"), "count"),
        "solver.jac_nnz": (counts["jac_nnz"], "count"),
        "solver.eval_s": (self_s("solver._evaluate"), "s"),
        "solver.evals": (calls("solver._evaluate"), "count"),
        "solver.jac_s": (self_s(*jac), "s"),
        "solver.jac_calls": (calls(*jac), "count"),
        "solver.fd_evals": (counts["fd_evals"], "count"),
        "solver.monitor_s": (self_s("solver._monitors"), "s"),
        "solver.newton_self_s": (self_s("solver.newton_solve"), "s"),
        "solver.newton_calls": (calls("solver.newton_solve"), "count"),
        "solver.newton_iters": (iters, "count"),
        "solver.newton_stalls": (counts["newton_stalls"], "count"),
        "solver.halvings": (halvings, "count"),
        "solver.step_accept_ratio": (
            _ratio(counts["newton_ok"], calls("solver.newton_solve")), "ratio"),
        "solver.linesearch_accept_ratio": (
            _ratio(iters, iters + halvings), "ratio"),
        "geometry.self_s": (self_s("geometry.compute_geometry"), "s"),
        "geometry.calls": (calls("geometry.compute_geometry"), "count"),
        "geometry.fields_csv_s": (self_s("geometry.fields_csv"), "s"),
        "grid.stencil_s": (self_s("grid.stencil"), "s"),
        "grid.stencil_calls": (calls("grid.stencil"), "count"),
        "grid.operators_s": (self_s("grid.operators"), "s"),
        "grid.coloring_s": (self_s("grid.coloring"), "s"),
        "grid.colors": (counts["colors"], "count"),
        "grid.save_field_s": (self_s("grid.save_field"), "s"),
        "curvature.f_s": (self_s(*fv), "s"),
        "curvature.calls": (calls(*fv), "count"),
        "curvature.cone_margin_s": (self_s("curvature.cone_margin"), "s"),
        "ambient.eval_s": (self_s("ambient.eval"), "s"),
        "ambient.eval_calls": (calls("ambient.eval"), "count"),
        "problem.validate_s": (incl_s("problem.validate"), "s"),
        "problem.gauge_s": (incl_s("problem.gauge"), "s"),
        "problem.psi_s": (self_s("problem.psi"), "s"),
        "problem.psi_calls": (calls("problem.psi"), "count"),
        "problem.barrier_s": (incl_s("problem.barrier"), "s"),
        "problem.homotopy_report_s": (incl_s("problem.homotopy_report"), "s"),
        "oracle.s": (self_s("oracle"), "s"),
        "oracle.calls": (calls("oracle"), "count"),
    }
    for sec in VERIFY_SECTIONS:
        m[f"verify.{sec}_s"] = (incl_s(f"verify.{sec}"), "s")
    return m
