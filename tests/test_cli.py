import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import warpcurve as wc
from warpcurve.cli import main
from warpcurve.grid import load_field

from conftest import fields_csv_by_node, make_problem


BASE = """\
[profile]
kind = cosh
t_lo = 0.2
t_hi = 3.0

[grid]
n = 1
N = 256
order = 2

[curvature]
r = 1

[prescription]
c0 = 1.1752011936438014
eps = {eps}
mode = 1
t_minus = {t_minus}
t_plus = {t_plus}

[homotopy]
eps_phi = {eps_phi}

[output]
dir = {out}
"""


def write_cfg(tmp_path, name="run.ini", eps=0.0, t_minus=0.5, t_plus=1.6,
              eps_phi=0.1, out=None, extra=""):
    out = out or str(tmp_path / "out")
    path = tmp_path / name
    path.write_text(BASE.format(eps=eps, t_minus=t_minus, t_plus=t_plus,
                                eps_phi=eps_phi, out=out) + extra)
    return path


def test_solve_exact_constant_solution(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["solve", "--config", str(cfg)]) == 0
    summary = capsys.readouterr().out
    assert "solve ok" in summary
    grid = wc.make_grid(1, 256)
    z = load_field(tmp_path / "out" / "z_final.f64", grid)
    assert np.abs(z.values - 1.0).max() <= 1e-8
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "verdict = converged" in report
    # sidecar header for the binary field dump
    assert "n = 1" in report and "N = 256" in report
    assert "little-endian float64" in report
    steps = (tmp_path / "out" / "steps.csv").read_text().strip().split("\n")
    assert steps[0].startswith("s,ds,newton_iters,residual")
    fields = (tmp_path / "out" / "fields.csv").read_text().split("\n")
    assert fields[0] == "u0,W,lambda_max,lambda_min,tau"


def test_solve_rejects_bad_barrier_naming_hypothesis(tmp_path, capsys):
    cfg = write_cfg(tmp_path, t_minus=1.2)
    assert main(["solve", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert "hypothesis (a)" in err


def test_missing_config_is_usage_error(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.ini")]) == 2


def test_verify_default_config_all_rows_pass(tmp_path, capsys):
    cfg = write_cfg(tmp_path, eps=0.1, t_plus=1.5)
    assert main(["verify", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "rows passed" in out
    assert "FAIL" not in out


def test_verify_zero_decay_fails_exactly_drift_row(tmp_path, capsys):
    cfg = write_cfg(tmp_path, eps=0.1, t_plus=1.5, eps_phi=0.0)
    assert main(["verify", "--config", str(cfg)]) == 1
    out = capsys.readouterr().out
    failed = [l for l in out.split("\n") if l.startswith("FAILED:")]
    assert len(failed) == 1
    assert "homotopy (v)" in failed[0]


def test_config_rejection_before_any_check(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"grid": {"n": 1}, "curvature": {"r": 2}}))
    assert main(["verify", "--config", str(cfg)]) == 3


@pytest.mark.parametrize("L", ["1e-300", "1e300"])
@pytest.mark.parametrize("command", [["verify"], ["solve"],
                                     ["sweep", "--axis", "eps"]])
def test_an_unscalable_period_exits_as_a_config_error(tmp_path, capsys, L,
                                                      command):
    cfg = write_cfg(tmp_path, extra="\n[sweep]\neps = 0.0, 0.05\n")
    cfg.write_text(cfg.read_text().replace("order = 2\n",
                                           f"order = 2\nL = {L}\n"))
    assert main([command[0], "--config", str(cfg), *command[1:]]) == 3
    if command[0] == "sweep":       # each point's error is a table row
        table = (tmp_path / "out" / "sweep_eps.csv").read_text()
        assert table.count(",ConfigError") == 2
    else:
        err = capsys.readouterr().err
        assert err.startswith("error[ConfigError]: period L = ")


@pytest.mark.parametrize("profile,where", [
    ({"kind": "cosh", "t_lo": 0.2, "t_hi": 1e300}, "t_hi = 1e+300"),
    ({"kind": "cosh", "t_lo": 0.2, "t_hi": 800.0}, "t_hi = 800.0"),
    ({"kind": "power", "p": 400.0, "t_lo": 0.3, "t_hi": 10.0},
     "t_hi = 10.0, p = 400.0"),
])
@pytest.mark.parametrize("command", ["verify", "solve"])
def test_an_overflowing_profile_exits_as_a_config_error(tmp_path, capsys,
                                                        profile, where,
                                                        command):
    # h overflows at t_hi; the NaN it makes used to be blamed on another
    # cause (a hypothesis, a verify row, a stall), or passed unnoticed
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps({
        "profile": profile, "grid": {"n": 1, "N": 32},
        "prescription": {"c0": 2.0, "t_minus": 0.6, "t_plus": 2.0},
        "output": {"dir": str(tmp_path / "out")},
    }))
    assert main([command, "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error[ConfigError]: {profile['kind']} profile "
                          f"overflows at {where}: ")


@pytest.mark.parametrize("command", ["verify", "solve"])
def test_an_underflowing_gauge_asks_for_a_lower_rate(tmp_path, capsys,
                                                     command):
    cfg = write_cfg(tmp_path, eps_phi=1e300)
    assert main([command, "--config", str(cfg)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error[GaugeError]: phi = 0 underflows near t = ")
    assert err.rstrip().endswith("; lower eps_phi")


@pytest.mark.parametrize("command", ["verify", "solve"])
def test_an_underflowing_gauge_prints_its_error_and_nothing_else(tmp_path,
                                                                 command):
    # a fresh interpreter, as pytest captures warnings raised in-process:
    # the overflow of exp(eps_phi (t0 - t)) is the error's, not a warning
    cfg = write_cfg(tmp_path, eps_phi=1e300)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from warpcurve.cli import main; "
         "sys.exit(main(sys.argv[1:]))", command, "--config", str(cfg)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 5
    assert proc.stdout == ""
    assert proc.stderr == ("error[GaugeError]: phi = 0 underflows near "
                           "t = 1.05313, so phi' = -0 is not < 0; lower "
                           "eps_phi\n")


def test_json_config_round_trip(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "profile": {"kind": "cosh", "t_lo": 0.2, "t_hi": 3.0},
        "grid": {"n": 1, "N": 128},
        "prescription": {"c0": 1.1752011936438014, "eps": 0.0,
                         "t_minus": 0.5, "t_plus": 1.6},
        "output": {"dir": str(tmp_path / "outj")},
    }))
    assert main(["solve", "--config", str(cfg)]) == 0


def refine_cfg(tmp_path, n, order, Ns, mode):
    """The configured problem (cosh, c0 = sinh 1, eps 0.13, r = n) refined
    over the N values Ns."""
    cfg = tmp_path / "refine.json"
    cfg.write_text(json.dumps({
        "grid": {"n": n, "order": order}, "curvature": {"r": n},
        "prescription": {"eps": 0.13, "mode": mode, "t_minus": 0.5,
                         "t_plus": 1.5},
        "sweep": {"N": Ns}, "output": {"dir": str(tmp_path / "out")},
    }))
    return cfg


def _sweep_table(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


@pytest.mark.parametrize("n, mode, Ns, tol", [
    (1, [3], [32, 64, 128, 256], 0.1),
    (2, [1, 2], [16, 32, 64], 0.15),
], ids=["n1", "n2"])
@pytest.mark.parametrize("order", [2, 4], ids=["order2", "order4"])
def test_sweep_N_observes_the_stencil_order(tmp_path, capsys, n, mode, Ns,
                                            tol, order):
    # the validated problem's solutions: the change of z on the coarse
    # nodes falls like dx**order as N doubles
    cfg = refine_cfg(tmp_path, n, order, Ns, mode)
    assert main(["sweep", "--config", str(cfg), "--axis", "N"]) == 0
    header, rows = _sweep_table(tmp_path / "out" / "sweep_N.csv")
    assert header[-3:] == ["grad_max", "dz_coarse", "order"]
    assert [r[2] for r in rows] == ["ok"] * len(Ns)
    assert rows[0][-2:] == ["nan", "nan"] and rows[1][-1] == "nan"
    orders = [float(r[-1]) for r in rows[2:]]
    assert len(orders) == len(Ns) - 2
    assert all(abs(o - order) <= tol for o in orders), orders


def test_sweep_N_restarts_the_refinement_after_a_failed_point(
        tmp_path, capsys, monkeypatch):
    import warpcurve.cli as cli

    solve = cli.continuation

    def failing(hp, scfg):
        if hp.prescription.grid.N == 32:
            raise wc.NewtonStall("no convergence")
        return solve(hp, scfg)

    monkeypatch.setattr(cli, "continuation", failing)
    cfg = refine_cfg(tmp_path, 1, 2, [16, 32, 64, 128, 256], [3])
    assert main(["sweep", "--config", str(cfg), "--axis", "N"]) == 0
    header, rows = _sweep_table(tmp_path / "out" / "sweep_N.csv")
    assert all(len(r) == len(header) == 13 for r in rows)
    assert [r[2] for r in rows] == ["ok", "NewtonStall", "ok", "ok", "ok"]
    # dz_coarse needs the previous point, order the two before it
    assert [r[-2] == "nan" for r in rows] == [True, True, True, False, False]
    assert [r[-1] == "nan" for r in rows] == [True, True, True, True, False]


_N_BAD = "\n[sweep]\nN = 32, 64, 96\n"


@pytest.mark.parametrize("extra, command, message", [
    (_N_BAD, ["verify"], "[sweep] N = [32, 64, 96] must double"),
    (_N_BAD, ["solve"], "[sweep] N = [32, 64, 96] must double"),
    (_N_BAD, ["sweep", "--axis", "N"], "[sweep] N = [32, 64, 96] must double"),
    # r = 2 > n = 1 used to run into a ConfigError row and exit 0, and an
    # eps sweep used to load r = 3 without a word
    ("\n[sweep]\nr = 1, 2\n", ["sweep", "--axis", "r"],
     "[sweep] r = [1, 2] must lie in 1 <= r <= n = 1"),
    ("\n[sweep]\nr = 3\n", ["sweep", "--axis", "eps"],
     "[sweep] r = [3] must lie in 1 <= r <= n = 1"),
    ("\n[sweep]\nr = 0\n", ["verify"],
     "[sweep] r = [0] must lie in 1 <= r <= n = 1"),
    # at n = 1 the default r axis is [1]
    ("", ["sweep", "--axis", "r"], "sweep axis r needs at least 2 values, "
                                   "got [1]"),
    ("\n[sweep]\neps = 0.1\n", ["sweep", "--axis", "eps"],
     "sweep axis eps needs at least 2 values, got [0.1]"),
    # an (old, new) pair edits the base config: these used to load, and
    # the eps sweep wrote a table of identical ConfigError rows
    (("r = 1\n", "r = 0\n"), ["sweep", "--axis", "eps"],
     "order r must satisfy 1 <= r <= n=1"),
    (("n = 1\n", "n = 3\n"), ["sweep", "--axis", "eps"],
     "dimension n must be 1 or 2, got 3"),
], ids=["N-verify", "N-solve", "N-sweep", "r-above-n", "r-above-n-eps-axis",
        "r-below-1", "one-r", "one-eps", "curvature-r-0", "grid-n-3"])
def test_bad_sweep_values_exit_3_naming_them(tmp_path, capsys, extra,
                                             command, message):
    if isinstance(extra, tuple):
        cfg = write_cfg(tmp_path)
        cfg.write_text(cfg.read_text().replace(*extra))
    else:
        cfg = write_cfg(tmp_path, extra=extra)
    assert main([command[0], "--config", str(cfg), *command[1:]]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error[ConfigError]: {message}")
    assert not list(tmp_path.rglob("*.csv"))


def test_unsafe_flag_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(write_cfg(tmp_path)), "--axis", "N",
              "--unsafe"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --unsafe" in capsys.readouterr().err


def test_jacobian_flag_and_s_trace_axis_are_usage_errors(tmp_path, capsys):
    # Newton builds only the analytic J, and solve's steps.csv is the
    # trajectory the s-trace axis rewrote
    cfg = str(write_cfg(tmp_path))
    for argv, message in (
            (["solve", "--jacobian", "fd"],
             "unrecognized arguments: --jacobian"),
            (["sweep", "--axis", "s-trace"],
             "argument --axis: invalid choice: 's-trace'")):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--config", cfg, *argv[1:]])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_each_command_takes_only_the_flags_it_reads(tmp_path, capsys):
    # only verify's random rows read the seed, and verify writes no files
    cfg = str(write_cfg(tmp_path))
    for argv in (["solve", "--seed", "1"],
                 ["sweep", "--axis", "eps", "--seed", "1"],
                 ["verify", "--out", "x"]):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--config", cfg, *argv[1:]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" \
            in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_sweep_eps_barrier_widths_nondecreasing(tmp_path, capsys):
    cfg = write_cfg(tmp_path, t_plus=1.5,
                    extra="\n[sweep]\neps = 0.0, 0.05, 0.1\n")
    assert main(["sweep", "--config", str(cfg), "--axis", "eps"]) == 0
    rows = [l.split(",") for l in
            (tmp_path / "out" / "sweep_eps.csv").read_text().strip().split("\n")[1:]]
    widths = [float(r[8]) - float(r[7]) for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(widths, widths[1:]))


def test_sweep_r_both_orders_reach_one(tmp_path, capsys):
    cfg = tmp_path / "r2.json"
    cfg.write_text(json.dumps({
        "profile": {"kind": "cosh", "t_lo": 0.2, "t_hi": 3.0},
        "grid": {"n": 2, "N": 24},
        "prescription": {"c0": 1.1752011936438014, "eps": 0.0,
                         "t_minus": 0.5, "t_plus": 1.6},
        "sweep": {"r": "1 2"},
        "output": {"dir": str(tmp_path / "outr")},
    }))
    assert main(["sweep", "--config", str(cfg), "--axis", "r"]) == 0
    lines = (tmp_path / "outr" / "sweep_r.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    assert all(",ok," in l for l in lines[1:])


def test_deterministic_reports(tmp_path, capsys):
    cfg1 = write_cfg(tmp_path, "a.ini", eps=0.1, t_plus=1.5,
                     out=str(tmp_path / "o1"))
    cfg2 = write_cfg(tmp_path, "b.ini", eps=0.1, t_plus=1.5,
                     out=str(tmp_path / "o2"))
    assert main(["solve", "--config", str(cfg1)]) == 0
    assert main(["solve", "--config", str(cfg2)]) == 0
    a = (tmp_path / "o1" / "steps.csv").read_bytes()
    b = (tmp_path / "o2" / "steps.csv").read_bytes()
    assert a == b
    # the continuation's trajectory: s runs from 0 to 1, strictly increasing
    svals = [float(l.split(",")[0])
             for l in a.decode().strip().split("\n")[1:]]
    assert svals[0] == 0.0 and svals[-1] == 1.0
    assert all(b > a for a, b in zip(svals, svals[1:]))
    za = (tmp_path / "o1" / "z_final.f64").read_bytes()
    zb = (tmp_path / "o2" / "z_final.f64").read_bytes()
    assert za == zb


def test_default_solve_follows_the_solver_defaults(tmp_path, capsys):
    cfg = write_cfg(tmp_path, eps=0.1, t_plus=1.5)
    assert main(["solve", "--config", str(cfg)]) == 0
    steps = (tmp_path / "out" / "steps.csv").read_text().strip().split("\n")
    _, report = wc.continuation(make_problem(n=1, N=256, eps=0.1, t_plus=1.5),
                                wc.SolverConfig())
    assert steps == [report.csv_header()] + list(report.csv_rows())


def test_solve_writes_the_fields_of_its_saved_field(tmp_path, capsys):
    # fields.csv is the node-by-node dump of the geometry of z_final.f64
    cfg = tmp_path / "n2.json"
    cfg.write_text(json.dumps({
        "profile": {"kind": "cosh", "t_lo": 0.2, "t_hi": 3.0},
        "grid": {"n": 2, "N": 32},
        "prescription": {"c0": 1.1752011936438014, "eps": 0.1,
                         "mode": [1, 1], "t_minus": 0.5, "t_plus": 1.5},
        "output": {"dir": str(tmp_path / "out2")},
    }))
    assert main(["solve", "--config", str(cfg)]) == 0
    grid = wc.make_grid(2, 32)
    z = load_field(tmp_path / "out2" / "z_final.f64", grid)
    geom = wc.compute_geometry(z, grid, wc.WarpingProfile.cosh(0.2, 3.0))
    assert (tmp_path / "out2" / "fields.csv").read_text() == \
        fields_csv_by_node(geom)


def test_power_profile_config(tmp_path, capsys):
    # decreasing-kappa regime: k = p/t, crossing where c0/t^p = p/t
    cfg = tmp_path / "power.json"
    cfg.write_text(json.dumps({
        "profile": {"kind": "power", "p": 2.0, "t_lo": 0.3, "t_hi": 4.0},
        "grid": {"n": 1, "N": 128},
        "prescription": {"c0": 2.0, "eps": 0.0, "t_minus": 0.6, "t_plus": 2.0},
        "homotopy": {"eps_phi": 2.0},
        "output": {"dir": str(tmp_path / "outp")},
    }))
    assert main(["solve", "--config", str(cfg)]) == 0
    grid = wc.make_grid(1, 128)
    z = load_field(tmp_path / "outp" / "z_final.f64", grid)
    # c0 t^{-p} = p t^{-1}  =>  t = 1 for c0 = p = 2
    assert np.abs(z.values - 1.0).max() <= 1e-8


def test_every_library_error_has_a_documented_exit_code(tmp_path, capsys,
                                                        monkeypatch):
    import warpcurve.cli as cli

    classes = wc.WarpcurveError.__subclasses__()
    codes = [cli.EXIT_CODES[c] for c in classes]
    assert len(set(codes)) == len(codes)
    for c, code in zip(classes, codes):
        assert re.search(rf"\b{code}\s+{c.__name__}\b", cli._EXIT_DOC), c

    def frame_failure(cfg):
        raise wc.FrameError("|grad z| = 0")

    monkeypatch.setattr(cli, "cmd_verify", frame_failure)
    assert main(["verify", "--config", str(write_cfg(tmp_path))]) == 14
    assert "error[FrameError]" in capsys.readouterr().err


def test_deterministic_verify_and_sweep_reports(tmp_path, capsys):
    cfg = write_cfg(tmp_path, eps=0.1, t_plus=1.5,
                    extra="\n[sweep]\neps = 0.0, 0.05\nN = 32, 64, 128\n")
    tables, csvs = [], []
    for k in range(2):
        assert main(["verify", "--config", str(cfg)]) == 0
        tables.append(capsys.readouterr().out)
        out = tmp_path / f"o{k}"
        for axis in ("eps", "N"):
            assert main(["sweep", "--config", str(cfg), "--axis", axis,
                         "--out", str(out)]) == 0
        capsys.readouterr()
        csvs.append([(out / f"sweep_{axis}.csv").read_bytes()
                     for axis in ("eps", "N")])
    assert tables[0] == tables[1] and csvs[0] == csvs[1]


def _sweep_statuses(path):
    return [l.split(",")[2] for l in path.read_text().strip().split("\n")[1:]]


def test_sweep_with_no_successful_point_exits_with_the_first_failure(
        tmp_path, capsys):
    # both points fail validation: the exit is ValidationError's, not the
    # NewtonStall code a sweep used to exit with whatever failed
    cfg = write_cfg(tmp_path, t_plus=1.5, extra="\n[sweep]\neps = 5, 6\n")
    assert main(["sweep", "--config", str(cfg), "--axis", "eps"]) == 4
    assert _sweep_statuses(tmp_path / "out" / "sweep_eps.csv") == \
        ["ValidationError"] * 2


def test_sweep_exit_names_the_first_invariant_error(tmp_path, capsys,
                                                    monkeypatch):
    import warpcurve.cli as cli

    solve = cli.continuation

    def failing(hp, scfg):
        eps = hp.prescription.eps
        if eps == 0.05:
            raise wc.ConeError("left the cone")
        if eps == 0.1:
            raise wc.BarrierViolation("left the slab")
        return solve(hp, scfg)

    monkeypatch.setattr(cli, "continuation", failing)
    # a validation failure first, then a success, then two invariants: the
    # first invariant's class names the exit, ConeError's code, not
    # BarrierViolation's
    cfg = write_cfg(tmp_path, t_plus=1.5,
                    extra="\n[sweep]\neps = 5, 0.0, 0.05, 0.1\n")
    assert main(["sweep", "--config", str(cfg), "--axis", "eps"]) == \
        cli.EXIT_CODES[wc.ConeError]
    assert _sweep_statuses(tmp_path / "out" / "sweep_eps.csv") == \
        ["ValidationError", "ok", "ConeError", "BarrierViolation"]
