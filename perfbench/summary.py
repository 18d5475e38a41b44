#!/usr/bin/env python3
"""Run every workload over several seeds and summarise the runs.

    python3 perfbench/summary.py                      # all workloads, seeds 12345 and 1
    python3 perfbench/summary.py --workloads sweep1d --seeds 1 2 3 4 5 --trace 0

Each (workload, seed, trace) run is one ``run.py`` process, run one after
another.  For every end-to-end metric the summary prints its unit, the
number of runs, the median of the runs' values and their spread (the
interquartile range as a share of the median, as
``statistics.quantiles(values, n=4)`` gives it).  It also prints whether
newton_iters repeats exactly at each seed and, from traced runs, the
layer split the benchmark predicts for each workload.

Exit status is 1 when any run failed an output check or an operation,
0 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys

import run

SELF_TIMES = ("solver.linsolve_s", "solver.eval_s", "solver.jac_s",
              "solver.monitor_s", "solver.newton_self_s", "geometry.self_s",
              "grid.stencil_s", "curvature.f_s", "curvature.cone_margin_s",
              "ambient.eval_s", "problem.psi_s", "oracle.s")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode} "
                           f"without a result:\n{proc.stderr}")
    result = json.loads(lines[-1])
    path = next(ln.split(None, 2)[2] for ln in lines
                if ln.startswith("# record "))
    record = json.loads((run.ROOT / path).read_text())
    return proc.returncode, result, record


def passes(record, traced, key):
    return [p[key] for p in record["passes"] if p["traced"] == traced]


def predictions(workload, rec):
    """The layer split this workload is expected to show, from a traced run."""
    m = {k: v["median"] for k, v in rec["metrics"].items()}
    wall = statistics.median(passes(rec, True, "wall_s"))
    if workload == "solve2d":
        solve = statistics.median(passes(rec, True, "solve_s"))
        top = max(SELF_TIMES, key=m.get)
        return [(f"largest self time is solver.linsolve_s (it is {top})",
                 top == "solver.linsolve_s"),
                (f"solver.linsolve_s / solve_s = "
                 f"{m['solver.linsolve_s'] / solve:.3f} >= 0.7",
                 m["solver.linsolve_s"] >= 0.7 * solve)]
    if workload == "verify2d":
        sections = [k for k in m if k.startswith("verify.")]
        top = max(sections, key=m.get)
        return [(f"solver.linsolve_calls = {m['solver.linsolve_calls']:g}",
                 m["solver.linsolve_calls"] == 0),
                (f"largest verify section is verify.jacobian_s (it is {top})",
                 top == "verify.jacobian_s")]
    setup = statistics.median(passes(rec, True, "setup_s"))
    share = (setup + m["problem.barrier_s"]) / wall
    return [(f"(setup_s + problem.barrier_s) / wall_s = {share:.3f} >= 0.2",
             share >= 0.2)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", default=list(run.WORKLOADS),
                    choices=run.WORKLOADS)
    ap.add_argument("--seeds", nargs="+", type=int, default=[12345, 1])
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", nargs="+", type=int, default=[0, 1],
                    choices=(0, 1))
    args = ap.parse_args(argv)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bad = False
    for wl in args.workloads:
        print(f"== {wl}: seeds {args.seeds}, {seconds:g} s per run")
        untraced, iters, ops, failed = [], {}, 0, 0
        for seed in args.seeds:
            for trace in args.trace:
                code, result, rec = run_once(wl, seed, seconds, trace)
                ops += result["attempted"]
                failed += result["failed"]
                bad |= code != 0 or not result["correct"] \
                    or result["failed"] > 0
                iters.setdefault(seed, set()).update(
                    p["newton_iters"] for p in rec["passes"])
                if trace == 0:
                    untraced.append(rec)
                else:
                    for text, ok in predictions(wl, rec):
                        print(f"   seed {seed}: {'holds' if ok else 'FAILS'}"
                              f"  {text}")
        if untraced:
            names = [m["name"] for m in bench["end_to_end"]] + \
                ["solve_s", "verify_s", "newton_iters"]
            print(f"   {'metric':<14s} {'unit':<6s} {'runs':>4s} "
                  f"{'median':>12s}  spread")
            for name in names:
                vals = [r["metrics"][name]["median"] for r in untraced]
                unit = untraced[0]["metrics"][name]["unit"]
                print(f"   {name:<14s} {unit:<6s} {len(vals):>4d} "
                      f"{statistics.median(vals):>12.6g}  "
                      f"{run.spread(vals):.4f}")
        print(f"   ops={ops} ops_failed={failed}")
        for seed, vals in iters.items():
            print(f"   seed {seed}: newton_iters per pass "
                  f"{'repeats exactly' if len(vals) == 1 else 'VARIES'}"
                  f" {sorted(vals)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
