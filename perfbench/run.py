#!/usr/bin/env python3
"""Run one warpcurve benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload solve2d --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: it imports warpcurve from the
checkout's ``src/`` and refuses to run without it.  The workload repeats
whole passes (see workloads.py) until ``--seconds`` have elapsed, each in
this one process, and reports medians over the passes.

--trace 0 measures the end-to-end metrics with nothing wrapped.
--trace 1 alternates traced and untraced passes: traced passes give the
per-layer metrics (spans around every call into a warpcurve module, see
layers.py), and the two kinds together give the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the metrics are BENCHMARK.json's
``end_to_end`` list (--trace 0) or its ``per_layer`` list (--trace 1).
The lines before it record the environment, the drawn problems, every
pass and the full metric table.  A record of the run (and, traced, its
spans) is written under ``.perfbench_out/`` in the checkout.

Exit status: 0 when every output check passed, 1 when one failed, 2 when
the run cannot start.
"""

import os

# one thread per BLAS/OpenMP pool, fixed before numpy is first imported
PINNED_THREADS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("solve2d", "sweep1d", "verify2d")
# extra set-ups per run, timed for setup_s alone, so that its median rests
# on more samples than the few passes of solve2d
SETUP_SAMPLES = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def import_library():
    """Import warpcurve from the checkout's src/, never from elsewhere."""
    pkg = SRC / "warpcurve"
    if not (pkg / "__init__.py").is_file():
        raise ImportError(f"no warpcurve source tree at {pkg}")
    sys.path.insert(0, str(SRC))
    import warpcurve
    if Path(warpcurve.__file__).resolve().parent != pkg.resolve():
        raise ImportError(f"warpcurve imported from {warpcurve.__file__}, "
                          f"not from {pkg}")
    return warpcurve


def environment(warpcurve):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "warpcurve": warpcurve.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "threads": {var: os.environ[var] for var in PINNED_THREADS}}


def spread(values):
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def median_table(samples):
    """{name: (samples, unit)} -> {name: (median, unit, count, spread)}."""
    return {name: (statistics.median(vals), unit, len(vals), spread(vals))
            for name, (vals, unit) in samples.items()}


def end_to_end_samples(reps, setups):
    untraced = [r for r in reps if not r.traced]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"wall_s": ([r.wall_s for r in untraced], "s"),
            "setup_s": ([r.setup_s for r in untraced] + setups, "s"),
            "core_s": ([r.core_s for r in untraced], "s"),
            "solve_s": ([r.solve_s for r in untraced], "s"),
            "verify_s": ([r.verify_s for r in untraced], "s"),
            "newton_iters": ([r.newton_iters for r in untraced], "count"),
            "peak_rss_mb": ([rss_mb], "MB")}


def per_layer_samples(reps, tracer, layers, spans):
    agg = spans.aggregate(tracer.spans)
    samples = {}
    for i, rep in enumerate(reps):
        if not rep.traced:
            continue
        for name, (value, unit) in layers.layer_metrics(
                agg.get(i, {}), tracer.counts[i]).items():
            samples.setdefault(name, ([], unit))[0].append(value)
    traced = statistics.median(r.wall_s for r in reps if r.traced)
    untraced = statistics.median(r.wall_s for r in reps if not r.traced)
    samples["trace.traced_wall_s"] = ([traced], "s")
    samples["trace.untraced_wall_s"] = ([untraced], "s")
    samples["trace.overhead_ratio"] = ([traced / untraced], "ratio")
    return samples


def _number(value, unit):
    if unit == "count" and float(value).is_integer():
        return int(value)
    return float(value)


def main(argv=None):
    args = parse_args(argv)
    try:
        warpcurve = import_library()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import layers
    import spans
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(warpcurve)
    cases = workloads.draw_cases(args.workload, args.seed)
    reference = workloads.load_reference()
    tracer = spans.Tracer(layers.targets()) if args.trace else None
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    print(f"# warpcurve benchmark {args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    for case in cases:
        print(f"# case {case.key}")

    OUT.mkdir(exist_ok=True)
    reps = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        deadline = time.perf_counter() + args.seconds
        setups = [t for t in (workloads.time_setup(args.workload, cases)
                              for _ in range(SETUP_SAMPLES)) if t is not None]
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 0
            rep = workloads.Rep(traced=traced)
            if traced:
                tracer.run_id = len(reps)
            for case in cases:
                workloads.run_operation(args.workload, case, rep, Path(tmp),
                                        reference, tracer if traced else None)
            reps.append(rep)
            failed = sum(o.failed for o in rep.outcomes)
            print(f"# pass {len(reps) - 1} {'traced' if traced else 'untraced'}"
                  f" wall_s={rep.wall_s:.6f} setup_s={rep.setup_s:.6f} "
                  f"core_s={rep.core_s:.6f} newton_iters={rep.newton_iters} "
                  f"ops={len(rep.outcomes)} failed={failed}", flush=True)
            if time.perf_counter() >= deadline and \
                    (not args.trace or len(reps) >= 2):
                break

    correct, attempted, failed = workloads.tally(reps)
    for o in (o for r in reps for o in r.outcomes):
        if o.failed:
            print(f"# FAILED {o.case.key}: {o.error or '; '.join(o.failures)}")
    table = median_table(end_to_end_samples(reps, setups))
    if args.trace:
        table.update(median_table(
            per_layer_samples(reps, tracer, layers, spans)))
    print(f"# {'metric':<34s} {'unit':<6s} {'n':>3s} {'median':>14s} spread")
    for name, (med, unit, count, spr) in table.items():
        print(f"# {name:<34s} {unit:<6s} {count:>3d} {med:>14.6g} {spr:.4f}")

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        value, unit = table[m["name"]][:2]
        if unit != m["unit"]:
            raise ValueError(f"{m['name']} is measured in {unit}, "
                             f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": _number(value, unit), "unit": unit}

    record = {"args": vars(args), "environment": env,
              "cases": [vars(c) for c in cases],
              "passes": [{"traced": r.traced, "wall_s": r.wall_s,
                          "setup_s": r.setup_s, "solve_s": r.solve_s,
                          "verify_s": r.verify_s,
                          "newton_iters": r.newton_iters,
                          "outcomes": [{"case": o.case.key, "error": o.error,
                                        "failures": o.failures,
                                        "newton_iters": o.newton_iters}
                                       for o in r.outcomes]} for r in reps],
              "metrics": {k: {"median": v[0], "unit": v[1], "n": v[2],
                              "spread": v[3]} for k, v in table.items()}}
    (OUT / f"record-{tag}.json").write_text(json.dumps(record, indent=1))
    print(f"# record {(OUT / f'record-{tag}.json').relative_to(ROOT)}")
    if tracer is not None:
        tracer.write(OUT / f"spans-{tag}.jsonl.gz")
        print(f"# spans {(OUT / f'spans-{tag}.jsonl.gz').relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
