#!/usr/bin/env python3
"""Regenerate reference.json: z_min and z_max of every solve case a seed can draw.

    python3 perfbench/make_reference.py

Run it from the root of a source checkout, only when a change to the
program is meant to move the solutions; the benchmark's output check
compares each solve against these values within workloads.Z_REF_TOL.
"""

import json
import sys

import run


def main():
    warpcurve = run.import_library()
    sys.path.insert(0, str(run.HERE))
    import workloads

    table = {}
    for case in workloads.reference_cases():
        _, hp = workloads.setup(case)
        z, _ = workloads.solver.continuation(hp, workloads.SOLVER_CONFIG)
        table[case.key] = [float(z.values.min()), float(z.values.max())]
        print(f"{case.key} {table[case.key][0]:.17g} {table[case.key][1]:.17g}",
              flush=True)
    env = run.environment(warpcurve)
    doc = {"note": "z_min, z_max per solve case; written by make_reference.py",
           "environment": env, "z_range": table}
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
