"""The bytes the CLI writes, pinned.

A change that only reorganizes or deletes code must leave every report
byte-identical.  This pins the sha256 of what each subcommand writes, for
one n = 1 and one n = 2 config: `verify`'s stdout, `solve`'s report.txt,
steps.csv, fields.csv and z_final.f64, and an eps sweep's CSV at n = 1.
The hashes live in tests/data/cli_golden.json, with the NumPy and SciPy
versions they were recorded with.  The CLI runs from the test's temporary
directory with a relative [output] dir, so report.txt's config echo holds
no temporary path.  A change meant to move these bytes re-records them:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import scipy

from warpcurve.cli import main

_GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

_CONFIG = """\
[profile]
kind = cosh
t_lo = 0.2
t_hi = 3.0

[grid]
n = {n}
N = {N}
order = 2

[curvature]
r = {r}

[prescription]
c0 = 1.1752011936438014
eps = 0.1
mode = {mode}
t_minus = 0.5
t_plus = 1.5

[homotopy]
eps_phi = 0.1

[output]
dir = {out}
{extra}"""

_CASES = {"n1-N256": dict(n=1, N=256, r=1, mode="1", extra=""),
          "n2-r2-N32": dict(n=2, N=32, r=2, mode="1, 2", extra=""),
          "n1-N64-sweep": dict(n=1, N=64, r=1, mode="1",
                               extra="\n[sweep]\neps = 0.0, 0.05, 0.1\n")}

_SOLVE_FILES = ("report.txt", "steps.csv", "fields.csv", "z_final.f64")


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def cli_hashes(capture):
    """{output name: sha256} of every pinned output, written below the
    working directory; capture() returns the stdout printed since its
    last call."""
    hashes = {}
    for key, case in _CASES.items():
        cfg = Path(f"{key}.ini")
        cfg.write_text(_CONFIG.format(out=key, **case))
        out = Path(key)
        if key.endswith("sweep"):
            assert main(["sweep", "--config", str(cfg), "--axis", "eps"]) == 0
            capture()
            hashes[f"{key}/sweep_eps.csv"] = _sha(
                (out / "sweep_eps.csv").read_bytes())
            continue
        code = main(["verify", "--config", str(cfg)])
        hashes[f"{key}/verify"] = [code, _sha(capture().encode())]
        assert main(["solve", "--config", str(cfg)]) == 0
        capture()
        for name in _SOLVE_FILES:
            hashes[f"{key}/{name}"] = _sha((out / name).read_bytes())
    return hashes


def test_cli_outputs_are_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = cli_hashes(lambda: capsys.readouterr().out)
    assert got == json.loads(_GOLDEN.read_text())["sha256"]


if __name__ == "__main__":
    import io
    import os
    import tempfile
    from contextlib import redirect_stdout

    buf = io.StringIO()

    def capture():
        text = buf.getvalue()
        buf.seek(0)
        buf.truncate()
        return text

    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(buf):
        os.chdir(tmp)
        hashes = cli_hashes(capture)
    _GOLDEN.write_text(json.dumps(
        {"recorded_with": {"numpy": np.__version__,
                           "scipy": scipy.__version__},
         "sha256": hashes}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {_GOLDEN}", file=sys.stderr)
