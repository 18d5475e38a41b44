"""Which SciPy submodules a run loads, each case in a fresh interpreter.

scipy.interpolate (with optimize, spatial and special behind it) serves
tabulated profiles only, and scipy.fft the n = 2 linear step only; both
load on first use, so the other runs keep them out of memory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_HEAVY = {"scipy.interpolate", "scipy.optimize", "scipy.spatial",
          "scipy.fft"}
_CONTINUATION = """
from conftest import make_problem
from warpcurve.solver import continuation
continuation(make_problem(n={n}, N={N}, r={n}, eps=0.1, t_plus=1.5))
"""
_VERIFY = """
from conftest import make_problem
from warpcurve.verify import build_condition_table
build_condition_table(make_problem(n=2, N=16, r=2, eps=0.1, t_plus=1.5),
                      seed=7)
"""
_TABLE = """
import numpy as np
import warpcurve as wc
ts = np.linspace(0.2, 3.0, 12)
wc.WarpingProfile.from_table(ts, np.cosh(ts))
"""


def _loaded(code):
    """The heavy SciPy submodules in sys.modules after running code."""
    path = os.pathsep.join([str(_ROOT / "src"), str(_ROOT / "tests")])
    probe = (f"{code}\nimport json, sys\nprint(json.dumps("
             f"[m for m in {sorted(_HEAVY)!r} if m in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("code,present,absent", [
    ("import warpcurve", set(), _HEAVY),
    ("import warpcurve.cli", set(), _HEAVY),
    (_CONTINUATION.format(n=1, N=32), set(), _HEAVY),
    (_VERIFY, set(), _HEAVY),
    (_CONTINUATION.format(n=2, N=16), {"scipy.fft"}, _HEAVY - {"scipy.fft"}),
    # scipy.interpolate loads the others itself
    (_TABLE, {"scipy.interpolate"}, set()),
], ids=["import", "import-cli", "n1-continuation", "n2-verify",
        "n2-continuation", "table"])
def test_heavy_scipy_submodules_load_only_where_used(code, present, absent):
    loaded = _loaded(code)
    assert present <= loaded
    assert not loaded & absent
