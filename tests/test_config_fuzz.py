"""Every key of the config schema, one edge value at a time: verify, solve
and sweep each end in a documented exit code whose message names the key
or the library error class, and no exception escapes.  A key the schema
has dropped is refused under every value as an unknown key (exit 3)."""

import copy
import json

import pytest

from warpcurve import cli
from warpcurve.cli import EXIT_CODES, main

# small enough that every command runs in milliseconds; ds_min = 0.01
# bounds a continuation to 100 steps (max_newton = 1 under the default
# ds_min walks 8192 steps of 2**-13, about 30 s for the three commands)
BASE = {"grid": {"n": 1, "N": 32},
        "solver": {"ds_min": 0.01},
        "prescription": {"eps": 0.1, "t_plus": 1.5},
        "sweep": {"eps": "0.0, 0.05"}}

# edge values by parser type; every key also gets a JSON null
EDGES = {
    float: ("0", "-1", "1e-300", "-1e-300", "1e300", "-1e300", "nan", "inf",
            "-inf"),
    int: ("0", "-1", "1", "3", "17"),
    cli._floats: ("", "0", "-1", "1 2 3", "nan"),
    cli._ints: ("", "0", "-1", "1 2 3", "nan"),
    str: ("", "x", "cosh", "exp", "power", "custom-table", "fd"),
}

# dropped keys and the parser they had
RETIRED = {("solver", "jacobian"): str}

CASES = [(block, key, value)
         for (block, key), parse in sorted(
             {**{k: f.metadata["parse"] for k, f in cli._SCHEMA.items()},
              **RETIRED}.items())
         for value in EDGES[parse] + (None,)]

COMMANDS = (["verify"], ["solve"], ["sweep", "--axis", "eps"])
CLASS_OF = {code: cls.__name__ for cls, code in EXIT_CODES.items()}


def test_the_cases_cover_every_key_of_the_schema():
    assert len(cli._SCHEMA) == 27
    assert {(block, key) for block, key, _ in CASES} == \
        set(cli._SCHEMA) | set(RETIRED)


@pytest.mark.parametrize("block, key, value", CASES,
                         ids=[f"[{b}] {k} = {v}" for b, k, v in CASES])
def test_one_key_edge_value_ends_in_a_documented_exit(tmp_path, capsys,
                                                      monkeypatch, block,
                                                      key, value):
    monkeypatch.chdir(tmp_path)         # [output] dir may be "" or "x"
    obj = copy.deepcopy(BASE)
    obj.setdefault(block, {})[key] = value
    (tmp_path / "run.json").write_text(json.dumps(obj))
    for command in COMMANDS:
        code = main([command[0], "--config", "run.json", *command[1:]])
        out, err = capsys.readouterr()
        if (block, key) in RETIRED:
            assert code == 3 and f"unknown config block/key: [{block}] {key}" \
                in err, (command, code, err)
            continue
        allowed = {0, 2, *CLASS_OF} | ({1} if command[0] == "verify" else set())
        assert code in allowed and code != 70, (command, code, err)
        if value is None:               # a null is not a missing key
            assert code == 2, (command, code)
        if code == 2:
            assert f"[{block}] {key}" in err, (command, err)
        elif code >= 3:
            # a sweep names each failed point's class in its table
            named = err or (tmp_path / out.rsplit("wrote ", 1)[1].strip()
                            ).read_text()
            assert f"[{block}] {key}" in named or CLASS_OF[code] in named, \
                (command, code, named)
