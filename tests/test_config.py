"""The config loader: one schema on RunConfig's fields decides which
blocks and keys a config may set and how each value is parsed."""

import configparser
import json
from pathlib import Path

import pytest

from warpcurve import cli
from warpcurve.cli import load_config, main

from test_cli import write_cfg

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"


def readme_example():
    """The indented config block that follows README's 'Configs are' line."""
    lines = (ROOT / "README.md").read_text().split("\n")
    start = next(i for i, l in enumerate(lines)
                 if l.startswith("Configs are INI blocks"))
    start = next(i for i in range(start, len(lines))
                 if lines[i].startswith("    ["))
    block = []
    for line in lines[start:]:
        if line and not line.startswith("    "):
            break
        block.append(line[4:])
    return "\n".join(block)


def test_readme_example_config_verifies(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text(readme_example())
    cfg = load_config(path)
    # the inline `; ...` comments are stripped, not read as part of the value
    assert (cfg.profile_kind, cfg.n, cfg.N, cfg.order, cfg.r) == \
        ("cosh", 1, 256, 2, 1)
    assert (cfg.form, cfg.mode, cfg.jacobian) == ("radial-decay", (1,),
                                                  "analytic")
    assert main(["verify", "--config", str(path)]) == 0
    assert "30/30 rows passed" in capsys.readouterr().out


def test_readme_lists_every_key_of_the_schema():
    readme = (ROOT / "README.md").read_text()
    for block, key in cli._SCHEMA:
        assert f"| `[{block}]` | `{key}` |" in readme, (block, key)


@pytest.mark.parametrize("text, offenders", [
    # spellings the loader used to accept as aliases
    ("[grid]\nn_nodes = 64\nl = 6.0\n\n[sweep]\nn_values = 64, 128\n",
     ["[grid] n_nodes", "[grid] l", "[sweep] n_values"]),
    # misspellings the loader used to drop without a word
    ("[grid]\nN_nodes = 64\nOrder = 4\n\n[solvr]\njacobian = fd\n",
     ["[grid] N_nodes", "[grid] Order", "[solvr]"]),
    ("[DEFAULT]\nN = 64\n", ["[DEFAULT]"]),
])
def test_unknown_keys_and_blocks_exit_3_naming_every_offender(
        tmp_path, capsys, text, offenders):
    path = tmp_path / "run.ini"
    path.write_text(text)
    assert main(["verify", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "error[ConfigError]" in err
    for name in offenders:
        assert name in err, name


def test_a_file_holding_a_json_array_is_an_unknown_block(tmp_path, capsys):
    path = tmp_path / "list.ini"
    path.write_text("[1, 2]\n")
    assert main(["verify", "--config", str(path)]) == 3
    assert "[1, 2]" in capsys.readouterr().err


def test_unknown_json_keys_exit_3(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"grid": {"N": 64, "nodes": 64},
                                "solver": {"tol": 1e-8}, "plot": {}}))
    assert main(["verify", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    for name in ("[grid] nodes", "[solver] tol", "[plot]"):
        assert name in err, name


def test_json_arrays_echo_like_strings(tmp_path):
    lists = {
        "profile": {"kind": "custom-table", "table_t": [0.1, 0.5, 1.0, 2.0],
                    "table_h": [1.0, 1.1, 1.5, 3.7]},
        "grid": {"n": 2, "N": 16},
        "curvature": {"r": 2},
        "prescription": {"mode": [1, 2]},
        "sweep": {"N": [16, 24], "eps": [0.0, 0.05], "r": [1, 2]},
        "manufactured": {"freqs": [2, 1]},
    }
    strings = json.loads(json.dumps(lists))
    for block in strings.values():
        for key, value in block.items():
            if isinstance(value, list):
                block[key] = ", ".join(str(x) for x in value)
    (tmp_path / "lists.json").write_text(json.dumps(lists))
    (tmp_path / "strings.json").write_text(json.dumps(strings))
    a = load_config(tmp_path / "lists.json")
    b = load_config(tmp_path / "strings.json")
    assert a.echo() == b.echo()
    assert (a.mode, a.sweep_N, a.sweep_eps, a.mms_freqs, a.table_h) == \
        ((1, 2), (16, 24), (0.0, 0.05), (2, 1), (1.0, 1.1, 1.5, 3.7))


@pytest.mark.parametrize("obj, name", [
    ({"grid": 5}, "'grid'"),
    ({"grid": [1, 2]}, "'grid'"),
    ({"grid": {"N": [64]}}, "[grid] N"),
    ({"grid": {"N": 64.5}}, "[grid] N"),
    ({"prescription": {"mode": [[1, 2]]}}, "[prescription] mode"),
    ({"run": {"unsafe": "maybe"}}, "[run] unsafe"),
])
def test_malformed_json_values_are_parse_errors(tmp_path, capsys, obj, name):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot parse config") and name in err


def test_unparsable_ini_value_names_its_key(tmp_path, capsys):
    path = write_cfg(tmp_path, extra="\n[run]\nseed = many\n")
    assert main(["verify", "--config", str(path)]) == 2
    assert "[run] seed = 'many'" in capsys.readouterr().err


def test_unreadable_config_is_usage_error(tmp_path, capsys):
    assert main(["verify", "--config", str(tmp_path)]) == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("block, key, value, command", [
    ("solver", "newton_tol", "nan", "solve"),
    ("solver", "ds_min", "inf", "solve"),
    ("grid", "L", "nan", "verify"),
])
def test_non_finite_settings_exit_3(tmp_path, capsys, block, key, value,
                                    command):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({block: {key: value},
                                "output": {"dir": str(tmp_path / "out")}}))
    assert main([command, "--config", str(path)]) == 3
    assert "finite and positive" in capsys.readouterr().err


def all_keys():
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read(DATA / "all_keys.ini")
    return {(block, key) for block in cp.sections() for key in cp[block]}


def test_all_keys_ini_sets_every_key_of_the_schema():
    assert all_keys() == set(cli._SCHEMA)


def test_all_keys_echo_matches_golden():
    # the golden echo was written by the hand-coded loader this schema replaced
    assert len(all_keys()) == 33
    golden = (DATA / "all_keys.echo.json").read_text().rstrip("\n")
    assert load_config(DATA / "all_keys.ini").echo() == golden
