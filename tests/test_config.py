"""The config loader: one schema on RunConfig's fields decides which
blocks and keys a config may set and how each value is parsed."""

import configparser
import json
from pathlib import Path

import pytest

from warpcurve import ConfigError, SolverConfig, cli
from warpcurve.cli import main

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
    cfg = cli._parse_config(path)
    cfg.validate()
    # the inline `; ...` comments are stripped, not read as part of the value
    assert (cfg.profile_kind, cfg.n, cfg.N, cfg.order, cfg.r) == \
        ("cosh", 1, 256, 2, 1)
    assert cfg.mode == (1,)
    assert main(["verify", "--config", str(path)]) == 0
    assert "30/30 rows passed" in capsys.readouterr().out


def readme_key_table():
    """(block, key) -> default cell of README's key table."""
    rows = [l.split(" | ") for l in
            (ROOT / "README.md").read_text().split("\n")
            if l.startswith("| `[")]
    return {(block.strip("|`[] "), key.strip("`")): default.removesuffix(" |")
            for block, key, default in rows}


def test_readme_lists_every_key_of_the_schema():
    table = readme_key_table()
    assert sorted(table) == sorted(cli._SCHEMA)
    assert len(table) == 27


def test_readme_key_table_gives_the_schema_defaults():
    # a plain number or word default is the first code span of its cell;
    # lists, None and computed defaults are described in words
    checked = 0
    for (block, key), cell in readme_key_table().items():
        default = cli._SCHEMA[block, key].default
        if isinstance(default, (int, float, str)):
            assert cell.split("`")[1] == str(default), (block, key, cell)
            checked += 1
    assert checked == 20


@pytest.mark.parametrize("text, offenders", [
    # spellings the loader used to accept as aliases
    ("[grid]\nn_nodes = 64\nl = 6.0\n\n[sweep]\nn_values = 64, 128\n",
     ["[grid] n_nodes", "[grid] l", "[sweep] n_values"]),
    # misspellings the loader used to drop without a word
    ("[grid]\nN_nodes = 64\nOrder = 4\n\n[solvr]\njacobian = fd\n",
     ["[grid] N_nodes", "[grid] Order", "[solvr]"]),
    ("[DEFAULT]\nN = 64\n", ["[DEFAULT]"]),
    # keys of the manufactured sweep and of the prescription form, which
    # had one legal value
    ("[manufactured]\ncenter = 1.0\namplitude = 0.01\nfreqs = 1\n",
     ["[manufactured]"]),
    ("[run]\nunsafe = true\n", ["[run] unsafe"]),
    ("[prescription]\nform = radial-decay\n", ["[prescription] form"]),
    # Newton's Jacobian, which had one trustworthy value
    ("[solver]\njacobian = fd\n", ["[solver] jacobian"]),
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
        # load builds the profile, so the interval lies inside the table
        "profile": {"kind": "custom-table", "table_t": [0.1, 0.5, 1.0, 2.0],
                    "table_h": [1.0, 1.1, 1.5, 3.7], "t_hi": 2.0},
        "grid": {"n": 2, "N": 16},
        "curvature": {"r": 2},
        "prescription": {"mode": [1, 2]},
        "sweep": {"N": [16, 32], "eps": [0.0, 0.05], "r": [1, 2]},
    }
    strings = json.loads(json.dumps(lists))
    for block in strings.values():
        for key, value in block.items():
            if isinstance(value, list):
                block[key] = ", ".join(str(x) for x in value)
    (tmp_path / "lists.json").write_text(json.dumps(lists))
    (tmp_path / "strings.json").write_text(json.dumps(strings))
    a = cli._parse_config(tmp_path / "lists.json")
    b = cli._parse_config(tmp_path / "strings.json")
    a.validate()
    b.validate()
    assert a.echo() == b.echo()
    assert (a.mode, a.sweep_N, a.sweep_eps, a.sweep_r, a.table_h) == \
        ((1, 2), (16, 32), (0.0, 0.05), (1, 2), (1.0, 1.1, 1.5, 3.7))


@pytest.mark.parametrize("obj, name", [
    ({"grid": 5}, "'grid'"),
    ({"grid": [1, 2]}, "'grid'"),
    ({"grid": {"N": [64]}}, "[grid] N"),
    ({"grid": {"N": 64.5}}, "[grid] N"),
    ({"prescription": {"mode": [[1, 2]]}}, "[prescription] mode"),
    # a JSON null is no value, not a missing key: {"grid": {"N": null}}
    # used to load N = 256 and pass verify
    ({"grid": {"N": None}}, "[grid] N = null"),
    ({"output": {"dir": None}}, "[output] dir = null"),
    ({"homotopy": {"t0": None}}, "[homotopy] t0 = null"),
    ({"sweep": {"eps": None}}, "[sweep] eps = null"),
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


@pytest.mark.parametrize("text, name", [
    ('{"grid": {"N": 64, "N": 128}}', "'N'"),
    ('{"grid": {"N": 64}, "grid": {"n": 1}}', "'grid'"),
])
def test_duplicate_json_keys_are_parse_errors(tmp_path, capsys, text, name):
    # the INI loader refuses a repeated option or section; JSON used to
    # keep the last value without a word
    path = tmp_path / "dup.json"
    path.write_text(text)
    assert main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot parse config") and \
        f"duplicate JSON key {name}" in err


@pytest.mark.parametrize("blocks", [
    {"profile": {"kind": "power", "p": "nan", "t_lo": 0.3, "t_hi": 4.0},
     "prescription": {"c0": 2.0, "t_minus": 0.6, "t_plus": 2.0}},
    {"prescription": {"c0": "nan"}},
    {"prescription": {"eps": "nan"}},
    {"prescription": {"eps": "inf"}},
    {"sweep": {"eps": "0.0, nan"}},
])
def test_non_finite_inputs_exit_3(tmp_path, capsys, blocks):
    # these used to reach validation and fail as ValidationError
    # "hypothesis (positivity) violated ... psi = nan" (exit 4)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(blocks))
    assert main(["verify", "--config", str(path)]) == 3
    assert "error[ConfigError]" in capsys.readouterr().err


@pytest.mark.parametrize("blocks, name", [
    ({"profile": {"kind": "power", "p": "inf"}}, "p"),
    ({"prescription": {"c0": "inf"}}, "c0"),
    ({"profile": {"t_hi": "inf"}}, "t_hi"),
])
def test_infinite_inputs_exit_3_naming_the_parameter(tmp_path, capsys, blocks,
                                                     name):
    # each passed its sign check and failed later under another cause:
    # ProfileError (exit 10), ValidationError (exit 4), DomainError (exit 11)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(blocks))
    assert main(["verify", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[ConfigError]") and f" {name} " in err \
        and "inf" in err


# every schema key, split by the profile kind that reads [profile] p
# (power) and table_t, table_h (custom-table)
ALL_KEYS = ("all_keys_power", "all_keys_table")


def all_keys(name):
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read(DATA / f"{name}.ini")
    return {(block, key) for block in cp.sections() for key in cp[block]}


def test_all_keys_ini_sets_every_key_of_the_schema():
    assert set().union(*map(all_keys, ALL_KEYS)) == set(cli._SCHEMA)


def test_all_keys_echo_matches_golden():
    # the golden echoes were written by the loader before it refused
    # profile keys of another kind; it accepted both files
    assert len(set().union(*map(all_keys, ALL_KEYS))) == 27
    for name in ALL_KEYS:
        golden = (DATA / f"{name}.echo.json").read_text().rstrip("\n")
        cfg = cli._parse_config(DATA / f"{name}.ini")
        cfg.validate()
        assert cfg.echo() == golden, name


@pytest.mark.parametrize("profile, offenders", [
    ({"p": "inf"}, ["[profile] p"]),
    ({"p": 1.5, "table_t": "0, 1", "table_h": "1, 2"},
     ["[profile] p", "[profile] table_t", "[profile] table_h"]),
    ({"kind": "power", "p": 1.5, "table_h": "1, 2"}, ["[profile] table_h"]),
    ({"kind": "custom-table", "p": 1.5, "table_t": "0.1, 3.0",
      "table_h": "1, 2"}, ["[profile] p"]),
])
def test_profile_keys_the_kind_ignores_exit_3(tmp_path, capsys, profile,
                                              offenders):
    # {"profile": {"p": "inf"}} used to pass verify 30/30 under cosh
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"profile": profile}))
    assert main(["verify", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[ConfigError]")
    assert err.count("[profile] ") == len(offenders) + 1
    for name in offenders:
        assert name in err, name


@pytest.mark.parametrize("extra, argv", [
    ("\n[run]\nseed = -5\n", []),
    ("", ["--seed", "-5"]),
    ("", ["--seed", "-1"]),
    # --seed is checked at load with the rest, and the seed comes first
    ("\n[sweep]\nN = 64, 100\n", ["--seed", "-1"]),
])
def test_negative_seed_exits_3_naming_the_key(tmp_path, capsys, extra, argv):
    # it used to reach NumPy's generator and exit 1, the code of a failed
    # verify row
    path = write_cfg(tmp_path, extra=extra)
    assert main(["verify", "--config", str(path)] + argv) == 3
    seed = argv[-1] if argv else "-5"
    assert capsys.readouterr().err == \
        f"error[ConfigError]: [run] seed must be >= 0, got {seed}\n"


def test_the_seed_flag_replaces_the_config_seed_before_the_check(tmp_path,
                                                                capsys):
    # --seed is applied before load's one validate(), so a bad seed it
    # replaces no longer stops the run
    path = write_cfg(tmp_path, extra="\n[run]\nseed = -1\n")
    assert main(["verify", "--config", str(path), "--seed", "5"]) == 0
    assert capsys.readouterr().out.startswith(
        f"warpcurve {cli.__version__} verification table (seed 5)\n")


def _counting_checks(monkeypatch):
    counts = {"validate": 0, "_check_point": 0}
    validate, check_point = cli.RunConfig.validate, cli._check_point

    def counted_validate(cfg):
        counts["validate"] += 1
        return validate(cfg)

    def counted_check_point(*args, **kwargs):
        counts["_check_point"] += 1
        return check_point(*args, **kwargs)

    monkeypatch.setattr(cli.RunConfig, "validate", counted_validate)
    monkeypatch.setattr(cli, "_check_point", counted_check_point)
    return counts


@pytest.mark.parametrize("argv, sweep, points", [
    (["solve"], "N = 64, 128\neps = 0.0 0.05", 1 + 4),
    (["sweep", "--axis", "eps"], "N = 64, 128\neps = 0.0 0.05", 1 + 4),
    (["sweep", "--axis", "N"], "N = 64, 128\neps = 0.0 0.05", 1 + 4),
    # the default N axis (64, 128, 256) is checked where sweep adds it
    (["sweep", "--axis", "N"], "eps = 0.0 0.05", 1 + 2 + 3),
], ids=["solve", "sweep-eps", "sweep-N", "sweep-default-N"])
def test_each_config_check_runs_once(tmp_path, capsys, monkeypatch, argv,
                                     sweep, points):
    # the configured point and each configured [sweep] value are checked
    # once, at load
    counts = _counting_checks(monkeypatch)
    path = write_cfg(tmp_path, extra=f"\n[sweep]\n{sweep}\n")
    assert main([argv[0], "--config", str(path), *argv[1:]]) == 0
    assert counts == {"validate": 1, "_check_point": points}


@pytest.mark.parametrize("value", [0, -3, 2.5, "30"])
def test_max_newton_must_be_a_positive_integer(value):
    with pytest.raises(ConfigError, match="max_newton"):
        SolverConfig(max_newton=value)


def test_negative_max_newton_exits_3_naming_the_key(tmp_path, capsys):
    # it used to run and exit 7: "no convergence in -3 iterations"
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"solver": {"max_newton": -3}}))
    assert main(["solve", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[ConfigError]") and "max_newton" in err \
        and "-3" in err
