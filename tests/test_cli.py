"""Command-line runner: parsing, exit codes, determinism, artifacts."""

import json
import re
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from fracdim import profiles
from fracdim.cli import (EXIT_CONFIG, EXIT_NUMERICAL, build_parser, main,
                         parse_family, parse_model, parse_phi, parse_set)


def _strict_json(text: str):
    """A report parsed as strict JSON: a NaN or Infinity token raises."""
    def reject(token):
        raise ValueError(f"report holds the non-JSON token {token}")
    return json.loads(text, parse_constant=reject)


# ---------------------------------------------------------------------------
# descriptor parsing
# ---------------------------------------------------------------------------

def test_parse_set_descriptors():
    assert parse_set("interval:0,1").kind == "interval"
    assert parse_set("cantor3").kind == "ifs"
    assert parse_set("cantor:0.4").params["ratios"][0] == 0.4
    assert parse_set("finite:0,0.5,1").params["points"].size == 3
    with pytest.raises(Exception):
        parse_set("blob:1")


def test_parse_phi_and_model():
    assert parse_phi("stable:0.5").family == "stable"
    assert parse_phi("gamma:1,2").family == "gamma"
    assert parse_phi("cpd:1,0.5,0.1").family == "compound_poisson_drift"
    assert parse_phi("drift:2").family == "compound_poisson_drift"
    assert parse_model("stable:0.8").kind == "isotropic_stable"
    assert parse_model("stable:0.8,2,1").params["c"] == 2.0
    assert parse_model("subordinator:stable:0.5").kind == "subordinator"
    assert parse_model("subbrownian:gamma:1,1,2").d == 2


def test_parse_family_needs_parameters():
    def record(*flags):
        return build_parser().parse_args(["profile", "--set", "interval:0,1",
                                          "--ladder", "0.1,0.5,3", *flags])

    with pytest.raises(Exception):
        parse_family(record("--family", "fh"))
    assert parse_family(record("--family", "fh", "--s", "1.0")).kind == "fh"
    with pytest.raises(Exception):
        parse_family(record("--family", "exact"))
    assert parse_family(record("--family", "exact", "--model", "stable:0.8")).kind == "exact"


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_validation_exit_codes():
    # eps ladder with ratio > 1
    assert main(["profile", "--set", "interval:0,1", "--family", "fh",
                 "--s", "1.0", "--ladder", "0.1,2,5"]) == EXIT_CONFIG
    # missing required field
    assert main(["profile", "--family", "fh", "--s", "1.0",
                 "--ladder", "0.1,0.5,5"]) == EXIT_CONFIG
    # ladder too short
    assert main(["subordinator", "--set", "interval:0,1", "--phi", "stable:0.5",
                 "--ladder", "2,3,2"]) == EXIT_CONFIG
    # stochastic command without seed
    assert main(["simulate", "--set", "interval:0,1", "--model", "stable:2",
                 "--ladder", "0.125,0.5,5"]) == EXIT_CONFIG
    # unknown oracle name
    assert main(["oracle", "--name", "nope"]) == EXIT_CONFIG
    # out-of-range solver settings fail before any result is written
    profile = ["profile", "--set", "interval:0,1", "--ladder", "0.1,0.5,3"]
    fh = profile + ["--family", "fh", "--s", "0.5"]
    assert main(fh + ["--mesh-ratio", "0"]) == EXIT_CONFIG
    assert main(fh + ["--restarts", "0"]) == EXIT_CONFIG
    assert main(fh + ["--tol", "-1"]) == EXIT_CONFIG
    assert main(fh + ["--max-iter", "0"]) == EXIT_CONFIG
    # s comes from --s alone, and a flag the family does not read is an error
    assert main(profile + ["--family", "fh:0.3", "--s", "0.7"]) == EXIT_CONFIG
    assert main(profile + ["--family", "fh:", "--s", "0.7"]) == EXIT_CONFIG
    assert main(profile + ["--family", "exact", "--model", "stable:1.5",
                           "--s", "0.5"]) == EXIT_CONFIG
    assert main(fh + ["--model", "stable:1.5"]) == EXIT_CONFIG
    assert main(profile + ["--family", "exact"]) == EXIT_CONFIG
    assert main(profile + ["--family", "subexp"]) == EXIT_CONFIG
    # a dimension must be an integer, not truncated to one
    assert main(profile + ["--family", "exact", "--model",
                           "stable:1.5,1,2.7"]) == EXIT_CONFIG
    assert main(["simulate", "--set", "interval:0,1", "--model", "stable:1.5,1,2.7",
                 "--ladder", "0.125,0.5,5", "--seed", "0"]) == EXIT_CONFIG
    # a subordinate Brownian motion needs an integer dimension d >= 1
    for model in ("subbrownian:stable:0.5,0", "subbrownian:stable:0.5,2.5"):
        assert main(["simulate", "--set", "interval:0,1", "--model", model,
                     "--ladder", "0.125,0.5,5", "--seed", "0"]) == EXIT_CONFIG
    assert main(["theta", "--phi", "stable:0.5", "--s", "0.7",
                 "--lam-max", "inf"]) == EXIT_CONFIG
    assert main(["subordinator", "--set", "interval:0,1", "--phi", "stable:0.5",
                 "--ladder", "10,4,3", "--tol", "-1"]) == EXIT_CONFIG
    # oracle parameters that do not fit the oracle
    assert main(["oracle", "--name", "two-point-energy"]) == EXIT_CONFIG
    assert main(["oracle", "--name", "interval-capacity", "--params", "0"]) == EXIT_CONFIG
    # ... and parameters outside the oracle's domain
    for name, params in (("cantor-capacity", ["2.5"]), ("cantor-capacity", ["-1"]),
                         ("interval-capacity", ["0.25", "-3"]),
                         ("cauchy-ball", ["1", "1", "-1"]),
                         ("half-stable-cdf", ["1", "-1"]),
                         ("interval-exp-min-energy", ["-3"]),
                         ("two-point-energy", ["3"])):
        assert main(["oracle", "--name", name, "--params", *params]) == EXIT_CONFIG


@pytest.mark.parametrize("family", [["--family", "fh", "--s", "2",
                                     "--ladder", "2e-308,0.5,3"],
                                    ["--family", "fh", "--s", "0.5",
                                     "--ladder", "1e-320,0.5,3"]])
def test_power_law_eps_outside_the_normal_floats_is_a_config_error(family, capsys):
    # 2e-308 is just below the least normal float and 1e-320 deep among the
    # subnormals: either would reach 0/0 or an infinite minorant slope
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["profile", "--set", "finite:0,0.5,1", *family]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("point", ["nan", "inf"])
def test_non_finite_set_point_is_a_config_error(point, monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("a rung was solved")

    monkeypatch.setattr(profiles, "rung_min_energy", unreachable)
    assert main(["profile", "--set", f"finite:0,{point},1", "--family", "fh",
                 "--s", "0.5", "--ladder", "0.1,0.5,3"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: point {point} is not finite\n"


_PROFILE = ["profile", "--set", "interval:0,1", "--ladder", "0.2,0.5,3"]
_SIMULATE = ["simulate", "--set", "interval:0,1", "--ladder", "0.25,0.5,5",
             "--paths", "2", "--seed", "0"]


@pytest.mark.parametrize("argv, good, name", [
    (_PROFILE + ["--family", "fh", "--s", "{}"], "0.5", "profile parameter s"),
    (["theta", "--phi", "stable:0.5", "--s", "{}"], "0.7", "s must be finite"),
    (_PROFILE + ["--family", "exact", "--model", "stable:1.5,{}"], "1", "scale c"),
    (_SIMULATE + ["--model", "stable:1.5,{}"], "1", "scale c"),
    (["theta", "--phi", "cpd:{},1,0.1", "--s", "0.7"], "1", "compound Poisson rate"),
    (["theta", "--phi", "gamma:{},1", "--s", "0.7"], "1", "gamma subordinator a"),
    (["theta", "--phi", "drift:{}", "--s", "0.7"], "2", "drift must be finite"),
    (["subordinator", "--phi", "cpd:1,{},0.1", "--set", "interval:0,1",
      "--ladder", "10,4,3"], "0.5", "compound Poisson jump_mean"),
    (["profile", "--set", "interval:0,{}", "--family", "fh", "--s", "0.5",
      "--ladder", "0.1,0.5,3"], "1", "interval needs"),
    (["simulate", "--set", "interval:0,{}"] + _SIMULATE[3:] + ["--model", "stable:1.5"],
     "1", "interval needs"),
], ids=["profile-s", "theta-s", "exact-model-c", "simulate-model-c", "theta-cpd-rate",
        "theta-gamma-a", "theta-drift", "subordinator-cpd-jump-mean",
        "profile-interval-b", "simulate-interval-b"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_parameter_is_a_config_error(argv, good, name, bad, tmp_path, capsys):
    """A NaN or infinite parameter stops the run with one config-error
    line that names it and writes no report; the same run with a finite
    value writes a strict JSON report."""
    out = tmp_path / "r.json"
    assert main([a.format(bad) for a in argv] + ["--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and name in err
    assert not out.exists()
    assert main([a.format(good) for a in argv] + ["--out", str(out)]) == 0
    _strict_json(out.read_text())


@pytest.mark.parametrize("family, flags", [("sandwich:1.5", []),
                                           ("exact:junk", ["--model", "stable:2"]),
                                           ("fh:0.3", [])])
def test_family_outside_the_choices_exits_2_before_any_rung(family, flags, tmp_path,
                                                            monkeypatch, capsys):
    """`--family` is `fh` or `exact`; anything else, from the command line
    or a config file (such as a retired `sandwich:alpha,d` record), exits 2
    with one `config error:` line and solves no rung."""
    def unreachable(*args, **kwargs):
        raise AssertionError("a rung was solved")

    monkeypatch.setattr(profiles, "rung_min_energy", unreachable)
    argv = ["profile", "--set", "interval:0,1", "--ladder", "0.05,0.5,5", *flags]
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"command": "profile", "family": family}))
    for run in (argv + ["--family", family], argv + ["--config", str(path)]):
        assert main(run) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: argument --family: invalid choice: "
                              f"{family!r}") and err.count("\n") == 1


def test_config_choice_fails_before_any_rung(tmp_path, monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("a rung was solved")

    monkeypatch.setattr(profiles, "rung_min_energy", unreachable)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"command": "profile", "set": "cantor3",
                                "family": "fh", "s": 1.0,
                                "ladder": [0.1, 0.5, 7], "mode": "bogus"}))
    assert main(["profile", "--config", str(path)]) == EXIT_CONFIG
    assert "argument --mode: invalid choice: 'bogus'" in capsys.readouterr().err


def test_numerical_exit_code(tmp_path, capsys):
    # an unreachable gap target plus a one-iteration budget cannot converge;
    # the report is still written, and a spent budget makes one start
    out = tmp_path / "r.json"
    code = main(["profile", "--set", "interval:0,1", "--family", "fh",
                 "--s", "1.0", "--ladder", "0.1,0.5,3", "--tol", "0",
                 "--max-iter", "1", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    rep = json.loads(out.read_text())
    assert rep["converged"] is False and len(rep["rungs"]) == 3
    for rung in rep["rungs"]:
        assert rung["status"] == "iters" and rung["restarts_used"] == 1
        assert rung["converged"] is False
    err = capsys.readouterr().err
    for k, rung in enumerate(rep["rungs"]):
        assert f"rung {k} (n={rung['n']}) ended with iters" in err


def test_stable_kernel_quadrature_failure_is_one_line():
    # the 0.1-stable kernel's sin-weighted tail rounds its left end to
    # z = 0 and fails: exit 3 with one stderr line, and no numpy warning
    proc = subprocess.run(
        [sys.executable, "-m", "fracdim.cli", "profile", "--set", "interval:0,1",
         "--family", "exact", "--model", "stable:0.1", "--ladder", "0.1,0.5,3"],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_NUMERICAL
    assert proc.stderr.startswith("numerical non-convergence:")
    assert proc.stderr.count("\n") == 1


def test_unconverged_profile_writes_report_and_exits_3(tmp_path, monkeypatch):
    solve = profiles.rung_min_energy

    def unconverged(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.status = "stall"
        return res

    monkeypatch.setattr(profiles, "rung_min_energy", unconverged)
    out = tmp_path / "r.json"
    code = main(["profile", "--set", "interval:0,1", "--family", "fh",
                 "--s", "1.0", "--ladder", "0.1,0.5,3", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    rep = json.loads(out.read_text())
    assert rep["converged"] is False
    assert all(r["status"] == "stall" for r in rep["rungs"])


def test_config_file_roundtrip_and_override(tmp_path, capsys):
    cfg = {"command": "theta", "phi": "stable:0.5", "s": 0.7, "lam_max": 1e10}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "t.json"
    assert main(["theta", "--config", str(path), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert abs(rep["theta"] - (1 - 0.5 / 0.7)) <= 0.02
    # flag overrides the file value
    assert main(["theta", "--config", str(path), "--s", "0.5",
                 "--lam-max", "1e26", "--out", str(out)]) == 0
    rep2 = json.loads(out.read_text())
    assert rep2["s"] == 0.5 and abs(rep2["theta"]) <= 0.02
    # a null field keeps the parser's default
    path.write_text(json.dumps({**cfg, "lam_max": None}))
    assert main(["theta", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["lam_max"] == profiles.THETA_LAM_MAX

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["theta", "--config", str(bad)]) == EXIT_CONFIG
    unknown = tmp_path / "unk.json"
    unknown.write_text(json.dumps({"command": "theta", "wat": 1}))
    assert main(["theta", "--config", str(unknown)]) == EXIT_CONFIG
    # a value of the wrong JSON type is rejected by its flag's name
    wrong = tmp_path / "wrong.json"
    for field, cfg in (
            ("s", {"command": "theta", "phi": "stable:0.5", "s": [0.7]}),
            ("paths", {"command": "simulate", "set": "interval:0,1",
                       "model": "stable:2", "ladder": [0.25, 0.5, 3],
                       "seed": 1, "paths": 2.5}),
            ("restarts", {"command": "profile", "set": "interval:0,1",
                          "family": "fh", "s": 0.5, "ladder": [0.1, 0.5, 3],
                          "restarts": 2.7}),
            # a fractional count, which the flag --ladder 10,4,4.7 rejects too
            ("ladder", {"command": "subordinator", "set": "interval:0,1",
                        "phi": "stable:0.5", "ladder": [10, 4, 4.7]})):
        wrong.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main([cfg["command"], "--config", str(wrong)]) == EXIT_CONFIG
        assert f"argument --{field}:" in capsys.readouterr().err


def test_config_field_outside_command_is_rejected(tmp_path, capsys):
    cfg = {"command": "subordinator", "set": "interval:0,1",
           "phi": "stable:0.5", "ladder": [10, 4, 4]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["subordinator", "--config", str(path)]) == 0
    capsys.readouterr()
    # neither field reaches the closed-form solver
    path.write_text(json.dumps({**cfg, "max_iter": 1, "restarts": 99}))
    assert main(["subordinator", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "max_iter" in err and "restarts" in err
    # a config written for another command
    assert main(["theta", "--config", str(path)]) == EXIT_CONFIG
    assert "subordinator" in capsys.readouterr().err
    # a profile sidecar from before profiles stopped reading 'phi'
    path.write_text(json.dumps({"command": "profile", "set": "interval:0,1",
                                "family": "fh", "s": 0.5, "phi": "",
                                "ladder": [0.1, 0.5, 3]}))
    assert main(["profile", "--config", str(path)]) == EXIT_CONFIG
    assert "phi" in capsys.readouterr().err


_LADDER_RUN = {"command", "set", "ladder", "mode", "out", "csv"}
# the fields of each command's run record
COMMAND_FIELDS = {
    "profile": _LADDER_RUN | {"family", "s", "model", "mesh_ratio",
                              "restarts", "tol", "max_iter", "seed"},
    "subordinator": _LADDER_RUN | {"phi", "tol"},
    "theta": {"command", "phi", "s", "lam_max", "out"},
    "simulate": _LADDER_RUN | {"model", "paths", "seed"},
    "verify": {"command", "suite", "seed", "out"},
    "oracle": {"command", "name", "params", "out"},
}
SIDECAR_RUNS = {
    "profile": ["--set", "finite:0,0.4,1", "--family", "fh", "--s", "0.8",
                "--ladder", "0.1,0.5,3", "--seed", "3"],
    "subordinator": ["--set", "interval:0,1", "--phi", "stable:0.5",
                     "--ladder", "10,4,4"],
    "theta": ["--phi", "stable:0.5", "--s", "0.7"],
    "simulate": ["--set", "interval:0,1", "--model", "subordinator:stable:0.5",
                 "--ladder", "0.25,0.5,5", "--paths", "2", "--seed", "3"],
    "oracle": ["--name", "two-point-energy", "--params", "0.5"],
}


def test_parser_flags_are_command_fields():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert set(sub.choices) == set(COMMAND_FIELDS)
    for name, p in sub.choices.items():
        dests = {a.dest for a in p._actions} - {"help", "config"}
        assert dests | {"command"} == COMMAND_FIELDS[name], name


def test_sidecar_config_feeds_back(tmp_path):
    # the sidecar holds exactly the fields its command reads, and feeding
    # it back with --config reproduces the report
    for command, flags in SIDECAR_RUNS.items():
        out = tmp_path / f"{command}.json"
        assert main([command, *flags, "--out", str(out)]) == 0
        meta = json.loads((tmp_path / f"{command}.json.meta.json").read_text())
        assert set(meta["config"]) == COMMAND_FIELDS[command], command
        sidecar = tmp_path / f"{command}.config.json"
        sidecar.write_text(json.dumps(meta["config"]))
        first = out.read_bytes()
        out.unlink()
        assert main([command, "--config", str(sidecar)]) == 0
        assert out.read_bytes() == first, command


# ---------------------------------------------------------------------------
# commands end to end
# ---------------------------------------------------------------------------

def test_theta_command_prints_prediction(capsys):
    assert main(["theta", "--phi", "stable:0.5", "--s", "0.7"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert abs(rep["theta"] - 0.2857) <= 0.02
    assert abs(rep["predicted_profile"] - 0.5) <= 0.02


def test_profile_command_cantor(tmp_path):
    out = tmp_path / "r.json"
    csv = tmp_path / "r.csv"
    code = main(["profile", "--set", "cantor3", "--family", "fh", "--s", "1.0",
                 "--ladder", "0.1,0.5,8", "--out", str(out), "--csv", str(csv),
                 "--restarts", "2"])
    assert code == 0
    rep = json.loads(out.read_text())
    assert abs(rep["estimate"] - 0.6309) <= 0.05
    assert (tmp_path / "r.json.meta.json").exists()   # timestamps live here
    assert "written_at" not in out.read_text()
    lines = csv.read_text().strip().splitlines()
    assert len(lines) == 9


def test_subordinator_command(tmp_path):
    out = tmp_path / "s.json"
    code = main(["subordinator", "--set", "interval:0,1", "--phi", "stable:0.5",
                 "--ladder", "10,4,6", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert abs(rep["estimate"] - 0.5) <= 0.05
    assert len(rep["rungs"]) == 6
    assert rep["param"] == {"phi": {"family": "stable", "params": {"beta": 0.5}}}
    assert all(r["iterations"] == 0 and r["converged"] for r in rep["rungs"])


def test_simulate_command(tmp_path):
    out = tmp_path / "sim.json"
    csv = tmp_path / "sim.csv"
    code = main(["simulate", "--set", "interval:0,1", "--model",
                 "subordinator:stable:0.5", "--ladder", "0.25,0.5,8",
                 "--paths", "8", "--seed", "3", "--out", str(out),
                 "--csv", str(csv)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert abs(rep["median"] - 0.5) <= 0.2
    assert len(csv.read_text().strip().splitlines()) == 9


def test_simulate_planar_brownian_within_budget(tmp_path):
    # 8 planar Brownian paths of 65,537 points each, counted at 5 radii:
    # occupied grid cells make this well under a second
    out = tmp_path / "sim.json"
    t0 = time.perf_counter()
    assert main(["simulate", "--set", "interval:0,1", "--model", "stable:2,1,2",
                 "--ladder", "0.25,0.5,5", "--paths", "8", "--seed", "1",
                 "--out", str(out)]) == 0
    assert time.perf_counter() - t0 < 5.0
    rep = json.loads(out.read_text())
    assert abs(rep["median"] - 2.0) <= 0.4


def test_simulate_mode_from_config(tmp_path):
    cfg = {"command": "simulate", "set": "interval:0,1",
           "model": "subordinator:stable:0.5", "ladder": [0.25, 0.5, 5],
           "paths": 2, "seed": 3, "mode": "least_squares"}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "sim.json"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["mode"] == "least_squares"
    assert main(["simulate", "--config", str(path), "--mode", "lower",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["mode"] == "lower"


def test_oracle_command(capsys):
    assert main(["oracle", "--name", "two-point-energy", "--params", "0.5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["value"] == 0.75
    assert main(["oracle", "--name", "cantor-capacity", "--params", "3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["value"] == 16
    assert main(["oracle", "--name", "cantor-exp-min-energy", "--params", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 1.0
    # an omitted trailing parameter takes the oracle's default
    assert main(["oracle", "--name", "interval-capacity", "--params", "0.25"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["args"] == {"r": 0.25, "length": 1.0} and rep["value"] == 5


def _readme_cli_examples():
    """The `fracdim ...` commands of the README's CLI block, one argv each."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("fracdim ")]


def test_readme_family_list_is_the_parsers_choices():
    """README's `profile --family takes ...` sentence names exactly the
    parser's choices, which `fracdim profile --help` lists."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"`profile --family` takes (.+?)\.", " ".join(text.split()))
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    profile = sub.choices["profile"]
    family = next(a for a in profile._actions if a.dest == "family")
    assert re.findall(r"`([^`]+)`", sentence.group(1)) == list(family.choices)
    assert "--family {fh,exact}" in profile.format_help()


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch, capsys):
    """Each example exits 0 and writes a strict JSON report, to its
    `--out` file or to stdout."""
    examples = _readme_cli_examples()
    assert len(examples) == 7
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        if argv[:3] == ["verify", "--suite", "full"]:
            continue
        assert main(argv) == 0, argv
        stdout = capsys.readouterr().out
        out = argv[argv.index("--out") + 1] if "--out" in argv else None
        _strict_json(stdout if out is None else (tmp_path / out).read_text())


def test_profile_report_byte_deterministic(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["profile", "--set", "finite:0,0.4,1", "--family", "fh",
                     "--s", "0.8", "--ladder", "0.1,0.5,5", "--seed", "3",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
