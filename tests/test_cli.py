"""Command-line runner: parsing, exit codes, determinism, artifacts."""

import json
import subprocess
import sys

import pytest

from fracdim.cli import (EXIT_CONFIG, EXIT_NUMERICAL, build_parser, main,
                         parse_family, parse_model, parse_phi, parse_set)


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "fracdim.cli", *args],
                          capture_output=True, text=True)
    return proc


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
        return build_parser().parse_args(["profile", *flags])

    with pytest.raises(Exception):
        parse_family(record("--family", "fh"))
    assert parse_family(record("--family", "fh", "--s", "1.0")).kind == "fh"
    assert parse_family(record("--family", "sandwich:0.8,1")).kind == "sandwich"


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
    fh = ["profile", "--set", "interval:0,1", "--family", "fh", "--s", "0.5",
          "--ladder", "0.1,0.5,3"]
    assert main(fh + ["--mesh-ratio", "0"]) == EXIT_CONFIG
    assert main(fh + ["--restarts", "0"]) == EXIT_CONFIG
    assert main(fh + ["--tol", "-1"]) == EXIT_CONFIG
    assert main(fh + ["--max-iter", "0"]) == EXIT_CONFIG
    # solver settings are checked even where the closed form ignores them
    assert main(["profile", "--set", "interval:0,1", "--family", "subexp",
                 "--phi", "stable:0.5", "--ladder", "0.1,0.5,3",
                 "--restarts", "0"]) == EXIT_CONFIG
    assert main(["theta", "--phi", "stable:0.5", "--s", "0.7",
                 "--lam-max", "inf"]) == EXIT_CONFIG
    assert main(["subordinator", "--set", "interval:0,1", "--phi", "stable:0.5",
                 "--ladder", "10,4,3", "--tol", "-1"]) == EXIT_CONFIG
    # oracle parameters that do not fit the oracle
    assert main(["oracle", "--name", "two-point-energy"]) == EXIT_CONFIG
    assert main(["oracle", "--name", "interval-capacity", "--params", "0"]) == EXIT_CONFIG


def test_numerical_exit_code(tmp_path):
    # an unreachable gap target plus a one-iteration budget cannot converge
    out = tmp_path / "r.json"
    code = main(["profile", "--set", "interval:0,1", "--family", "fh",
                 "--s", "1.0", "--ladder", "0.1,0.5,3", "--tol", "0",
                 "--max-iter", "1", "--out", str(out)])
    assert code == EXIT_NUMERICAL


def test_config_file_roundtrip_and_override(tmp_path):
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

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["theta", "--config", str(bad)]) == EXIT_CONFIG
    unknown = tmp_path / "unk.json"
    unknown.write_text(json.dumps({"command": "theta", "wat": 1}))
    assert main(["theta", "--config", str(unknown)]) == EXIT_CONFIG


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


_LADDER_RUN = {"command", "set", "ladder", "mode", "out", "csv"}
# the fields of each command's run record
COMMAND_FIELDS = {
    "profile": _LADDER_RUN | {"family", "s", "phi", "model", "mesh_ratio",
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


def test_profile_report_byte_deterministic(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["profile", "--set", "finite:0,0.4,1", "--family", "fh",
                     "--s", "0.8", "--ladder", "0.1,0.5,5", "--seed", "3",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_verify_fast_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
    p1 = run_cli("verify", "--suite", "fast", "--seed", "0", "--out", str(out1))
    p2 = run_cli("verify", "--suite", "fast", "--seed", "0", "--out", str(out2))
    assert p1.returncode == 0, p1.stderr
    assert p2.returncode == 0, p2.stderr
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["all_passed"] and report["suite"] == "fast"
    assert all(line.startswith("[PASS]") for line in p1.stderr.strip().splitlines())
