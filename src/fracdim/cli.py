"""Experiment runner: profiles, subordinator criteria, theta indices,
path simulations, the verification suite, and closed-form oracles.

A run is a flat record: the namespace its command's subparser returns.
Each flag is a field whose default is the library's own value.  A
`--config` JSON file may set any of those fields: they are parsed as
flags ahead of the command line's, so flags override file values, and a
field the command's parser does not declare is a validation error.
Reports are byte-deterministic given (config, seed) and the BLAS thread
count: keys are sorted, floats go through repr, and wall clocks live in
a `.meta.json` sidecar, never in the report body.
The sidecar's `config` is the run record, loadable with `--config`.

Exit codes: 0 success, 1 a failing `verify` criterion, 2 validation
error, 3 numerical non-convergence or a failed optimality certificate.
A profile with an unconverged rung writes its report, names each such
rung on stderr and exits 3.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time

import numpy as np

from . import oracles
from .energy_min import DEFAULT_MAX_ITER, DEFAULT_RESTARTS, DEFAULT_TOL
from .errors import (FracdimError, MeshTooFine, NetTooLarge,
                     NonConvergedQuadrature, TooLarge)
from .process_models import KernelFamily, LaplaceExponent, LevyModel
from .profiles import (MESH_RATIO, THETA_LAM_MAX, box_profile,
                       fh_subordinator_predicted, subordinator_box_dim,
                       theta_index)
from .set_models import CompactSet
from .simulate import image_dim_experiment
from .verify import report_bytes, run_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """A parse error raises ConfigError, which `main` reports in one line
    with exit code 2."""

    def error(self, message):
        raise ConfigError(message)


def load_config(ap: argparse.ArgumentParser, argv=None) -> argparse.Namespace:
    """The run record.  The fields of a `--config` file are read as flags
    placed before the command line's own, so the parser checks both
    alike and a flag on the command line overrides the file (the last
    flag wins).  A file may set only the fields its command's parser
    declares; a null field keeps the default."""
    argv = sys.argv[1:] if argv is None else list(argv)
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    sub = next(a for a in ap._actions if a.dest == "command")
    if not path or argv[0] not in sub.choices:
        return ap.parse_args(argv)
    command = argv[0]
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("config file must hold one JSON object")
    if data.get("command", command) != command:
        raise ConfigError(f"config file is for command {data['command']!r}, "
                          f"not {command!r}")
    fields = {a.dest: a for a in sub.choices[command]._actions
              if a.dest not in ("help", "config")}
    unused = set(data) - set(fields) - {"command"}
    if unused:
        raise ConfigError(f"fields not read by {command!r}: {sorted(unused)}")
    tokens = []
    for dest, value in data.items():
        action = fields.get(dest)                # None for "command"
        if action is None or value is None:
            continue
        flag = action.option_strings[0]
        if action.nargs == "*" and isinstance(value, list):
            tokens += [flag, *map(str, value)]
        elif action.type is _ladder and isinstance(value, list):
            tokens.append(f"{flag}={','.join(map(str, value))}")
        elif isinstance(value, (list, dict)):
            raise ConfigError(f"argument {flag}: expected one value, not {value!r}")
        else:
            tokens.append(f"{flag}={value}")
    return ap.parse_args([command, *tokens, *argv[1:]])


# ---------------------------------------------------------------------------
# descriptor parsing
# ---------------------------------------------------------------------------

def parse_set(desc: str) -> CompactSet:
    kind, _, rest = desc.partition(":")
    if kind == "interval":
        a, b = (float(x) for x in rest.split(","))
        return CompactSet.interval(a, b)
    if kind == "cantor3":
        return CompactSet.cantor()
    if kind == "cantor":
        return CompactSet.cantor(float(rest))
    if kind == "finite":
        return CompactSet.finite([float(x) for x in rest.split(",")])
    if kind == "point":
        return CompactSet.finite([float(rest)])
    raise ConfigError(f"unknown set descriptor {desc!r}")


def parse_phi(desc: str) -> LaplaceExponent:
    kind, _, rest = desc.partition(":")
    if kind == "stable":
        return LaplaceExponent.stable(float(rest))
    if kind == "gamma":
        a, b = (float(x) for x in rest.split(","))
        return LaplaceExponent.gamma(a, b)
    if kind == "cpd":
        rate, mean, drift = (float(x) for x in rest.split(","))
        return LaplaceExponent.compound_poisson_drift(rate, mean, drift)
    if kind == "drift":
        return LaplaceExponent.compound_poisson_drift(0.0, 1.0, float(rest))
    raise ConfigError(f"unknown Laplace exponent descriptor {desc!r}")


def _dimension(x: float) -> int:
    if not x.is_integer():
        raise ConfigError(f"dimension must be an integer, got {x!r}")
    return int(x)


def parse_model(desc: str) -> LevyModel:
    kind, _, rest = desc.partition(":")
    if kind == "stable":
        parts = [float(x) for x in rest.split(",")]
        alpha = parts[0]
        c = parts[1] if len(parts) > 1 else 1.0
        d = _dimension(parts[2]) if len(parts) > 2 else 1
        return LevyModel.isotropic_stable(alpha, c, d)
    if kind == "subordinator":
        return LevyModel.subordinator(parse_phi(rest))
    if kind == "subbrownian":
        phi_desc, _, dim = rest.rpartition(",")
        return LevyModel.subordinate_brownian(parse_phi(phi_desc),
                                              _dimension(float(dim)))
    raise ConfigError(f"unknown model descriptor {desc!r}")


def parse_family(cfg: argparse.Namespace) -> KernelFamily:
    """The kernel family of a profile run, `fh` or `exact`: each needs its
    own flag, --s or --model, and refuses the other's."""
    if cfg.family == "fh":
        if cfg.model:
            raise ConfigError("family 'fh' does not read --model")
        if cfg.s is None:
            raise ConfigError("family 'fh' needs --s")
        return KernelFamily.fh(cfg.s)
    if cfg.s is not None:
        raise ConfigError("family 'exact' does not read --s")
    if not cfg.model:
        raise ConfigError("family 'exact' needs --model")
    return KernelFamily.exact(parse_model(cfg.model), seed=cfg.seed or 0)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _emit(report: dict, cfg: argparse.Namespace) -> None:
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        with open(cfg.out + ".meta.json", "w", encoding="utf-8") as fh:
            json.dump({"written_at_unix": time.time(),
                       "config": {k: v for k, v in vars(cfg).items()
                                  if k != "config"}}, fh, sort_keys=True, indent=2)
            fh.write("\n")
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _scales(cfg: argparse.Namespace, grow: bool):
    """The run's ladder: lam ladders grow (ratio > 1), eps and r ladders
    shrink (ratio < 1)."""
    start, ratio, count = cfg.ladder
    if not (ratio > 1 if grow else ratio < 1):
        raise ConfigError(f"{'lam' if grow else 'eps/r'} ladders need ratio "
                          f"{'> 1' if grow else 'in (0, 1)'}")
    return start * ratio ** np.arange(count, dtype=float)


def cmd_profile(cfg: argparse.Namespace) -> int:
    cset = parse_set(cfg.set)
    family = parse_family(cfg)
    rep = box_profile(cset, family, _scales(cfg, grow=False), tol=cfg.tol,
                      mode=cfg.mode, mesh_ratio=cfg.mesh_ratio,
                      restarts=cfg.restarts, seed=cfg.seed or 0,
                      max_iter=cfg.max_iter)
    _emit(rep.to_json_dict(), cfg)
    if cfg.csv:
        rep.write_csv(cfg.csv)
    missed = [f"rung {k} (n={r['n']}) ended with {r['status']}"
              for k, r in enumerate(rep.rungs) if not r["converged"]]
    if missed:
        sys.stderr.write(f"numerical non-convergence: {'; '.join(missed)}\n")
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_subordinator(cfg: argparse.Namespace) -> int:
    cset = parse_set(cfg.set)
    phi = parse_phi(cfg.phi)
    rep = subordinator_box_dim(phi, cset, _scales(cfg, grow=True), tol=cfg.tol,
                               mode=cfg.mode)
    _emit(rep.to_json_dict(), cfg)
    if cfg.csv:
        rep.write_csv(cfg.csv)
    return EXIT_OK


def cmd_theta(cfg: argparse.Namespace) -> int:
    phi = parse_phi(cfg.phi)
    th = theta_index(phi, cfg.s, lam_max=cfg.lam_max)
    pred = fh_subordinator_predicted(phi, cfg.s, lam_max=cfg.lam_max)
    _emit({"phi": phi.to_config(), "s": cfg.s, "lam_max": cfg.lam_max,
           "theta": th, "predicted_profile": pred}, cfg)
    return EXIT_OK


def cmd_simulate(cfg: argparse.Namespace) -> int:
    cset = parse_set(cfg.set)
    model = parse_model(cfg.model)
    exp = image_dim_experiment(model, cset, cfg.paths, _scales(cfg, grow=False),
                               seed=cfg.seed, mode=cfg.mode)
    _emit(exp.to_json_dict(), cfg)
    if cfg.csv:
        exp.write_csv(cfg.csv)
    return EXIT_OK


def cmd_verify(cfg: argparse.Namespace) -> int:
    report = run_suite(cfg.suite, seed=cfg.seed or 0)
    for crit in report["criteria"]:
        status = "PASS" if crit["passed"] else "FAIL"
        sys.stderr.write(f"[{status}] {crit['id']}: {crit['name']}\n")
    if cfg.out:
        with open(cfg.out, "wb") as fh:
            fh.write(report_bytes(report))
    else:
        sys.stdout.buffer.write(report_bytes(report))
    return EXIT_OK if report["all_passed"] else 1


def cmd_oracle(cfg: argparse.Namespace) -> int:
    """Parameters bind to the oracle's signature in order; omitted trailing
    ones take the signature's defaults."""
    fn = oracles.NAMED_ORACLES[cfg.name]
    args = [float(p) for p in cfg.params]
    try:
        bound = inspect.signature(fn).bind(*args)
        bound.apply_defaults()
        value = fn(*bound.args)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"oracle {cfg.name!r}: {exc}") from exc
    _emit({"oracle": cfg.name, "args": dict(bound.arguments),
           "value": value}, cfg)
    return EXIT_OK


COMMANDS = {
    "profile": cmd_profile,
    "subordinator": cmd_subordinator,
    "theta": cmd_theta,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, csv: bool) -> None:
    p.add_argument("--config", help="flat JSON config file; flags override it")
    p.add_argument("--out", default="", help="write the JSON report here")
    if csv:
        p.add_argument("--csv", default="",
                       help="write ladder/experiment rows as CSV here")


def _add_ladder_run(p: argparse.ArgumentParser, ratio: str) -> None:
    p.add_argument("--set", required=True)
    p.add_argument("--ladder", type=_ladder, required=True,
                   help=f"start,ratio,count (ratio {ratio})")
    p.add_argument("--mode", choices=("least_squares", "upper", "lower"),
                   default="upper")


def _ladder(text: str) -> list:
    try:
        start, ratio, count = text.split(",")
        start, ratio, count = float(start), float(ratio), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"ladder must be start,ratio,count with an integer count, "
            f"not {text!r}") from None
    if not (start > 0 and ratio > 0 and count >= 3):
        raise argparse.ArgumentTypeError(
            f"ladder needs start > 0, ratio > 0 and count >= 3, not {text!r}")
    return [start, ratio, count]


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command; its flags and their defaults are the
    fields of that command's run record."""
    ap = _Parser(prog="fracdim",
                 description="dimension profiles of compact sets under Levy kernels")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="box-dimension profile of a set")
    _add_ladder_run(p, "< 1")
    p.add_argument("--family", choices=("fh", "exact"), required=True)
    p.add_argument("--s", type=float)
    p.add_argument("--model", default="")
    p.add_argument("--mesh-ratio", dest="mesh_ratio", type=float,
                   default=MESH_RATIO)
    p.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS,
                   help="up to n Frank-Wolfe starts per rung; more than one "
                        "only if the first stalls")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-iter", dest="max_iter", type=int,
                   default=DEFAULT_MAX_ITER)
    p.add_argument("--seed", type=int)
    _add_common(p, csv=True)

    p = sub.add_parser("subordinator", help="growth exponent of 1/Z(lam)")
    _add_ladder_run(p, "> 1")
    p.add_argument("--phi", required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_common(p, csv=True)

    p = sub.add_parser("theta", help="theta index of a Laplace exponent")
    p.add_argument("--phi", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--lam-max", dest="lam_max", type=float,
                   default=THETA_LAM_MAX)
    _add_common(p, csv=False)

    p = sub.add_parser("simulate", help="box-count simulated image clouds")
    _add_ladder_run(p, "< 1")
    p.add_argument("--model", required=True,
                   help="stable:a[,c[,d]] | subordinator:<phi> | subbrownian:<phi>,d")
    p.add_argument("--paths", type=int, default=32)
    p.add_argument("--seed", type=int, required=True)
    _add_common(p, csv=True)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--suite", choices=("fast", "full"), default="fast")
    p.add_argument("--seed", type=int)
    _add_common(p, csv=False)

    p = sub.add_parser("oracle", help="closed-form reference values")
    p.add_argument("--name", choices=sorted(oracles.NAMED_ORACLES), required=True)
    p.add_argument("--params", nargs="*", default=[])
    _add_common(p, csv=False)
    return ap


def main(argv=None) -> int:
    try:
        cfg = load_config(build_parser(), argv)
        return COMMANDS[cfg.command](cfg)
    except NonConvergedQuadrature as exc:
        sys.stderr.write(f"numerical non-convergence: {exc}\n")
        return EXIT_NUMERICAL
    except (MeshTooFine, NetTooLarge, TooLarge, ValueError, OSError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except FracdimError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
