"""Experiment runner: profiles, subordinator criteria, theta indices,
path simulations, the verification suite, and closed-form oracles.

A run is a flat record: the namespace its command's subparser returns.
Each flag is a field whose default is the library's own value.  A
`--config` JSON file may set any of those fields, flags override file
values, and a field the command's parser does not declare is a
validation error.  Reports are byte-deterministic given (config, seed)
and the BLAS thread count: keys are sorted, floats go through repr, and
wall clocks live in a `.meta.json` sidecar, never in the report body.
The sidecar's `config` is the run record, loadable with `--config`.

Exit codes: 0 success, 2 validation error, 3 numerical non-convergence
or a failed optimality certificate; a profile with an unconverged rung
writes its report and exits 3.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time

from . import oracles
from .energy_min import DEFAULT_MAX_ITER, DEFAULT_RESTARTS, DEFAULT_TOL
from .errors import (FracdimError, MaxIterExceeded, MeshTooFine,
                     NetTooLarge, NonConvergedQuadrature, TooLarge)
from .process_models import KernelFamily, LaplaceExponent, LevyModel
from .profiles import (MESH_RATIO, THETA_LAM_MAX, box_profile,
                       fh_subordinator_predicted, subordinator_box_dim,
                       theta_index)
from .set_models import CompactSet
from .simulate import image_dim_experiment
from .utils import geometric_ladder
from .verify import report_bytes, run_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


def load_config(ap: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """The run record: the parsed flags over the `--config` file's values
    over the parser's defaults.  A file may set only the fields its
    command's parser declares."""
    ns = ap.parse_args(argv)
    if not ns.config:
        return ns
    with open(ns.config, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("config file must hold one JSON object")
    if data.get("command", ns.command) != ns.command:
        raise ConfigError(f"config file is for command {data['command']!r}, "
                          f"not {ns.command!r}")
    unused = set(data) - (set(vars(ns)) - {"config"})
    if unused:
        raise ConfigError(f"fields not read by {ns.command!r}: {sorted(unused)}")
    sub = next(a for a in ap._actions if a.dest == "command")
    parser = sub.choices[ns.command]
    for action in parser._actions:
        if action.dest in data:
            _check_type(action, data[action.dest])
    parser.set_defaults(**data)
    return ap.parse_args(argv)


def _check_type(action: argparse.Action, value) -> None:
    """A file value must have the JSON type its flag parses to.  A string
    for a one-value flag goes through the flag's `type`, as argparse does
    for string defaults; null stands for a default of None."""
    if (isinstance(value, str) and action.nargs is None
            or value is None and action.default is None):
        return
    ok, want = False, "a string"
    if action.type is float:
        ok, want = _is_number(value), "a number"
    elif action.type is int:
        ok, want = _is_number(value) and isinstance(value, int), "an integer"
    elif action.type is _ladder:
        ok = (isinstance(value, list) and len(value) == 3
              and all(map(_is_number, value)) and isinstance(value[2], int))
        want = "[start, ratio, count] with an integer count"
    elif action.nargs == "*":
        ok, want = isinstance(value, list), "a list"
    if not ok:
        raise ConfigError(f"field {action.dest!r} must be {want}, not {value!r}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate(cfg: argparse.Namespace) -> None:
    if cfg.command in ("profile", "subordinator", "simulate"):
        if not cfg.set:
            raise ConfigError("field 'set' is required")
        if len(cfg.ladder) != 3:
            raise ConfigError("field 'ladder' must be [start, ratio, count]")
        start, ratio, count = cfg.ladder
        if int(count) < 3:
            raise ConfigError("ladder count must be >= 3")
        if start <= 0 or ratio <= 0:
            raise ConfigError("ladder start and ratio must be positive")
        if cfg.command == "subordinator":
            if ratio <= 1:
                raise ConfigError("lam ladders need ratio > 1")
        elif ratio >= 1:
            raise ConfigError("eps/r ladders need ratio in (0, 1)")
    if cfg.command == "simulate" and cfg.seed is None:
        raise ConfigError("field 'seed' is required for stochastic commands")
    if cfg.command == "profile" and not cfg.family:
        raise ConfigError("field 'family' is required")
    if cfg.command in ("subordinator", "theta") and not cfg.phi:
        raise ConfigError("field 'phi' is required")
    if cfg.command == "theta" and cfg.s is None:
        raise ConfigError("field 's' is required")
    if cfg.command == "verify" and cfg.suite not in ("fast", "full"):
        raise ConfigError("suite must be 'fast' or 'full'")
    if cfg.command == "oracle" and cfg.name not in oracles.NAMED_ORACLES:
        raise ConfigError(
            f"unknown oracle {cfg.name!r}; known: {sorted(oracles.NAMED_ORACLES)}")


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
        return LevyModel.subordinate_brownian(parse_phi(phi_desc), int(dim))
    raise ConfigError(f"unknown model descriptor {desc!r}")


def parse_family(cfg: argparse.Namespace) -> KernelFamily:
    """The kernel family of a profile run; --s and --model are errors
    where the family does not read them."""
    kind, colon, rest = cfg.family.partition(":")
    if cfg.s is not None and kind != "fh":
        raise ConfigError(f"family {kind!r} does not read --s")
    if cfg.model and kind != "exact":
        raise ConfigError(f"family {kind!r} does not read --model")
    if kind == "fh":
        if colon or cfg.s is None:
            raise ConfigError("family 'fh' takes s from --s alone")
        return KernelFamily.fh(cfg.s)
    if kind == "sandwich":
        parts = [float(x) for x in rest.split(",")]
        return KernelFamily.stable_sandwich(
            parts[0], _dimension(parts[1]) if len(parts) > 1 else 1)
    if kind == "exact":
        if not cfg.model:
            raise ConfigError("family 'exact' needs --model")
        return KernelFamily.exact(parse_model(cfg.model), seed=cfg.seed or 0)
    raise ConfigError(f"unknown kernel family {cfg.family!r}")


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

def cmd_profile(cfg: argparse.Namespace) -> int:
    cset = parse_set(cfg.set)
    family = parse_family(cfg)
    start, ratio, count = cfg.ladder
    eps = geometric_ladder(float(start), float(ratio), int(count))
    rep = box_profile(cset, family, eps, tol=cfg.tol, mode=cfg.mode,
                      mesh_ratio=cfg.mesh_ratio, restarts=cfg.restarts,
                      seed=cfg.seed or 0, max_iter=cfg.max_iter)
    _emit(rep.to_json_dict(), cfg)
    if cfg.csv:
        rep.write_csv(cfg.csv)
    if not rep.converged:
        sys.stderr.write("numerical non-convergence: a rung missed its gap test\n")
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_subordinator(cfg: argparse.Namespace) -> int:
    cset = parse_set(cfg.set)
    phi = parse_phi(cfg.phi)
    start, ratio, count = cfg.ladder
    lam = geometric_ladder(float(start), float(ratio), int(count))
    rep = subordinator_box_dim(phi, cset, lam, tol=cfg.tol, mode=cfg.mode)
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
    start, ratio, count = cfg.ladder
    r = geometric_ladder(float(start), float(ratio), int(count))
    exp = image_dim_experiment(model, cset, cfg.paths, r, seed=cfg.seed,
                               mode=cfg.mode)
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

def _add_common(p: argparse.ArgumentParser, csv: bool, seed: bool) -> None:
    p.add_argument("--config", help="flat JSON config file; flags override it")
    p.add_argument("--out", default="", help="write the JSON report here")
    if csv:
        p.add_argument("--csv", default="",
                       help="write ladder/experiment rows as CSV here")
    if seed:
        p.add_argument("--seed", type=int)


def _add_ladder_run(p: argparse.ArgumentParser, ratio: str) -> None:
    p.add_argument("--set", default="")
    p.add_argument("--ladder", type=_ladder, default=[],
                   help=f"start,ratio,count (ratio {ratio})")
    p.add_argument("--mode", choices=("least_squares", "upper", "lower"),
                   default="upper")


def _ladder(text: str) -> list:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("ladder must be start,ratio,count")
    return [float(parts[0]), float(parts[1]), int(parts[2])]


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command; its flags and their defaults are the
    fields of that command's run record."""
    ap = argparse.ArgumentParser(
        prog="fracdim",
        description="dimension profiles of compact sets under Levy kernels")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="box-dimension profile of a set")
    _add_ladder_run(p, "< 1")
    p.add_argument("--family", default="",
                   help="fh | sandwich:alpha[,d] | exact")
    p.add_argument("--s", type=float)
    p.add_argument("--model", default="")
    p.add_argument("--mesh-ratio", dest="mesh_ratio", type=float,
                   default=MESH_RATIO)
    p.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS,
                   help="up to n Frank-Wolfe starts per rung; more than one "
                        "only if the first does not converge")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-iter", dest="max_iter", type=int,
                   default=DEFAULT_MAX_ITER)
    _add_common(p, csv=True, seed=True)

    p = sub.add_parser("subordinator", help="growth exponent of 1/Z(lam)")
    _add_ladder_run(p, "> 1")
    p.add_argument("--phi", default="")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_common(p, csv=True, seed=False)

    p = sub.add_parser("theta", help="theta index of a Laplace exponent")
    p.add_argument("--phi", default="")
    p.add_argument("--s", type=float)
    p.add_argument("--lam-max", dest="lam_max", type=float,
                   default=THETA_LAM_MAX)
    _add_common(p, csv=False, seed=False)

    p = sub.add_parser("simulate", help="box-count simulated image clouds")
    _add_ladder_run(p, "< 1")
    p.add_argument("--model", default="",
                   help="stable:a[,c[,d]] | subordinator:<phi> | subbrownian:<phi>,d")
    p.add_argument("--paths", type=int, default=32)
    _add_common(p, csv=True, seed=True)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--suite", choices=("fast", "full"), default="fast")
    _add_common(p, csv=False, seed=True)

    p = sub.add_parser("oracle", help="closed-form reference values")
    p.add_argument("--name", default="")
    p.add_argument("--params", nargs="*", default=[])
    _add_common(p, csv=False, seed=False)
    return ap


def main(argv=None) -> int:
    try:
        cfg = load_config(build_parser(), argv)
        validate(cfg)
    except (ConfigError, OSError, json.JSONDecodeError, TypeError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    try:
        return COMMANDS[cfg.command](cfg)
    except (NonConvergedQuadrature, MaxIterExceeded) as exc:
        sys.stderr.write(f"numerical non-convergence: {exc}\n")
        return EXIT_NUMERICAL
    except (MeshTooFine, NetTooLarge, TooLarge, ConfigError, ValueError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except FracdimError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
