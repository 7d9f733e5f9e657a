"""Experiment runner: profiles, subordinator criteria, theta indices,
path simulations, the verification suite, and closed-form oracles.

Configuration is a flat JSON record; every flag corresponds to a config
field and flags override file values.  A field its command does not read
(COMMAND_FIELDS) is a validation error.  Reports are byte-deterministic
given (config, seed) and the BLAS thread count: keys are sorted, floats go
through repr, and wall clocks live in a `.meta.json` sidecar, never in the
report body.

Exit codes: 0 success, 2 validation error, 3 numerical non-convergence
or a failed optimality certificate.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from dataclasses import dataclass, field

from . import oracles
from .errors import (FracdimError, MaxIterExceeded, MeshTooFine,
                     NetTooLarge, NonConvergedQuadrature, TooLarge)
from .process_models import KernelFamily, LaplaceExponent, LevyModel
from .profiles import (box_profile, fh_subordinator_predicted,
                       subordinator_box_dim, theta_index)
from .set_models import CompactSet
from .simulate import image_dim_experiment
from .utils import geometric_ladder
from .verify import report_bytes, run_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


# the RunConfig fields each command reads; a config file or flag setting
# any other field is an error, not a silent no-op
_LADDER_RUN = {"command", "set", "ladder", "mode", "out", "csv"}
COMMAND_FIELDS = {
    "profile": _LADDER_RUN | {"family", "s", "phi", "model", "mesh_ratio",
                              "restarts", "tol", "max_iter", "seed"},
    "subordinator": _LADDER_RUN | {"phi", "tol"},
    "theta": {"command", "phi", "s", "lam_max", "out"},
    "simulate": _LADDER_RUN | {"model", "paths", "seed"},
    "verify": {"command", "suite", "seed", "out"},
    "oracle": {"command", "name", "params", "out"},
}


@dataclass
class RunConfig:
    """Flat, JSON-serializable description of one run."""

    command: str = ""
    set: str = ""
    family: str = ""
    s: float | None = None
    phi: str = ""
    model: str = ""
    ladder: list = field(default_factory=list)   # [start, ratio, count]
    mode: str = "upper"
    mesh_ratio: float = 10.0
    restarts: int = 4
    tol: float = 1e-6
    max_iter: int = 200_000
    lam_max: float = 1e8
    paths: int = 32
    seed: int | None = None
    suite: str = "fast"
    name: str = ""
    params: list = field(default_factory=list)
    out: str = ""
    csv: str = ""

    @classmethod
    def load(cls, path: str | None, overrides: dict) -> "RunConfig":
        """File values, then non-None flag values; every field set must be
        one its command reads (COMMAND_FIELDS)."""
        data = {}
        if path:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ConfigError("config file must hold one JSON object")
        command = overrides.get("command") or data.get("command", "")
        if data.get("command", command) != command:
            raise ConfigError(f"config file is for command {data['command']!r}, "
                              f"not {command!r}")
        if command not in COMMAND_FIELDS:
            raise ConfigError(f"unknown command {command!r}")
        data.update({k: v for k, v in overrides.items() if v is not None})
        unused = set(data) - COMMAND_FIELDS[command]
        if unused:
            raise ConfigError(f"fields not read by {command!r}: {sorted(unused)}")
        return cls(**data)

    def to_dict(self) -> dict:
        """The fields this run's command reads; loadable as a config file."""
        return {name: getattr(self, name)
                for name in sorted(COMMAND_FIELDS[self.command])}

    def validate(self) -> None:
        if self.command in ("profile", "subordinator", "simulate"):
            if not self.set:
                raise ConfigError("field 'set' is required")
            if len(self.ladder) != 3:
                raise ConfigError("field 'ladder' must be [start, ratio, count]")
            start, ratio, count = self.ladder
            if int(count) < 3:
                raise ConfigError("ladder count must be >= 3")
            if start <= 0 or ratio <= 0:
                raise ConfigError("ladder start and ratio must be positive")
            if self.command == "subordinator":
                if ratio <= 1:
                    raise ConfigError("lam ladders need ratio > 1")
            elif ratio >= 1:
                raise ConfigError("eps/r ladders need ratio in (0, 1)")
        if self.command == "simulate" and self.seed is None:
            raise ConfigError("field 'seed' is required for stochastic commands")
        if self.command == "profile" and not self.family:
            raise ConfigError("field 'family' is required")
        if self.command in ("subordinator", "theta") and not self.phi:
            raise ConfigError("field 'phi' is required")
        if self.command == "theta" and self.s is None:
            raise ConfigError("field 's' is required")
        if self.command == "verify" and self.suite not in ("fast", "full"):
            raise ConfigError("suite must be 'fast' or 'full'")
        if self.command == "oracle" and self.name not in oracles.NAMED_ORACLES:
            raise ConfigError(
                f"unknown oracle {self.name!r}; known: {sorted(oracles.NAMED_ORACLES)}")


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


def parse_model(desc: str) -> LevyModel:
    kind, _, rest = desc.partition(":")
    if kind == "stable":
        parts = [float(x) for x in rest.split(",")]
        alpha = parts[0]
        c = parts[1] if len(parts) > 1 else 1.0
        d = int(parts[2]) if len(parts) > 2 else 1
        return LevyModel.isotropic_stable(alpha, c, d)
    if kind == "subordinator":
        return LevyModel.subordinator(parse_phi(rest))
    if kind == "subbrownian":
        phi_desc, _, dim = rest.rpartition(",")
        return LevyModel.subordinate_brownian(parse_phi(phi_desc), int(dim))
    raise ConfigError(f"unknown model descriptor {desc!r}")


def parse_family(cfg: RunConfig) -> KernelFamily:
    kind, _, rest = cfg.family.partition(":")
    if kind == "fh":
        s = cfg.s if cfg.s is not None else (float(rest) if rest else None)
        if s is None:
            raise ConfigError("family 'fh' needs --s")
        return KernelFamily.fh(s)
    if kind == "sandwich":
        parts = [float(x) for x in rest.split(",")]
        return KernelFamily.stable_sandwich(parts[0],
                                            int(parts[1]) if len(parts) > 1 else 1)
    if kind == "subexp":
        if not cfg.phi:
            raise ConfigError("family 'subexp' needs --phi")
        return KernelFamily.subordinator_exp(parse_phi(cfg.phi))
    if kind == "exact":
        if not cfg.model:
            raise ConfigError("family 'exact' needs --model")
        return KernelFamily.exact(parse_model(cfg.model),
                                  seed=cfg.seed if cfg.seed is not None else 0)
    raise ConfigError(f"unknown kernel family {cfg.family!r}")


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _emit(report: dict, cfg: RunConfig) -> None:
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        with open(cfg.out + ".meta.json", "w", encoding="utf-8") as fh:
            json.dump({"written_at_unix": time.time(),
                       "config": cfg.to_dict()}, fh, sort_keys=True, indent=2)
            fh.write("\n")
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_profile(cfg: RunConfig) -> int:
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
    return EXIT_OK


def cmd_subordinator(cfg: RunConfig) -> int:
    cset = parse_set(cfg.set)
    phi = parse_phi(cfg.phi)
    start, ratio, count = cfg.ladder
    lam = geometric_ladder(float(start), float(ratio), int(count))
    rep = subordinator_box_dim(phi, cset, lam, tol=cfg.tol, mode=cfg.mode)
    _emit(rep.to_json_dict(), cfg)
    if cfg.csv:
        rep.write_csv(cfg.csv)
    return EXIT_OK


def cmd_theta(cfg: RunConfig) -> int:
    phi = parse_phi(cfg.phi)
    th = theta_index(phi, cfg.s, lam_max=cfg.lam_max)
    pred = fh_subordinator_predicted(phi, cfg.s, lam_max=cfg.lam_max)
    _emit({"phi": phi.to_config(), "s": cfg.s, "lam_max": cfg.lam_max,
           "theta": th, "predicted_profile": pred}, cfg)
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
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


def cmd_verify(cfg: RunConfig) -> int:
    report = run_suite(cfg.suite, seed=cfg.seed if cfg.seed is not None else 0)
    for crit in report["criteria"]:
        status = "PASS" if crit["passed"] else "FAIL"
        sys.stderr.write(f"[{status}] {crit['id']}: {crit['name']}\n")
    if cfg.out:
        with open(cfg.out, "wb") as fh:
            fh.write(report_bytes(report))
    else:
        sys.stdout.buffer.write(report_bytes(report))
    return EXIT_OK if report["all_passed"] else 1


def cmd_oracle(cfg: RunConfig) -> int:
    """Parameters bind to the oracle's signature in order; omitted trailing
    ones take the signature's defaults."""
    fn = oracles.NAMED_ORACLES[cfg.name]
    args = [float(p) for p in cfg.params]
    try:
        if cfg.name == "cantor-capacity":
            args = [int(a) for a in args]
        bound = inspect.signature(fn).bind(*args)
        bound.apply_defaults()
        value = fn(*bound.args)
    except (TypeError, ArithmeticError) as exc:
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

def _add_common(p: argparse.ArgumentParser, command: str) -> None:
    p.add_argument("--config", help="flat JSON config file; flags override it")
    p.add_argument("--out", help="write the JSON report here")
    if "csv" in COMMAND_FIELDS[command]:
        p.add_argument("--csv", help="write ladder/experiment rows as CSV here")
    if "seed" in COMMAND_FIELDS[command]:
        p.add_argument("--seed", type=int)


def _ladder(text: str) -> list:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("ladder must be start,ratio,count")
    return [float(parts[0]), float(parts[1]), int(parts[2])]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracdim",
        description="dimension profiles of compact sets under Levy kernels")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="box-dimension profile of a set")
    p.add_argument("--set")
    p.add_argument("--family", help="fh | sandwich:alpha[,d] | subexp | exact")
    p.add_argument("--s", type=float)
    p.add_argument("--phi")
    p.add_argument("--model")
    p.add_argument("--ladder", type=_ladder, help="start,ratio,count (ratio < 1)")
    p.add_argument("--mode", choices=("least_squares", "upper", "lower"))
    p.add_argument("--mesh-ratio", dest="mesh_ratio", type=float)
    p.add_argument("--restarts", type=int,
                   help="up to n Frank-Wolfe starts per rung; more than one "
                        "only if the first does not converge")
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    _add_common(p, "profile")

    p = sub.add_parser("subordinator", help="growth exponent of 1/Z(lam)")
    p.add_argument("--set")
    p.add_argument("--phi")
    p.add_argument("--ladder", type=_ladder, help="start,ratio,count (ratio > 1)")
    p.add_argument("--mode", choices=("least_squares", "upper", "lower"))
    p.add_argument("--tol", type=float)
    _add_common(p, "subordinator")

    p = sub.add_parser("theta", help="theta index of a Laplace exponent")
    p.add_argument("--phi")
    p.add_argument("--s", type=float)
    p.add_argument("--lam-max", dest="lam_max", type=float)
    _add_common(p, "theta")

    p = sub.add_parser("simulate", help="box-count simulated image clouds")
    p.add_argument("--set")
    p.add_argument("--model", help="stable:a[,c[,d]] | subordinator:<phi> | subbrownian:<phi>,d")
    p.add_argument("--ladder", type=_ladder, help="start,ratio,count (ratio < 1)")
    p.add_argument("--paths", type=int)
    p.add_argument("--mode", choices=("least_squares", "upper", "lower"))
    _add_common(p, "simulate")

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--suite", choices=("fast", "full"))
    _add_common(p, "verify")

    p = sub.add_parser("oracle", help="closed-form reference values")
    p.add_argument("--name")
    p.add_argument("--params", nargs="*", default=None)
    _add_common(p, "oracle")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    overrides = {k: v for k, v in vars(ns).items() if k != "config"}
    try:
        cfg = RunConfig.load(ns.config, overrides)
        cfg.validate()
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
