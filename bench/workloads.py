"""The benchmark's four batch workloads.

Each workload builds its inputs from the seed, warms up on a small input,
runs one timed pass through fracdim's public functions, and checks a
round of pass outputs with `checks` (one verdict per operation: a ladder,
a rung, a criterion or a path).  Why each workload exists, and which
layer it stresses, is in README.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fracdim import profiles, simulate, verify
from fracdim.process_models import LaplaceExponent, LevyModel
from fracdim.set_models import CompactSet

import checks

CANTOR_DIM = math.log(2.0) / math.log(3.0)
SOLVER_TOL = 1e-6        # Frank-Wolfe relative gap the subordinator rungs certify
RESTART_SEED = 0         # fixed: see "Seeds" in README.md


@dataclass(frozen=True)
class Workload:
    build: Callable          # seed -> inputs
    warm_up: Callable        # inputs -> None
    run_pass: Callable       # inputs -> pass output
    check: Callable          # (inputs, outputs of one round) -> list[bool]
    passes_per_round: int = 1


# ---------------------------------------------------------------------------
# fh_profile: dense pairwise Frank-Wolfe on indefinite power-law kernels
# ---------------------------------------------------------------------------

def _fh_build(seed):
    return [
        {"kind": "interval", "set": CompactSet.interval(0.0, 1.0), "s": 0.5,
         "eps": 0.028 * (1.0 / 3.0) ** np.arange(4), "mesh_ratio": 5.0, "dim": 1.0},
        {"kind": "cantor", "set": CompactSet.cantor(), "s": 1.5,
         "eps": 3.0 ** -np.arange(2, 8, dtype=float), "mesh_ratio": 10.0,
         "dim": CANTOR_DIM},
    ]


def _fh_warm_up(cases):
    profiles.fh_profile(cases[0]["set"], 0.5, [0.2, 0.1], mesh_ratio=5.0,
                        restarts=2, seed=RESTART_SEED)


def _fh_pass(cases):
    return [profiles.fh_profile(c["set"], c["s"], c["eps"],
                                mesh_ratio=c["mesh_ratio"], restarts=2,
                                seed=RESTART_SEED)
            for c in cases]


def _fh_check(cases, outputs):
    verdicts = []
    for reports in outputs:
        for c, rep in zip(cases, reports):
            verdicts += checks.fh_rungs(c["kind"], c["s"], rep.ladder.scales,
                                        rep.mesh_per_scale, rep.ladder.values)
            verdicts.append(checks.within(rep.estimate, min(c["s"], c["dim"]), 0.05))
    return verdicts


# ---------------------------------------------------------------------------
# subordinator: exponential (PSD, single-start) kernels and the theta index
# ---------------------------------------------------------------------------

def _sub_build(seed):
    stable = LaplaceExponent.stable(0.5)
    return {
        "set": CompactSet.interval(0.0, 1.0),
        "ladders": [
            {"phi": stable, "exact_phi": lambda lam: lam ** 0.5,
             "lam": 10.0 * 4.0 ** np.arange(8), "slope": 0.5, "tol": 0.05},
            {"phi": LaplaceExponent.compound_poisson_drift(0.0, 1.0, 1.0),
             "exact_phi": lambda lam: lam,
             "lam": 2.0 * 3.0 ** np.arange(6), "slope": 1.0, "tol": 0.02},
        ],
        "theta_phi": stable, "beta": 0.5, "s": 0.7,
    }


def _sub_warm_up(inp):
    profiles.subordinator_box_dim(inp["theta_phi"], inp["set"], [10.0, 40.0],
                                  tol=SOLVER_TOL)
    profiles.theta_index(inp["theta_phi"], inp["s"], lam_max=1e3)


def _sub_pass(inp):
    reports = [profiles.subordinator_box_dim(lad["phi"], inp["set"], lad["lam"],
                                             tol=SOLVER_TOL)
               for lad in inp["ladders"]]
    phi, s = inp["theta_phi"], inp["s"]
    theta = profiles.theta_index(phi, s, lam_max=1e30)
    predicted = profiles.fh_subordinator_predicted(phi, s, lam_max=1e30)
    return reports, theta, predicted


def _sub_check(inp, outputs):
    beta, s = inp["beta"], inp["s"]
    verdicts = []
    for reports, theta, predicted in outputs:
        for lad, rep in zip(inp["ladders"], reports):
            verdicts += checks.subordinator_rungs(lad["exact_phi"], rep.ladder.scales,
                                                  rep.mesh_per_scale, rep.ladder.values,
                                                  SOLVER_TOL)
            verdicts.append(checks.within(rep.estimate, lad["slope"], lad["tol"]))
        verdicts.append(checks.within(theta, max(0.0, 1.0 - beta / s), 0.02))
        verdicts.append(checks.within(predicted, min(beta, s), 0.02))
    return verdicts


# ---------------------------------------------------------------------------
# verify_fast: the fast verification suite (lattice oracle dominated)
# ---------------------------------------------------------------------------

def _verify_warm_up(seed):
    verify.check_two_point_closed_form(seed)


def _verify_pass(seed):
    return verify.run_suite("fast", seed)


def _verify_check(seed, outputs):
    verdicts = [ok for report in outputs for ok in checks.criteria_passed(report)]
    verdicts.append(checks.same_bytes(outputs[0], outputs[1]))
    return verdicts


# ---------------------------------------------------------------------------
# image_sim: exact path sampling and box counting (the C12 models)
# ---------------------------------------------------------------------------

def _image_build(seed):
    def ladder(k):
        return 2.0 ** -np.arange(3, k, dtype=float)
    return {
        "seed": seed,
        "set": CompactSet.interval(0.0, 1.0),
        "cases": [
            {"model": LevyModel.isotropic_stable(2.0, 1.0, 1), "dim": 1.0,
             "r": ladder(10), "mesh_factor": 0.25, "mode": "upper"},
            {"model": LevyModel.isotropic_stable(0.8, 1.0, 1), "dim": 0.8,
             "r": ladder(13), "mesh_factor": 0.1, "mode": "upper"},
            {"model": LevyModel.subordinator(LaplaceExponent.stable(0.5)), "dim": 0.5,
             "r": ladder(13), "mesh_factor": 0.1, "mode": "least_squares"},
        ],
    }


def _image_warm_up(inp):
    c = inp["cases"][2]
    simulate.image_dim_experiment(c["model"], inp["set"], 1, 2.0 ** -np.arange(3, 8.0),
                                  seed=inp["seed"], mesh_factor=c["mesh_factor"],
                                  mode=c["mode"])


def _image_pass(inp):
    return [simulate.image_dim_experiment(c["model"], inp["set"], 32, c["r"],
                                          seed=inp["seed"], mesh_factor=c["mesh_factor"],
                                          mode=c["mode"])
            for c in inp["cases"]]


def _image_check(inp, outputs):
    verdicts = []
    for experiments in outputs:
        for c, exp in zip(inp["cases"], experiments):
            verdicts += checks.counts_monotone(exp.counts)
            median = checks.median_slope(exp.r_ladder, exp.counts, c["mode"])
            verdicts.append(checks.within(median, c["dim"], 0.1))
    return verdicts


WORKLOADS = {
    "fh_profile": Workload(_fh_build, _fh_warm_up, _fh_pass, _fh_check),
    "subordinator": Workload(_sub_build, _sub_warm_up, _sub_pass, _sub_check),
    "verify_fast": Workload(lambda seed: seed, _verify_warm_up, _verify_pass,
                            _verify_check, passes_per_round=2),
    "image_sim": Workload(_image_build, _image_warm_up, _image_pass, _image_check),
}
