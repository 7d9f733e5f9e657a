"""Runnable verification checks behind `fracdim verify`.

Each check pins one identity to an independent oracle at a fixed
tolerance and returns a CheckResult; `run_suite` collects them into a
deterministic report (fixed seeds, sorted keys, no timestamps) so two
runs with the same seed are byte-identical.

The "fast" suite covers the cheap checks at full size plus a reduced
solver-vs-oracle sweep; "full" runs everything including the path
simulation cross-checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import oracles
from .energy_min import (KernelMatrix, SimplexWeights, build_kernel,
                         kkt_certificate, min_energy, min_energy_bruteforce)
from .ladders import LadderEstimate
from .process_models import (KernelFamily, LaplaceExponent, LevyModel,
                             cauchy_weighted_energy)
from .profiles import (fh_profile, fh_subordinator_predicted,
                       subordinator_box_dim, theta_index)
from .set_models import (CompactSet, DeltaNet, discretize,
                         kolmogorov_capacity, minkowski_dim_estimate)
from .simulate import image_dim_experiment
from .utils import substream


@dataclass
class CheckResult:
    cid: str
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"id": self.cid, "name": self.name, "passed": self.passed,
                "details": _jsonable(self.details)}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    return obj


# ---------------------------------------------------------------------------
# reusable generators
# ---------------------------------------------------------------------------

def random_psd_kernel(rng: np.random.Generator, n: int) -> KernelMatrix:
    """Random covariance-type kernel: a mixture of exponential kernels on
    random points, so entries lie in (0, 1], the diagonal is 1, and
    positive semidefiniteness holds by construction."""
    pts = np.sort(rng.uniform(0.0, 1.0, n))
    theta = rng.uniform(0.2, 0.8)
    a, b = np.exp(rng.uniform(np.log(0.3), np.log(20.0), 2))
    D = np.abs(pts[:, None] - pts[None, :])
    K = theta * np.exp(-a * D) + (1.0 - theta) * np.exp(-b * D)
    return KernelMatrix(values=K, points=pts)


_BF_RESOLUTION = {2: 1 / 200, 3: 1 / 200, 4: 1 / 100, 5: 1 / 80, 6: 1 / 60}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def check_two_point_closed_form(seed: int = 0) -> CheckResult:
    worst = 0.0
    for k in (0.0, 0.25, 0.5, 0.9):
        K = KernelMatrix(np.array([[1.0, k], [k, 1.0]]), np.array([0.0, 1.0]))
        res = min_energy(K)
        worst = max(worst,
                    abs(res.value - oracles.two_point_min_energy(k)),
                    float(np.max(np.abs(res.weights.w - 0.5))))
    return CheckResult("C1", "two-point closed form (1e-10)",
                       worst <= 1e-10, {"worst_abs_err": worst})


def check_solver_vs_bruteforce(seed: int = 0, n_kernels: int = 50):
    """Returns the oracle-equivalence check and the KKT check (C2 + C3)."""
    rng = substream(seed, 2)
    sizes = [2, 3, 4, 5, 6]
    worst = 0.0
    kkt_all = True
    kkt_worst = 0.0
    for i in range(n_kernels):
        n = sizes[i % len(sizes)]
        km = random_psd_kernel(rng, n)
        res = min_energy(km)
        bf = min_energy_bruteforce(km, resolution=_BF_RESOLUTION[n])
        worst = max(worst, abs(res.value - bf))
        ok, rep = kkt_certificate(km, res.weights, tol=1e-5)
        kkt_all = kkt_all and ok
        kkt_worst = max(kkt_worst, rep["max_support_deviation"])
    c2 = CheckResult("C2", f"solver vs lattice oracle on {n_kernels} PSD kernels (1e-3)",
                     worst <= 1e-3, {"worst_abs_diff": worst})
    c3 = CheckResult("C3", "KKT certificate on every converged solve (tol 1e-5)",
                     kkt_all, {"worst_support_deviation": kkt_worst})
    return c2, c3


def check_capacity_exact(seed: int = 0) -> CheckResult:
    net = discretize(CompactSet.interval(0, 1), 2.0 ** -12)
    ok = True
    details = {}
    for r in (0.25, 0.125, 0.0625):
        got = kolmogorov_capacity(net, r)
        want = oracles.interval_capacity(r)
        details[f"interval_r={r}"] = [got, want]
        ok = ok and got == want
    rng = substream(seed, 4)
    worst = 0
    for _ in range(30):
        pts = np.sort(rng.uniform(0.0, 2.0, int(rng.integers(2, 21))))
        r = float(rng.uniform(0.02, 0.8))
        greedy = kolmogorov_capacity(pts, r)
        exact = oracles.max_separated_1d(pts, r)
        worst = max(worst, abs(greedy - exact))
        ok = ok and greedy == exact
    details["greedy_vs_exact_worst"] = worst
    return CheckResult("C4", "capacity exactness (interval counts; greedy = exhaustive)",
                       ok, details)


def check_minkowski(seed: int = 0) -> CheckResult:
    net = discretize(CompactSet.interval(0, 1), 2.0 ** -16)
    est_i = minkowski_dim_estimate(net, 2.0 ** -np.arange(4, 13))
    cantor = discretize(CompactSet.cantor(), 3.0 ** -12)
    est_c = minkowski_dim_estimate(cantor, 3.0 ** -np.arange(2, 11))
    want_c = math.log(2) / math.log(3)
    ok = abs(est_i.slope - 1.0) <= 0.02 and abs(est_c.slope - want_c) <= 0.03
    return CheckResult("C5", "Minkowski estimates: interval 1.00 +/- 0.02, Cantor 0.6309 +/- 0.03",
                       ok, {"interval": est_i.slope, "cantor": est_c.slope,
                            "cantor_target": want_c})


def check_fh_consistency(seed: int = 0) -> CheckResult:
    eps_i = 0.028 * (1.0 / 3.0) ** np.arange(4)
    rep_i = fh_profile(CompactSet.interval(0, 1), 1.5, eps_i,
                       mesh_ratio=5.0, restarts=2, seed=seed)
    eps_c = 3.0 ** -np.arange(2, 8, dtype=float)
    rep_c = fh_profile(CompactSet.cantor(), 1.5, eps_c, restarts=2, seed=seed)
    want_c = math.log(2) / math.log(3)
    ok = abs(rep_i.estimate - 1.0) <= 0.05 and abs(rep_c.estimate - want_c) <= 0.05
    return CheckResult("C6", "power-law profile at s >= 1 matches packing dimension (0.05)",
                       ok, {"interval": rep_i.estimate, "cantor": rep_c.estimate,
                            "cantor_target": want_c})


def check_fh_interval_scaling(seed: int = 0) -> CheckResult:
    eps = 0.028 * (1.0 / 3.0) ** np.arange(4)
    rep = fh_profile(CompactSet.interval(0, 1), 0.5, eps,
                     mesh_ratio=5.0, restarts=2, seed=seed)
    # independent oracle: closed-form uniform-measure energy ladder
    uni = np.array([oracles.fh_interval_uniform_energy(0.5, e) for e in eps])
    oracle_slope = LadderEstimate.fit(eps, uni, mode="upper").slope
    ok = abs(rep.estimate - 0.5) <= 0.05 and abs(oracle_slope - 0.5) <= 0.05
    # minimality: Z never exceeds the uniform-measure energy
    ok = ok and bool(np.all(rep.ladder.values <= uni + 1e-9))
    return CheckResult("C7", "power-law profile of [0,1] at s = 1/2 is 0.50 +/- 0.05",
                       ok, {"estimate": rep.estimate, "uniform_oracle_slope": oracle_slope})


def check_subordinator_criterion(seed: int = 0) -> CheckResult:
    details = {}
    ok = True
    ladders = {0.3: 100.0 * 6.0 ** np.arange(8),
               0.5: 10.0 * 4.0 ** np.arange(8),
               0.8: 8.0 * 2.2 ** np.arange(8)}
    for beta, lam in ladders.items():
        rep = subordinator_box_dim(LaplaceExponent.stable(beta),
                                   CompactSet.interval(0, 1), lam)
        details[f"beta={beta}"] = rep.estimate
        ok = ok and abs(rep.estimate - beta) <= 0.05
    lam = 2.0 * 3.0 ** np.arange(6)
    drift = LaplaceExponent.compound_poisson_drift(0.0, 1.0, 1.0)
    rep = subordinator_box_dim(drift, CompactSet.interval(0, 1), lam)
    exact = np.array([oracles.interval_exp_kernel_energy(l) for l in lam])
    exact_slope = LadderEstimate.fit(lam, exact, mode="upper",
                                     y_transform="neg_log").slope
    details["drift"] = rep.estimate
    details["drift_exact_integral_slope"] = exact_slope
    ok = ok and abs(rep.estimate - 1.0) <= 0.02 and abs(exact_slope - 1.0) <= 0.02
    return CheckResult("C8", "subordinator criterion: beta recovered (0.05), drift 1.00 (0.02)",
                       ok, details)


def check_theta_index(seed: int = 0) -> CheckResult:
    cases = [(0.5, 0.7), (0.5, 0.5), (0.8, 0.5)]
    details = {}
    ok = True
    for beta, s in cases:
        phi = LaplaceExponent.stable(beta)
        th = theta_index(phi, s, lam_max=1e30)
        pred = fh_subordinator_predicted(phi, s, lam_max=1e30)
        want_th = oracles.theta_power_law(beta, s)
        want_pred = min(beta, s)
        details[f"beta={beta},s={s}"] = {"theta": th, "pred": pred,
                                         "theta_target": want_th}
        ok = ok and abs(th - want_th) <= 0.02 and abs(pred - want_pred) <= 0.02
    return CheckResult("C9", "theta index and predicted profile for power-law exponents (0.02)",
                       ok, details)


def check_cauchy_kernel_identity(seed: int = 0) -> CheckResult:
    rng = substream(seed, 10)
    phi = LaplaceExponent.stable(0.5)
    worst = 0.0
    for _ in range(4):
        pts = np.sort(rng.uniform(0.0, 1.0, 10))
        w = SimplexWeights.uniform(pts)
        D = np.abs(pts[:, None] - pts[None, :])
        for eps in (0.1, 0.01):
            lhs = cauchy_weighted_energy(w, phi.psi, eps)
            rhs = float(w.w @ np.exp(-D * float(phi(1.0 / eps))) @ w.w)
            worst = max(worst, abs(lhs - rhs))
    return CheckResult("C10", "subordinator Cauchy-kernel identity (1e-6)",
                       worst <= 1e-6, {"worst_abs_diff": worst})


def check_energy_upper_bound(seed: int = 0) -> CheckResult:
    rng = substream(seed, 11)
    ok = True
    margin = np.inf
    for trial in range(20):
        alpha = 1.0 if trial % 2 == 0 else 2.0
        m = int(rng.integers(2, 12))
        pts = np.sort(rng.uniform(0.0, 1.0, m))
        w = SimplexWeights(rng.dirichlet(np.ones(m)), pts)
        eps = float(rng.uniform(0.05, 0.8))
        kappa = build_kernel(KernelFamily.exact(LevyModel.isotropic_stable(alpha)),
                             eps, DeltaNet(pts)).values
        lhs = float(w.w @ kappa @ w.w)
        rhs = (2.0 * np.pi) * cauchy_weighted_energy(w, lambda xi: np.abs(xi) ** alpha, eps)
        ok = ok and lhs <= rhs + 1e-9
        margin = min(margin, rhs - lhs)
    return CheckResult("C11", "kernel energy <= (2 pi)^d Cauchy-weighted energy",
                       ok, {"min_margin": margin})


def check_image_simulations(seed: int = 0, n_paths: int = 32) -> CheckResult:
    F = CompactSet.interval(0, 1)
    # Pure-jump images carry a slowly decaying pre-asymptotic correction
    # (relative size ~ r^{1-alpha/d} in the kernel energy), so those
    # ladders run finer than the Gaussian one, whose mesh cost explodes.
    # Estimator mode per model: the stable image needs the envelope to
    # counter its downward pre-asymptotic bend, while the subordinator's
    # tiny per-rung counts make the max-chord envelope noise-biased and
    # the plain fit is the stable choice.
    cases = [
        ("brownian", LevyModel.isotropic_stable(2.0, 1.0, 1), 1.0,
         2.0 ** -np.arange(3, 10, dtype=float), 0.25, "upper"),
        ("stable08", LevyModel.isotropic_stable(0.8, 1.0, 1), 0.8,
         2.0 ** -np.arange(3, 13, dtype=float), 0.1, "upper"),
        ("subordinator05", LevyModel.subordinator(LaplaceExponent.stable(0.5)), 0.5,
         2.0 ** -np.arange(3, 13, dtype=float), 0.1, "least_squares"),
    ]
    details = {}
    ok = True
    for name, model, want, r, factor, mode in cases:
        exp = image_dim_experiment(model, F, n_paths, r, seed=seed + 12,
                                   mesh_factor=factor, mode=mode)
        details[name] = {"median": exp.median, "iqr": exp.iqr, "target": want,
                         "mode": mode}
        ok = ok and abs(exp.median - want) <= 0.1
    return CheckResult("C12", "image simulations match theory (median within 0.1)",
                       ok, details)


def check_report_determinism(seed: int = 0) -> CheckResult:
    a = report_bytes(run_suite("fast", seed=seed))
    b = report_bytes(run_suite("fast", seed=seed))
    return CheckResult("C13", "fast suite is byte-deterministic given the seed",
                       a == b, {"bytes": len(a)})


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def run_suite(suite: str, seed: int = 0) -> dict:
    if suite not in ("fast", "full"):
        raise ValueError("suite must be 'fast' or 'full'")
    checks: list[CheckResult] = []
    checks.append(check_two_point_closed_form(seed))
    if suite == "fast":
        c2, c3 = check_solver_vs_bruteforce(seed, n_kernels=10)
        c2.cid, c3.cid = "C2r", "C3r"
        checks += [c2, c3]
    else:
        checks += list(check_solver_vs_bruteforce(seed))
    checks.append(check_capacity_exact(seed))
    checks.append(check_minkowski(seed))
    if suite == "full":
        checks.append(check_fh_consistency(seed))
        checks.append(check_fh_interval_scaling(seed))
        checks.append(check_subordinator_criterion(seed))
    checks.append(check_theta_index(seed))
    checks.append(check_cauchy_kernel_identity(seed))
    if suite == "full":
        checks.append(check_energy_upper_bound(seed))
        checks.append(check_image_simulations(seed))
        checks.append(check_report_determinism(seed))
    return {
        "suite": suite,
        "seed": seed,
        "criteria": [c.to_dict() for c in checks],
        "all_passed": all(c.passed for c in checks),
    }


def report_bytes(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("utf-8")
