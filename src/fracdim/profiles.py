"""Dimension profiles from minimum-energy ladders and exponent indices.

A profile estimate is the log-log slope of the minimum kernel energy
Z(scale) over a geometric scale ladder:

  box profile          slope of log Z(eps) vs log eps, eps -> 0
  subordinator profile slope of -log Z(lam) vs log lam, lam -> inf,
                       kernel exp(-|t-s| Phi(lam))
  theta index          lower-envelope slope of log int_1^lam dx/Phi(x^{1/s})

Limits are realized as envelope slopes over the asymptotic half of the
ladder; which envelope each identity needs is pinned by its caller (the
upper envelope is the default for limsup-type quantities, the lower for
liminf-type).  The mesh of the net is coupled to the scale (delta = eps /
mesh_ratio, or Phi(lam) * delta <= 0.1) so discretization bias stays well
below slope tolerances and largely cancels between rungs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import NonConvergedQuadrature
from .energy_min import (DEFAULT_MAX_ITER, DEFAULT_RESTARTS, DEFAULT_TOL,
                         exp_kernel_min_energy, rung_min_energy)
from .ladders import LadderEstimate, scale_ladder
from .process_models import KernelFamily, LaplaceExponent
from .set_models import CompactSet, discretize
from .utils import vector_quad

MESH_RATIO = 10.0             # delta(eps) = eps / MESH_RATIO
SUBEXP_MESH_PRODUCT = 0.1     # Phi(lam) * delta <= this
SANITY_WINDOW = (0.0, 2.0)    # plausible profile estimates for 1-d sets
THETA_QUAD_TOL = 1e-9         # summed error target, relative per theta segment
THETA_RUNGS_PER_DECADE = 2.0  # theta quadrature segments per decade of lam
THETA_LAM_MAX = 1e8           # top of the theta quadrature grid


@dataclass
class ProfileReport:
    """A dimension-profile estimate with its ladder provenance."""

    set_label: str
    family_tag: str
    param: dict
    estimate: float
    mode: str
    ladder: LadderEstimate
    mesh_per_scale: list = field(default_factory=list)
    rungs: list = field(default_factory=list)    # EnergyResult.to_json_dict per rung
    self_cover: bool = False

    @property
    def converged(self) -> bool:
        """True only if every rung's solve met its convergence test."""
        return all(r["converged"] for r in self.rungs)

    @property
    def in_window(self) -> bool:
        lo, hi = SANITY_WINDOW
        return lo - 1e-9 <= self.estimate <= hi + 1e-9

    def to_json_dict(self) -> dict:
        return {
            "set": self.set_label,
            "family": self.family_tag,
            "param": dict(sorted(self.param.items())),
            "estimate": self.estimate,
            "mode": self.mode,
            "in_window": self.in_window,
            "converged": self.converged,
            "self_cover_certificate": self.self_cover,
            "mesh_per_scale": [float(m) for m in self.mesh_per_scale],
            "rungs": list(self.rungs),
            "ladder": self.ladder.to_dict(),
        }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["set", "family", "s_or_phi", "scale", "Z_or_value"])
            ptag = ";".join(f"{k}={v}" for k, v in sorted(self.param.items()))
            for s, v in zip(self.ladder.scales, self.ladder.values):
                writer.writerow([self.set_label, self.family_tag, ptag,
                                 repr(float(s)), repr(float(v))])


# ---------------------------------------------------------------------------
# energy ladders
# ---------------------------------------------------------------------------

def _energy_ladder(cset: CompactSet, scales, mesh_for_scale, solve):
    """Rung meshes and EnergyResults over a ladder, solved in order; rung
    k's net is solved by solve(k, scale, net, prev), prev the previous
    rung's (net, result), None on the first."""
    scales = np.asarray(scales, dtype=float)
    meshes = [mesh_for_scale(scale) for scale in scales]
    results, prev = [], None
    for k, (scale, delta) in enumerate(zip(scales, meshes)):
        net = discretize(cset, delta)
        results.append(solve(k, scale, net, prev))
        prev = (net, results[-1])
    return meshes, results


def _ladder_report(cset: CompactSet, family_tag: str, param: dict,
                   ladder: LadderEstimate, meshes, results) -> ProfileReport:
    return ProfileReport(set_label=cset.label, family_tag=family_tag,
                         param=param, estimate=ladder.slope, mode=ladder.mode,
                         ladder=ladder, mesh_per_scale=meshes,
                         rungs=[r.to_json_dict() for r in results],
                         self_cover=cset.self_cover_certificate)


def box_profile(cset: CompactSet, family: KernelFamily, eps_ladder,
                tol: float = DEFAULT_TOL, mode: str = "upper",
                mesh_ratio: float = MESH_RATIO, restarts: int = DEFAULT_RESTARTS,
                seed: int = 0, max_iter: int = DEFAULT_MAX_ITER) -> ProfileReport:
    """Box-dimension profile: envelope slope of log Z(eps) against log eps.

    eps_ladder holds at least two finite, positive, distinct scales in any
    order; rungs are solved from the largest eps down, on nets of mesh
    eps/mesh_ratio.  Both envelopes and the least-squares slope are kept
    in the report's ladder record.
    """
    eps = scale_ladder(eps_ladder, "eps")[::-1]
    if not 0 < mesh_ratio < np.inf:
        raise ValueError(f"mesh_ratio must be finite and > 0, got {mesh_ratio!r}")
    meshes, results = _energy_ladder(
        cset, eps, lambda e: e / mesh_ratio,
        lambda k, e, net, prev: rung_min_energy(family, e, net, tol, prev=prev,
                                                restarts=restarts, seed=seed + k,
                                                max_iter=max_iter))
    ladder = LadderEstimate.fit(eps, np.array([r.value for r in results]),
                                mode=mode)
    return _ladder_report(cset, family.kind,
                          {k: float(v) for k, v in family.params.items()},
                          ladder, meshes, results)


def fh_profile(cset: CompactSet, s: float, eps_ladder, **kw) -> ProfileReport:
    """Power-law (Falconer-Howroyd) profile of parameter s > 0."""
    return box_profile(cset, KernelFamily.fh(s), eps_ladder, **kw)


def subordinator_box_dim(phi: LaplaceExponent, cset: CompactSet, lam_ladder,
                         tol: float = DEFAULT_TOL, mode: str = "upper") -> ProfileReport:
    """Growth exponent of 1 / Z(lam) for the kernel exp(-|t-s| Phi(lam)).

    lam_ladder holds at least two finite, positive, distinct scales in
    any order, solved from the smallest up.  The mesh rule keeps
    Phi(lam) * delta <= 0.1 (and at least a handful of net points even
    when Phi(lam) is tiny).  Each rung is solved exactly in O(n) by
    `exp_kernel_min_energy`, with no kernel matrix, in 168 bytes a point
    (NetTooLarge above MEMORY_BUDGET); `tol` is the relative duality gap its
    certificate must meet, and a rung that misses it raises
    CertificateFailed.
    """
    lam = scale_ladder(lam_ladder, "lam")
    diam = max(cset.diameter, 1e-12)

    def mesh(l):
        p = float(phi(l))
        guard = diam / 8.0                       # resolve the set even at tiny Phi
        return min(SUBEXP_MESH_PRODUCT / p, guard) if p > 0 else guard

    meshes, results = _energy_ladder(
        cset, lam, mesh,
        lambda k, l, net, prev: exp_kernel_min_energy(net.points, float(phi(l)), tol))
    ladder = LadderEstimate.fit(lam, np.array([r.value for r in results]),
                                mode=mode, y_transform="neg_log")
    return _ladder_report(cset, "subexp", {"phi": phi.to_config()}, ladder,
                          meshes, results)


# ---------------------------------------------------------------------------
# theta index and the predicted range profile
# ---------------------------------------------------------------------------

def theta_index(phi: LaplaceExponent, s: float, lam_max: float = THETA_LAM_MAX) -> float:
    """Lower-envelope slope of log int_1^lam dx / Phi(x^{1/s}) vs log lam.

    The cumulative integral sums the segments of a geometric grid up to
    lam_max, all integrated by one `vector_quad` (log-substituted, which
    keeps wide segments well conditioned) to a summed error below
    THETA_QUAD_TOL, relative to each segment's integrand at its middle;
    a non-finite integral or an unconverged quadrature (a non-finite
    error, or the round or interval limit) raises NonConvergedQuadrature.
    The slope is clamped to [0, 1].  Requires a finite s >= 1/2;
    smaller s is outside the validity of the downstream identity and is
    rejected rather than extrapolated.
    """
    if not (np.isfinite(s) and s >= 0.5):
        raise ValueError(f"s must be finite and >= 1/2, got {s!r}")
    if not 10.0 < lam_max < np.inf:
        raise ValueError(f"lam_max must be finite and > 10, got {lam_max!r}")
    decades = np.log10(lam_max)
    n_seg = max(8, int(np.ceil(decades * THETA_RUNGS_PER_DECADE)))
    grid = np.logspace(0.0, np.log10(lam_max), n_seg + 1)
    lo = np.log(grid[:-1])
    width = np.log(grid[1:]) - lo

    def integrand(u):
        x = np.exp(lo + u * width)
        return width * x / phi(x ** (1.0 / s))

    # one vector quadrature over u in [0, 1] for all segments, each scaled
    # by its integrand at u = 1/2, so the absolute target is per-segment
    # relative; power-law exponents converge on the first 21 nodes
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mid = integrand(0.5)
        vals, err = vector_quad(lambda u: integrand(u[:, None]) / mid, 0.0, 1.0,
                                THETA_QUAD_TOL)
    if not (np.all(np.isfinite(vals)) and err < THETA_QUAD_TOL):
        raise NonConvergedQuadrature(
            f"theta integrand up to lam = {lam_max:g}: error {err:.2e}")
    lam = grid[1:]
    cum = np.cumsum(vals * mid)
    est = LadderEstimate.fit(lam, cum, mode="lower")
    return float(min(1.0, max(0.0, est.slope)))


def fh_subordinator_predicted(phi: LaplaceExponent, s: float,
                              lam_max: float = THETA_LAM_MAX) -> float:
    """Predicted power-law profile of the range of a subordinator on a
    unit time window: s * (1 - theta_index(phi, s))."""
    return s * (1.0 - theta_index(phi, s, lam_max=lam_max))
