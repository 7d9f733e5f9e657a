"""Correctness checks for the benchmark workloads.

Every function here recomputes the quantity it checks from first
principles (closed forms, nets built from a rung's mesh, its own slope
fits) and imports nothing from fracdim, so a fault in the program cannot
also hide in its check.  Each returns one verdict per operation checked.
"""

from __future__ import annotations

import json
import math

import numpy as np

FH_SLACK = 1e-9          # relative rounding slack on Z <= uniform energy


def within(value: float, target: float, tol: float) -> bool:
    return bool(abs(value - target) <= tol)


# ---------------------------------------------------------------------------
# nets rebuilt from a rung's mesh
# ---------------------------------------------------------------------------

def interval_net(mesh: float) -> np.ndarray:
    """Uniform grid of [0, 1] with step <= mesh, both endpoints included."""
    return np.linspace(0.0, 1.0, math.ceil(1.0 / mesh) + 1)


def cantor_net(mesh: float) -> np.ndarray:
    """Both endpoints of every middle-third cylinder of length <= mesh.

    Left endpoints of the depth-d cylinders are k / 3^d with k running
    over integers whose base-3 digits are all 0 or 2, so the net is built
    in exact integer arithmetic and rounded once.
    """
    depth = 0
    while 3.0 ** -depth > mesh:
        depth += 1
    lefts = np.zeros(1, dtype=np.int64)
    for _ in range(depth):
        lefts = np.concatenate([3 * lefts, 3 * lefts + 2])
    ends = np.concatenate([lefts, lefts + 1]) / 3.0 ** depth
    return np.sort(ends)


NETS = {"interval": interval_net, "cantor": cantor_net}


# ---------------------------------------------------------------------------
# fh_profile: Z is a minimum, so it cannot exceed the uniform measure's energy
# ---------------------------------------------------------------------------

def fh_uniform_energy(points: np.ndarray, s: float, eps: float,
                      block: int = 256) -> float:
    """Energy of the uniform measure on `points` under min(1, (eps/r)^s),
    summed in row blocks so memory stays at block * n doubles."""
    n = points.size
    total = 0.0
    for i in range(0, n, block):
        r = np.abs(points[i:i + block, None] - points[None, :])
        with np.errstate(divide="ignore"):
            total += float(np.minimum(1.0, (eps / r) ** s).sum())
    return total / n ** 2


def fh_rungs(kind: str, s: float, scales, meshes, zs) -> list[bool]:
    """One verdict per rung: Z <= uniform-measure energy of the rung's net."""
    out = []
    for eps, mesh, z in zip(scales, meshes, zs):
        uniform = fh_uniform_energy(NETS[kind](mesh), s, eps)
        out.append(bool(z <= uniform * (1.0 + FH_SLACK)))
    return out


# ---------------------------------------------------------------------------
# subordinator: exact discrete minimum of the exponential (Markov) kernel
# ---------------------------------------------------------------------------

def exp_kernel_grid_energy(a: float, mesh: float) -> float:
    """Exact min of w'Kw over the simplex for K = exp(-a|t_i - t_j|) on the
    uniform grid of [0, 1] with step <= mesh: 1 / (1 + sum_i tanh(a h / 2)),
    h the grid step (derivation in README.md)."""
    gaps = math.ceil(1.0 / mesh)
    return 1.0 / (1.0 + gaps * math.tanh(a / (2.0 * gaps)))


def subordinator_rungs(phi, lams, meshes, zs, rel_tol: float) -> list[bool]:
    """One verdict per rung: Z matches the exact discrete value within the
    solver's certified relative gap."""
    out = []
    for lam, mesh, z in zip(lams, meshes, zs):
        exact = exp_kernel_grid_energy(phi(float(lam)), mesh)
        out.append(bool(abs(z - exact) <= rel_tol * exact))
    return out


# ---------------------------------------------------------------------------
# image_sim: box counts of simulated images
# ---------------------------------------------------------------------------

def counts_monotone(counts) -> list[bool]:
    """One verdict per path: counts, stored coarse to fine, never decrease."""
    return [bool(np.all(np.diff(row) >= 0)) for row in np.asarray(counts)]


def path_slope(radii, counts, mode: str) -> float:
    """Slope of log K(r) against log(1/r) for one path, radii coarse to fine.

    "least_squares" fits the whole ladder; "upper" is the largest chord
    slope among the finer half of the ladder (at least two points).
    """
    x = np.log(1.0 / np.asarray(radii, dtype=float))
    y = np.log(np.asarray(counts, dtype=float))
    if mode == "least_squares":
        return float(np.polyfit(x, y, 1)[0])
    if mode != "upper":
        raise ValueError(f"unsupported mode {mode!r}")
    half = max(2, (x.size + 1) // 2)
    x, y = x[-half:], y[-half:]
    return max((y[j] - y[i]) / (x[j] - x[i])
               for i in range(half) for j in range(i + 1, half))


def median_slope(radii, counts, mode: str) -> float:
    return float(np.median([path_slope(radii, row, mode) for row in counts]))


# ---------------------------------------------------------------------------
# verify_fast: reports
# ---------------------------------------------------------------------------

def criteria_passed(report: dict) -> list[bool]:
    """One verdict per criterion of a verify report."""
    return [crit["passed"] is True for crit in report["criteria"]]


def same_bytes(a: dict, b: dict) -> bool:
    """Two reports serialize to identical bytes (sorted keys, repr floats)."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
