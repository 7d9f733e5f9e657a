"""Compact subsets of the half-line, their nets, and box-counting.

Sets are intervals, finite point lists, or attractors of affine iterated
function systems on the line.  Every supported kind can certify a
delta-net: a finite subset of the set within delta of every point of the
set.  Capacity here is the Kolmogorov packing number K_G(r), the maximal
size of an r-separated subset in the l-inf metric, and upper Minkowski
dimension estimates are log-log ladder slopes of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateLadder, MeshTooFine
from .ladders import LadderEstimate

NET_POINT_CAP = 200_000      # default discretization cap
IFS_DEPTH_BUDGET = 30        # deepest IFS word a net may expand to
_FIX_TOL = 1e-12


# ---------------------------------------------------------------------------
# set descriptors
# ---------------------------------------------------------------------------

@dataclass
class CompactSet:
    """A compact subset of [0, inf) given by construction, not by oracle.

    kind: "interval" {a, b}, "finite" {points}, "ifs" {ratios,
    translations, hull}.  IFS members are the maps x -> ratios[i]*x +
    translations[i]; their depth-1 images of the convex hull must be
    disjoint (up to touching endpoints), which makes net certification
    and self-similarity bookkeeping exact.
    """

    kind: str
    params: dict = field(default_factory=dict)
    label: str = ""

    # -- constructors -------------------------------------------------------

    @classmethod
    def interval(cls, a: float, b: float) -> "CompactSet":
        if not (0 <= a <= b):
            raise ValueError("need 0 <= a <= b")
        return cls("interval", {"a": float(a), "b": float(b)},
                   label=f"interval[{a},{b}]")

    @classmethod
    def finite(cls, points) -> "CompactSet":
        pts = np.unique(np.asarray(points, dtype=float))
        if pts.size == 0 or pts[0] < 0:
            raise ValueError("need a nonempty point list in [0, inf)")
        return cls("finite", {"points": pts}, label=f"finite[{pts.size}]")

    @classmethod
    def ifs(cls, ratios, translations) -> "CompactSet":
        ratios = np.asarray(ratios, dtype=float)
        trans = np.asarray(translations, dtype=float)
        if ratios.shape != trans.shape or ratios.size < 2:
            raise ValueError("need matching ratios/translations, at least two maps")
        if np.any(ratios <= 0) or np.any(ratios >= 1):
            raise ValueError("contraction ratios must lie in (0, 1)")
        lo, hi = _ifs_hull(ratios, trans)
        if lo < -_FIX_TOL:
            raise ValueError("attractor leaves [0, inf)")
        # non-overlap after one iteration: sorted depth-1 images disjoint
        ivals = sorted((r * lo + t, r * hi + t) for r, t in zip(ratios, trans))
        for (l0, h0), (l1, h1) in zip(ivals, ivals[1:]):
            if h0 > l1 + _FIX_TOL:
                raise ValueError("depth-1 images overlap; IFS not supported")
        return cls("ifs", {"ratios": ratios, "translations": trans,
                           "hull": (float(lo), float(hi))},
                   label=f"ifs[{ratios.size} maps]")

    @classmethod
    def cantor(cls, ratio: float = 1.0 / 3.0) -> "CompactSet":
        """Two-map Cantor set on [0, 1] with contraction `ratio` <= 1/2."""
        if not 0 < ratio <= 0.5:
            raise ValueError("ratio must be in (0, 1/2]")
        out = cls.ifs([ratio, ratio], [0.0, 1.0 - ratio])
        out.label = f"cantor[{ratio:g}]"
        return out

    # -- geometry ------------------------------------------------------------

    def bounds(self) -> tuple[float, float]:
        if self.kind == "interval":
            return self.params["a"], self.params["b"]
        if self.kind == "finite":
            pts = self.params["points"]
            return float(pts[0]), float(pts[-1])
        if self.kind == "ifs":
            return self.params["hull"]
        raise ValueError(f"unknown set kind {self.kind!r}")

    @property
    def diameter(self) -> float:
        lo, hi = self.bounds()
        return hi - lo

    @property
    def self_cover_certificate(self) -> bool:
        """True when every open interval meeting the set sees the full
        local scaling (intervals and strictly self-similar attractors);
        regularized profile values are only reported under this flag."""
        if self.kind == "ifs":
            r = self.params["ratios"]
            return bool(np.allclose(r, r[0]))
        return True             # intervals; finite sets have dimension 0 everywhere


def _ifs_hull(ratios, trans) -> tuple[float, float]:
    # hull endpoints are the extreme fixed points t/(1-r) of the maps
    fix = trans / (1.0 - ratios)
    return float(fix.min()), float(fix.max())


@dataclass
class DeltaNet:
    """A certified finite delta-net of a parent set.

    Every point of the parent lies within the requested delta of some net
    point, and the net points lie in the parent set; both hold by
    construction for the supported kinds (see `discretize`).
    """

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if np.any(np.diff(self.points) < 0):
            raise ValueError("net points must be sorted")

    @property
    def n(self) -> int:
        return self.points.size


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def discretize(cset: CompactSet, delta: float,
               point_cap: int = NET_POINT_CAP) -> DeltaNet:
    """Certified delta-net of a supported compact set.

    Intervals use a uniform grid with step <= delta including both
    endpoints; attractors are expanded to the first depth at which every
    cylinder is no longer than delta and contribute both endpoints of
    each cylinder.
    """
    if not 0 < delta < np.inf:
        raise ValueError(f"delta must be finite and positive, got {delta!r}")
    pts = _net_points(cset, delta, point_cap)
    if pts.size > point_cap:
        raise MeshTooFine(f"net would need {pts.size} points (cap {point_cap})")
    return DeltaNet(points=np.unique(pts))


def _net_points(cset, delta, cap) -> np.ndarray:
    if cset.kind == "interval":
        a, b = cset.params["a"], cset.params["b"]
        if b == a:
            return np.array([a])
        steps = int(np.ceil((b - a) / delta))
        if steps + 1 > cap:
            raise MeshTooFine(f"interval grid needs {steps + 1} points (cap {cap})")
        return np.linspace(a, b, steps + 1)
    if cset.kind == "finite":
        return np.asarray(cset.params["points"], dtype=float)
    if cset.kind == "ifs":
        return _ifs_net(cset, delta, cap)
    raise ValueError(f"unknown set kind {cset.kind!r}")


def _ifs_net(cset, delta, cap) -> np.ndarray:
    ratios = cset.params["ratios"]
    trans = cset.params["translations"]
    lo, hi = cset.params["hull"]
    width = hi - lo
    rmax = float(ratios.max())
    depth = 0
    while width * rmax ** depth > delta:
        depth += 1
        if depth > IFS_DEPTH_BUDGET:
            raise MeshTooFine("IFS depth budget exhausted before reaching delta")
        if len(ratios) ** depth * 2 > cap:
            raise MeshTooFine(f"IFS net would exceed {cap} points at depth {depth}")
    # iterate interval endpoints through all words of the chosen depth
    ends = np.array([lo, hi])
    for _ in range(depth):
        ends = np.concatenate([r * ends + t for r, t in zip(ratios, trans)])
    return np.unique(ends)


# ---------------------------------------------------------------------------
# capacity and dimension
# ---------------------------------------------------------------------------

def _as_points(cloud) -> np.ndarray:
    if isinstance(cloud, DeltaNet):
        return cloud.points[:, None]
    pts = np.asarray(cloud, dtype=float)
    return pts[:, None] if pts.ndim == 1 else pts


SEPARATION_SLACK = 1e-9      # relative roundoff guard on >= r comparisons


def kolmogorov_capacity(cloud, r: float) -> int:
    """Maximal number of points pairwise >= r apart (l-inf metric).

    Sorted 1-d input is solved exactly by a left-to-right greedy sweep.
    In d > 1 a greedy maximal r-separated subset M is built instead; M is
    r-separated and every input point lies within r of M, which brackets
    the true count between |M| and K(r/2)-type quantities.  Constant-factor
    slack is harmless for log-log slopes.

    Separation is tested against r*(1 - SEPARATION_SLACK): grids built at
    the same scale as r (triadic nets probed at triadic radii) land a few
    ulps below the nominal distance and must still count.
    """
    return capacity_counts(cloud, [r])[0]


def capacity_counts(cloud, radii) -> list[int]:
    """`kolmogorov_capacity` of one cloud at each radius; a 1-d cloud is
    sorted once for the whole list."""
    radii = [float(r) for r in radii]
    if any(not r > 0 for r in radii):
        raise ValueError("radius must be positive")
    pts = _as_points(cloud)
    seps = [r * (1.0 - SEPARATION_SLACK) for r in radii]
    if pts.shape[1] == 1:
        x = np.sort(pts[:, 0])
        return [_capacity_1d(x, sep) for sep in seps]
    return [len(_capacity_greedy(pts, sep)) for sep in seps]


def _capacity_1d(x: np.ndarray, r: float) -> int:
    # greedy from the left is the exact maximum in one dimension
    count = 0
    i = 0
    n = x.size
    while i < n:
        count += 1
        i = int(np.searchsorted(x, x[i] + r, side="left"))
    return count


def _capacity_greedy(pts: np.ndarray, r: float) -> list[int]:
    """Indices of a greedy maximal r-separated subset, in input order."""
    # grid hash with cell edge r: candidates only need their 3^d neighborhood
    d = pts.shape[1]
    cells: dict[tuple, list[int]] = {}
    kept: list[int] = []
    keys = np.floor(pts / r).astype(np.int64)
    offsets = np.array(np.meshgrid(*([[-1, 0, 1]] * d), indexing="ij")).reshape(d, -1).T
    for idx in range(pts.shape[0]):
        key = keys[idx]
        ok = True
        for off in offsets:
            neigh = cells.get(tuple(key + off))
            if neigh and np.min(np.max(np.abs(pts[neigh] - pts[idx]), axis=1)) < r:
                ok = False
                break
        if ok:
            kept.append(idx)
            cells.setdefault(tuple(key), []).append(idx)
    return kept


def minkowski_dim_estimate(cloud, r_ladder, mode: str = "upper") -> LadderEstimate:
    """Upper-Minkowski-dimension ladder: slope of log K(r) against log(1/r).

    The default mode is the upper envelope because the dimension is a
    limsup; a cloud that never resolves past one point estimates slope 0,
    while a ladder that is constant at K > 1 carries no scaling signal
    and raises DegenerateLadder.
    """
    r_ladder = np.asarray(r_ladder, dtype=float)
    if r_ladder.size < 5:
        raise ValueError("ladder needs at least 5 radii")
    ratios = r_ladder[1:] / r_ladder[:-1]
    if np.any(ratios <= 0) or not (np.all(ratios < 1) or np.all(ratios > 1)):
        raise ValueError("ladder must be strictly monotone")
    r_ladder = np.sort(r_ladder)[::-1]          # coarse -> fine, limit at tail
    counts = np.array(capacity_counts(cloud, r_ladder), dtype=float)
    if counts[0] > 1.0 and np.all(counts == counts[0]):
        raise DegenerateLadder(
            f"capacity constant at {int(counts[0])} across the ladder")
    return LadderEstimate.fit(r_ladder, counts, mode=mode,
                              x_transform=lambda s: np.log(1.0 / s))
