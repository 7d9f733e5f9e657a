"""Compact subsets of the half-line, their nets, and box-counting.

Sets are intervals, finite point lists, or attractors of affine iterated
function systems on the line.  Every supported kind can certify a
delta-net: a finite subset of the set within delta of every point of the
set.  Capacity here is the Kolmogorov packing number K_G(r), the maximal
size of an r-separated subset in the l-inf metric (exact on the line,
within a factor 3^d in R^d), and upper Minkowski dimension estimates are
log-log ladder slopes of it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateLadder, MeshTooFine
from .ladders import LadderEstimate
from .utils import check_budget

_FIX_TOL = 1e-12


# ---------------------------------------------------------------------------
# set descriptors
# ---------------------------------------------------------------------------

@dataclass
class CompactSet:
    """A compact subset of [0, inf) given by construction, not by oracle.

    kind: "interval" {a, b}, "finite" {points}, "ifs" {ratios, translations,
    hull, digits (`_ifs_digits`)}; only intervals and IFS with digits give
    their nets a grid.  IFS members are the maps x -> ratios[i]*x +
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
        if not (0 <= a <= b < np.inf):
            raise ValueError(f"interval needs 0 <= a <= b < inf, got [{a!r}, {b!r}]")
        return cls("interval", {"a": float(a), "b": float(b)},
                   label=f"interval[{a},{b}]")

    @classmethod
    def finite(cls, points) -> "CompactSet":
        pts = np.unique(_finite_points(points))
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
        fix = trans / (1.0 - ratios)        # the hull's ends are extreme fixed points
        lo, hi = float(fix.min()), float(fix.max())
        if lo < -_FIX_TOL:
            raise ValueError("attractor leaves [0, inf)")
        # non-overlap after one iteration: sorted depth-1 images disjoint
        ivals = sorted((r * lo + t, r * hi + t) for r, t in zip(ratios, trans))
        for (l0, h0), (l1, h1) in zip(ivals, ivals[1:]):
            if h0 > l1 + _FIX_TOL:
                raise ValueError("depth-1 images overlap; IFS not supported")
        return cls("ifs", {"ratios": ratios, "translations": trans,
                           "hull": (float(lo), float(hi)),
                           "digits": _ifs_digits(ratios, trans, lo, hi)},
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
        reports carry it, and no profile value is gated on it."""
        if self.kind == "ifs":
            r = self.params["ratios"]
            return bool(np.allclose(r, r[0]))
        return True             # intervals; finite sets have dimension 0 everywhere


def _finite_points(points) -> np.ndarray:
    """Points as floats; ValueError naming the first NaN or infinite one."""
    pts = np.asarray(points, dtype=float)
    bad = pts[~np.isfinite(pts)]
    if bad.size:
        raise ValueError(f"point {float(bad.flat[0])!r} is not finite")
    return pts


def _ifs_digits(ratios, trans, lo, hi):
    """(q, d, e) when every ratio r is 1/q and every c_i = (t_i - lo (1 - r))
    / (r (hi - lo)) is e_i / d, e_i integer and d <= 16 least, within
    _FIX_TOL; else None.  The maps are u -> (u + c_i) / q in u."""
    q = round(1.0 / ratios[0])
    if not (hi > lo and np.all(np.abs(ratios * q - 1.0) <= _FIX_TOL)):
        return None
    c = (trans - lo * (1.0 - ratios)) / (ratios * (hi - lo))
    d = next((d for d in range(1, 17)
              if np.all(np.abs(d * c - np.rint(d * c)) <= d * _FIX_TOL)), None)
    return None if d is None else (q, d, np.rint(d * c).astype(np.int64))


@dataclass
class DeltaNet:
    """A certified finite delta-net of a parent set.

    Every point of the parent lies within the requested delta of some net
    point, and the net points lie in the parent set; both hold by
    construction for the supported kinds (see `discretize`).

    `grid` is (t0, h, m) when the set gives one (`_grid_net`): point i
    rounds t0 + m_i h, m strictly increasing integers >= 0 (None: 0..n-1).
    """

    points: np.ndarray
    grid: tuple | None = field(default=None, init=False)

    def __post_init__(self):
        # in blocks, so that no temporary grows with the net: NaN breaks
        # the order, and the ends of an increasing net bound the rest
        pts = np.asarray(self.points, dtype=float)
        if not (_is_sorted(pts, strict=True) and np.isfinite(pts[:1]).all()
                and np.isfinite(pts[-1:]).all()):
            _finite_points(pts)
            raise ValueError("net points must be strictly increasing")
        self.points = pts

    @property
    def n(self) -> int:
        return self.points.size


def _grid_net(t0: float, h: float, m=None, points=None) -> DeltaNet:
    """The net t0 + m h with its grid, or `points` (a whole grid, rounded
    its own way) when m is None; an index 0..n-1 is stored as None."""
    net = DeltaNet(t0 + m * h if points is None else points)
    net.grid = (float(t0), float(h), None if m is None or m[-1] == m.size - 1 else m)
    return net


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def discretize(cset: CompactSet, delta: float) -> DeltaNet:
    """Certified delta-net of a supported compact set.

    Intervals use a uniform grid with step <= delta including both
    endpoints; attractors are expanded to the first depth at which every
    cylinder is no longer than delta and contribute both endpoints of
    each cylinder.  Every kind yields its points strictly increasing, so
    they are sorted once, here or by the set's constructor.  The grid is
    the set's: an interval net is its whole grid (a, (b - a) / steps), an
    IFS net with digits its index on the grid of step (hi - lo) / (d q^k).
    Built, a net peaks at 8 bytes per point of an interval, its points,
    and SORTED_CHECK_BLOCK more for its order check (traced: 8.07 at 10^6
    points), and at 32 per each of the at most 2 M^k points of an IFS of
    M maps at depth k (traced: 26-29): MeshTooFine before it is built
    above MEMORY_BUDGET.
    """
    if not 0 < delta < np.inf:
        raise ValueError(f"delta must be finite and positive, got {delta!r}")
    if cset.kind == "interval":
        a, b = cset.params["a"], cset.params["b"]
        steps = int(np.ceil((b - a) / delta))
        check_budget(f"interval net of {steps + 1} points",
                     8 * (steps + 1) + SORTED_CHECK_BLOCK, MeshTooFine)
        pts = np.linspace(a, b, steps + 1)
        return _grid_net(a, (b - a) / steps, points=pts) if steps else DeltaNet(pts)
    if cset.kind == "finite":
        return DeltaNet(cset.params["points"].copy())
    if cset.kind == "ifs":
        return _ifs_net(cset, delta)
    raise ValueError(f"unknown set kind {cset.kind!r}")


def _ifs_net(cset, delta):
    ratios = cset.params["ratios"]
    trans = cset.params["translations"]
    lo, hi = cset.params["hull"]
    width = hi - lo
    depth = 0
    while width * float(ratios.max()) ** depth > delta:
        depth += 1
        check_budget(f"IFS net at depth {depth}", 32 * 2 * len(ratios) ** depth, MeshTooFine)
    digits = cset.params["digits"]
    # the finest spacing the net must resolve, and the roundings each point carries
    if digits is None:      # smallest cylinder or gap (not touching ends); k roundings
        rmin, roundings = float(ratios.min()), depth
        gaps = np.sort(ratios * lo + trans)[1:] - np.sort(ratios * hi + trans)[:-1]
        spacing = min([rmin * width, *gaps[gaps > _FIX_TOL]]) * rmin ** (depth - 1)
    else:                   # the grid step; one rounding in lo + m h
        q, d, e = digits
        spacing, roundings = width / (d * q ** depth), 1
    margin = 4 * roundings * np.spacing(hi)     # 4 ulps of hi per rounding
    if depth and not spacing > margin:
        raise MeshTooFine(f"IFS net at depth {depth} is below float resolution at {hi:g}")
    if digits is None:      # iterate interval endpoints through all words of the depth;
        ends = np.array([lo, hi])   # touching cylinders round a shared end twice, within margin
        for _ in range(depth):
            ends = np.concatenate([r * ends + t for r, t in zip(ratios, trans)])
        return DeltaNet(_merge_within(np.unique(ends), margin))
    m = np.array([0, d], dtype=np.int64)         # on integers, depth j adds d c_i q^j
    for j in range(depth):
        m = np.unique(np.concatenate([m + ei * q ** j for ei in e.tolist()]))
    return _grid_net(lo, spacing, m)


def _merge_within(x: np.ndarray, margin: float) -> np.ndarray:
    """Sorted x less each point within margin of the last point kept
    before it, in one left-to-right sweep over the close pairs: the kept
    points are more than margin apart, and every point of x lies within
    margin of one."""
    keep = np.ones(x.size, dtype=bool)
    anchor = 0
    for i in (np.flatnonzero(np.diff(x) <= margin) + 1).tolist():
        if keep[i - 1]:
            anchor = i - 1
        keep[i] = x[i] - x[anchor] > margin
    return x[keep]


# ---------------------------------------------------------------------------
# capacity and dimension
# ---------------------------------------------------------------------------

def _as_points(cloud) -> np.ndarray:
    if isinstance(cloud, DeltaNet):
        return cloud.points[:, None]
    pts = np.asarray(cloud, dtype=float)
    return pts[:, None] if pts.ndim == 1 else pts


SEPARATION_SLACK = 1e-9      # relative roundoff guard on >= r comparisons
MIN_RADII = 5                # fewest radii of a Minkowski ladder


def kolmogorov_capacity(cloud, r: float) -> int:
    """Maximal number of points pairwise >= r apart (l-inf metric).

    Sorted 1-d input is solved exactly by a left-to-right greedy sweep.
    In d > 1 the count N(r) is the number of occupied grid cells of side
    r, which brackets the exact count K(r) as K(r) <= N(r) <= 3^d K(r):
    two points in one cell are less than r apart, so a separated set has
    at most one point per cell; and every point lies within r of a
    maximal separated subset M, so each occupied cell is one of the 3^d
    cells around a point of M, and N(r) <= 3^d |M| <= 3^d K(r).
    Constant-factor slack is harmless for log-log slopes.

    Separation is tested against r*(1 - SEPARATION_SLACK): grids built at
    the same scale as r (triadic nets probed at triadic radii) land a few
    ulps below the nominal distance and must still count.
    """
    return capacity_counts(cloud, [r])[0]


def capacity_counts(cloud, radii) -> list[int]:
    """`kolmogorov_capacity` of one cloud at each radius.

    A 1-d cloud is read as it is when it is already sorted and contiguous
    (a net, or a path sorted in place); otherwise one sorted copy serves
    the whole list.  The input is never modified.  A NaN or infinite
    point raises ValueError.
    """
    radii = [float(r) for r in radii]
    if any(not r > 0 for r in radii):
        raise ValueError("radius must be positive")
    pts = _as_points(cloud)
    seps = [r * (1.0 - SEPARATION_SLACK) for r in radii]
    if pts.shape[1] > 1:
        if not np.isfinite(pts).all():
            raise ValueError("cloud holds a non-finite point")
        return [_occupied_cells(pts, sep) for sep in seps]
    x = pts[:, 0]
    if not (x.flags.c_contiguous and _is_sorted(x)):
        x = np.sort(x)                          # NaN sorts last
    if x.size and not np.isfinite(x[[0, -1]]).all():   # sorted: ends bound all
        raise ValueError("cloud holds a non-finite point")
    return [_capacity_1d(x, sep) for sep in seps]


SORTED_CHECK_BLOCK = 1 << 16     # elements compared per step of _is_sorted


def _is_sorted(x: np.ndarray, strict: bool = False) -> bool:
    # nondecreasing (increasing if strict), and False on any NaN; compared
    # in blocks so that no temporary grows with x
    lo, hi = x[:-1], x[1:]
    before = np.less if strict else np.less_equal
    return all(np.all(before(lo[i:i + SORTED_CHECK_BLOCK], hi[i:i + SORTED_CHECK_BLOCK]))
               for i in range(0, lo.size, SORTED_CHECK_BLOCK))


def _capacity_1d(x: np.ndarray, r: float) -> int:
    # greedy from the left is the exact maximum in one dimension.  bisect
    # on a memoryview holds the interpreter lock through the sweep, where
    # searchsorted drops it at every step and two sweeps on two threads
    # would hand it back and forth at every step
    v = memoryview(x)
    count = 0
    i = 0
    n = len(v)
    while i < n:
        count += 1
        i = bisect.bisect_left(v, v[i] + r)
    return count


def _occupied_cells(pts: np.ndarray, side: float) -> int:
    # one lexsort of the integer cell rows; np.unique(axis=0) is ~10x slower
    cells = np.floor(pts / side).astype(np.int64)
    cells = cells[np.lexsort(cells.T)]
    starts = np.any(cells[1:] != cells[:-1], axis=1)
    return min(len(cells), 1) + int(np.count_nonzero(starts))


def minkowski_dim_estimate(cloud, r_ladder, mode: str = "upper") -> LadderEstimate:
    """Upper-Minkowski-dimension ladder: slope of log K(r) against log(1/r).

    The default mode is the upper envelope because the dimension is a
    limsup; a cloud that never resolves past one point estimates slope 0,
    while a ladder that is constant at K > 1 carries no scaling signal
    and raises DegenerateLadder.
    """
    r_ladder = np.asarray(r_ladder, dtype=float)
    if r_ladder.size < MIN_RADII:
        raise ValueError(f"ladder needs at least {MIN_RADII} radii")
    ratios = r_ladder[1:] / r_ladder[:-1]
    if np.any(ratios <= 0) or not (np.all(ratios < 1) or np.all(ratios > 1)):
        raise ValueError("ladder must be strictly monotone")
    r_ladder = np.sort(r_ladder)[::-1]          # coarse -> fine, limit at tail
    counts = np.array(capacity_counts(cloud, r_ladder), dtype=float)
    if counts[0] > 1.0 and np.all(counts == counts[0]):
        raise DegenerateLadder(
            f"capacity constant at {int(counts[0])} across the ladder")
    return LadderEstimate.fit(r_ladder, counts, mode=mode,
                              x_transform="log_inv")
