"""Sets, nets, capacity, and Minkowski estimates."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from fracdim import set_models, utils
from fracdim.errors import DegenerateLadder, MeshTooFine
from fracdim.ladders import LadderEstimate
from fracdim.oracles import max_separated_1d
from fracdim.set_models import (SEPARATION_SLACK, CompactSet, DeltaNet,
                                capacity_counts, discretize,
                                kolmogorov_capacity, minkowski_dim_estimate)

RNG = np.random.default_rng(99)


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def test_interval_net_is_the_uniform_grid():
    net = discretize(CompactSet.interval(0, 1), 0.25)
    np.testing.assert_allclose(net.points, [0, 0.25, 0.5, 0.75, 1.0])


def test_finite_net_passthrough():
    cset = CompactSet.finite([1.0, 0.0])
    net = discretize(cset, 0.37)
    np.testing.assert_array_equal(net.points, [0.0, 1.0])
    assert not np.shares_memory(net.points, cset.params["points"])


def _cantor_endpoints(depth):
    # direct IFS expansion oracle, independent of the library walk
    ends = np.array([0.0, 1.0])
    for _ in range(depth):
        ends = np.concatenate([ends / 3.0, ends / 3.0 + 2.0 / 3.0])
    return np.unique(ends)


def test_cantor_net_depth_three():
    net = discretize(CompactSet.cantor(), 1.0 / 27.0)
    assert net.n == 16
    np.testing.assert_allclose(np.sort(net.points), _cantor_endpoints(3), atol=1e-15)


def test_net_certificate_covers_parent():
    # random points of the parent set are within delta of the net
    cases = [
        (CompactSet.interval(0.2, 1.7), 0.0103),
        (CompactSet.cantor(), 1.0 / 81.0),
        (CompactSet.finite([0.0, 0.4, 2.0, 3.0]), 0.05),
    ]
    for cset, delta in cases:
        net = discretize(cset, delta)
        lo, hi = cset.bounds()
        assert lo <= net.points[0] and net.points[-1] <= hi + 1e-12
        for _ in range(300):
            if cset.kind == "interval":
                p = RNG.uniform(*cset.bounds())
            elif cset.kind == "ifs":
                p = 0.0
                for _ in range(60):   # random word deep in the attractor
                    p = p / 3.0 + (0.0 if RNG.random() < 0.5 else 2.0 / 3.0)
            else:
                p = RNG.choice(cset.params["points"])
            assert np.min(np.abs(net.points - p)) <= delta + 1e-12


def test_mesh_too_fine(monkeypatch):
    """A net that would peak above the memory budget while it is built
    raises MeshTooFine first: an interval net at 8 bytes a point and one
    block of its order check, an IFS net at 32 per each of its 2 M^k
    endpoints, so Cantor nets are refused from depth 23.  At a budget a
    net is built, and one step finer is not."""
    with pytest.raises(MeshTooFine, match="interval net of 1000000001 points"):
        discretize(CompactSet.interval(0, 1), 1e-9)
    with pytest.raises(MeshTooFine, match="IFS net at depth 23"):
        discretize(CompactSet.cantor(), 1e-12)
    monkeypatch.setattr(utils, "MEMORY_BUDGET", 8 * 1001 + set_models.SORTED_CHECK_BLOCK)
    assert discretize(CompactSet.interval(0, 1), 1e-3).n == 1001
    with pytest.raises(MeshTooFine):
        discretize(CompactSet.interval(0, 1), 0.999e-3)
    monkeypatch.setattr(utils, "MEMORY_BUDGET", 32 * 2 ** 9)
    assert discretize(CompactSet.cantor(), 3.0 ** -8).n == 2 ** 9
    with pytest.raises(MeshTooFine):
        discretize(CompactSet.cantor(), 3.0 ** -9)
    for delta in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            discretize(CompactSet.interval(0, 1), delta)


def test_overlapping_ifs_rejected():
    with pytest.raises(ValueError):
        CompactSet.ifs([0.6, 0.6], [0.0, 0.4])


def test_self_cover_certificate():
    assert CompactSet.interval(0, 1).self_cover_certificate
    assert CompactSet.cantor().self_cover_certificate
    assert not CompactSet.ifs([0.2, 0.4], [0.0, 0.6]).self_cover_certificate
    assert CompactSet.finite([0.0, 2.0]).self_cover_certificate


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

def test_capacity_interval_counts():
    net = discretize(CompactSet.interval(0, 1), 2.0 ** -12)
    for r, want in ((0.25, 5), (0.125, 9), (0.0625, 17)):
        assert kolmogorov_capacity(net, r) == want


def test_capacity_two_points_and_beyond_diameter():
    assert kolmogorov_capacity(np.array([0.0, 1.0]), 2.0) == 1
    cloud = RNG.uniform(0, 1, 50)
    assert kolmogorov_capacity(cloud, 1.5) == 1


def test_capacity_cantor_depth3_bruteforce():
    net = discretize(CompactSet.cantor(), 1.0 / 27.0)
    got = kolmogorov_capacity(net, 1.0 / 9.0)
    assert got == max_separated_1d(net.points, 1.0 / 9.0) == 8


def test_capacity_greedy_equals_exhaustive_small_sets():
    for _ in range(30):
        pts = np.sort(RNG.uniform(0, 2, int(RNG.integers(2, 21))))
        r = float(RNG.uniform(0.02, 0.8))
        assert kolmogorov_capacity(pts, r) == max_separated_1d(pts, r)


def test_capacity_monotone_in_radius():
    pts = RNG.uniform(0, 1, 200)
    radii = np.linspace(0.01, 1.2, 40)
    counts = [kolmogorov_capacity(pts, r) for r in radii]
    assert np.all(np.diff(counts) <= 0)


def test_capacity_counts_sorts_once_and_matches_oracle():
    pts = RNG.uniform(0, 2, 50)                  # unsorted on purpose
    radii = [0.9, 0.3, 0.07, 0.011]
    assert capacity_counts(pts, radii) == [max_separated_1d(np.sort(pts), r)
                                           for r in radii]
    cloud = RNG.uniform(0, 1, (80, 2))
    assert capacity_counts(cloud, radii) == [kolmogorov_capacity(cloud, r)
                                             for r in radii]
    with pytest.raises(ValueError):
        capacity_counts(pts, [0.5, 0.0])
    # a sorted contiguous cloud is read as it is, anything else through a
    # sorted copy; counts equal the sort-every-time sweep, and no input
    # is modified
    srt = np.sort(RNG.uniform(0, 2, 400))
    shuffled = RNG.permutation(srt)
    column = np.stack([srt, -srt], axis=1)[:, :1]          # sorted, strided
    for cloud in (srt, shuffled, srt[:, None], srt[::2], column):
        before = cloud.copy()
        assert capacity_counts(cloud, radii) == _sort_then_sweep(cloud.ravel(), radii)
        assert np.array_equal(cloud, before)
    for cloud in (srt, shuffled):
        assert capacity_counts(cloud, radii) == [max_separated_1d(cloud, r) for r in radii]


def _sort_then_sweep(x, radii):
    """1-d counts as computed when every call sorted a copy of its cloud."""
    x = np.sort(x)
    out = []
    for r in radii:
        sep, count, i = r * (1.0 - SEPARATION_SLACK), 0, 0
        while i < x.size:
            count += 1
            i = int(x.searchsorted(x[i] + sep))
        out.append(count)
    return out


def test_non_finite_cloud_raises_instead_of_sweeping_forever():
    # a NaN or infinite point used to stall the 1-d sweep (x[i] + r lands
    # back at i); sorted or not, 1-d or 2-d, it is now a ValueError
    srt = np.linspace(0.0, 1.0, 50)
    for bad in (np.nan, np.inf, -np.inf):
        for cloud in (np.insert(srt, 20, bad), np.append(srt, bad),
                      np.insert(srt, 0, bad), np.array([bad]),
                      np.stack([np.append(srt, 0.5), np.append(srt, bad)], axis=1)):
            with pytest.raises(ValueError, match="non-finite"):
                capacity_counts(cloud, [0.1, 0.01])
    assert capacity_counts(np.array([]), [0.1]) == [0]


def test_sorted_check_spans_block_edges(monkeypatch):
    monkeypatch.setattr(set_models, "SORTED_CHECK_BLOCK", 7)
    x = np.arange(30.0)
    assert set_models._is_sorted(x) and set_models._is_sorted(x[:1])
    assert set_models._is_sorted(x[:0]) and set_models._is_sorted(np.zeros(15))
    for j in range(29):
        y = x.copy()
        y[j], y[j + 1] = y[j + 1], y[j]
        assert not set_models._is_sorted(y)
        y = x.copy()
        y[j] = np.nan
        assert not set_models._is_sorted(y)


def test_net_order_check_spans_block_edges(monkeypatch):
    """DeltaNet checks strict order in blocks: a tie or a swap anywhere
    is refused.  An interval net of 10^6 points traces the bytes
    `discretize` states for it, 8 a point and one block, within 1%."""
    stated = 8 * 1_000_001 + set_models.SORTED_CHECK_BLOCK
    tracemalloc.start()
    try:
        net = discretize(CompactSet.interval(0, 1), 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net.n == 1_000_001 and abs(peak / stated - 1) <= 0.01
    monkeypatch.setattr(set_models, "SORTED_CHECK_BLOCK", 7)
    x = np.arange(30.0)
    assert DeltaNet(x).n == 30 and DeltaNet(x[:1]).n == 1 and DeltaNet(x[:0]).n == 0
    for j in range(29):
        for y in (np.r_[x[:j], x[j], x[j:29]], np.r_[x[:j], x[j + 1], x[j], x[j + 2:]]):
            with pytest.raises(ValueError, match="strictly increasing"):
                DeltaNet(y)


def _greedy_separated(pts, r):
    """Indices of a greedy maximal r-separated subset, in input order
    (grid hash with cell edge r: a candidate meets only 3^d cells)."""
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


def test_capacity_d2_greedy_bracketing_asserts():
    # occupied cells N against a greedy maximal separated subset M:
    # |M| <= K <= N <= 3^d |M|, with K the exact packing number
    for trial in range(12):
        d = 2 if trial < 8 else 3
        cloud = RNG.uniform(0, 1, (300, d))
        if trial % 2:
            cloud = np.cumsum(RNG.normal(0, 0.02, (300, d)), axis=0)   # path-like
        r = float(RNG.uniform(0.05, 0.4))
        kept = _greedy_separated(cloud, r * (1.0 - SEPARATION_SLACK))
        kp = cloud[kept]
        # every input point lies within r of the kept subset ...
        cover = np.max(np.abs(cloud[:, None, :] - kp[None, :, :]), axis=2)
        assert np.all(cover.min(axis=1) < r)
        # ... which is r-separated
        gram = np.max(np.abs(kp[:, None, :] - kp[None, :, :]), axis=2)
        np.fill_diagonal(gram, np.inf)
        assert gram.min() >= r * (1.0 - SEPARATION_SLACK)
        n_cells = kolmogorov_capacity(cloud, r)
        assert len(kept) <= n_cells <= 3 ** d * len(kept)


def _max_separated_exhaustive(pts, r):
    sep = r * (1.0 - SEPARATION_SLACK)
    for size in range(len(pts), 0, -1):
        for sub in itertools.combinations(pts, size):
            sub = np.array(sub)
            gram = np.max(np.abs(sub[:, None, :] - sub[None, :, :]), axis=2)
            np.fill_diagonal(gram, np.inf)
            if gram.min() >= sep:
                return size
    return 0


def test_capacity_cells_cover_exhaustive_packing():
    for trial in range(60):
        d = 2 + trial % 2
        cloud = RNG.uniform(0, 1, (int(RNG.integers(1, 9)), d))
        r = float(RNG.uniform(0.05, 0.9))
        assert kolmogorov_capacity(cloud, r) >= _max_separated_exhaustive(cloud, r)
    # points r apart on a grid aligned with the cells count exactly
    grid = np.stack(np.meshgrid(np.arange(3.0), np.arange(3.0)), axis=-1).reshape(-1, 2)
    assert kolmogorov_capacity(0.25 * grid, 0.25) == 9
    assert capacity_counts(np.empty((0, 2)), [0.5]) == [0]


# ---------------------------------------------------------------------------
# Minkowski estimates
# ---------------------------------------------------------------------------

def test_minkowski_interval():
    net = discretize(CompactSet.interval(0, 1), 2.0 ** -16)
    est = minkowski_dim_estimate(net, 2.0 ** -np.arange(4, 13))
    assert abs(est.slope - 1.0) <= 0.02


def test_minkowski_cantor_triadic():
    net = discretize(CompactSet.cantor(), 3.0 ** -12)
    est = minkowski_dim_estimate(net, 3.0 ** -np.arange(2, 11))
    assert abs(est.slope - math.log(2) / math.log(3)) <= 0.03
    # counts at triadic radii are exactly twice the cylinder count
    np.testing.assert_array_equal(est.values,
                                  [2.0 ** (k + 1) for k in range(2, 11)])


def test_minkowski_single_point_and_degenerate():
    est = minkowski_dim_estimate(np.array([0.3]), 2.0 ** -np.arange(1, 7))
    assert est.slope == 0.0
    with pytest.raises(DegenerateLadder):
        minkowski_dim_estimate(np.array([0.0, 1.0]), 2.0 ** -np.arange(4, 10))


def test_minkowski_ladder_validation():
    with pytest.raises(ValueError):
        minkowski_dim_estimate(np.array([0.0, 1.0]), [0.5, 0.25])
    with pytest.raises(ValueError):
        minkowski_dim_estimate(np.array([0.0, 1.0]), [0.5, 0.25, 0.3, 0.1, 0.05])


def test_ladder_estimate_recompute_invariant():
    net = discretize(CompactSet.cantor(), 3.0 ** -10)
    est = minkowski_dim_estimate(net, 3.0 ** -np.arange(2, 9), mode="least_squares")
    refit = LadderEstimate.fit(est.scales, est.values, mode=est.mode,
                               x_transform="log_inv")
    assert refit.slope == est.slope
    assert refit.to_dict() == est.to_dict()


def test_delta_net_requires_sorted_points():
    for bad in ([1.0, 0.0], [0.0, 0.5, 0.5, 1.0]):
        with pytest.raises(ValueError):
            DeltaNet(np.array(bad))


def test_nets_carry_their_integer_grid():
    """Interval nets are their whole grid, with `np.linspace`'s points;
    an IFS net with ratio 1/q and digits e_i / d sits at lo + m h, h =
    (hi - lo) / (d q^k).  Finite sets and IFS with no digits carry none."""
    net = discretize(CompactSet.interval(0.2, 1.7), 0.0103)
    steps = net.n - 1
    assert net.grid == (0.2, 1.5 / steps, None)
    assert np.array_equal(net.points, np.linspace(0.2, 1.7, steps + 1))
    net = discretize(CompactSet.cantor(), 1.0 / 27.0)
    t0, h, m = net.grid
    assert (t0, h) == (0.0, 1.0 / 27.0)
    assert m.tolist() == [0, 1, 2, 3, 6, 7, 8, 9, 18, 19, 20, 21, 24, 25, 26, 27]
    assert np.array_equal(net.points, t0 + m * h)
    touching = discretize(CompactSet.ifs([1 / 3] * 3, [0, 1 / 3, 2 / 3]), 0.01)
    assert touching.n == 3 ** 5 + 1 and touching.grid[2] is None
    # digits 0, 3/2 and 3: the grid of step 1 / (2 4^k), index from {0, 2}
    rational = CompactSet.ifs([0.25] * 3, [0, 0.375, 0.75])
    q, d, e = rational.params["digits"]
    assert (q, d, e.tolist()) == (4, 2, [0, 3, 6])
    t0, h, m = discretize(rational, 0.1).grid
    assert (t0, h) == (0.0, 1.0 / 32.0)
    assert m.tolist() == sorted({a + 4 * b for a in (0, 2, 3, 5, 6, 8) for b in (0, 3, 6)})
    fifths = CompactSet.ifs([0.25] * 3, [0, 0.3, 0.75])          # c = 1.2: d = 5
    assert fifths.params["digits"][1] == 5 and discretize(fifths, 0.01).grid[1] == 1 / 1280
    for cset in (CompactSet.finite(np.linspace(0.0, 1.0, 7)),
                 CompactSet.ifs([0.25] * 3, [0, 0.37, 0.75])):     # c = 1.48: d = 25
        assert cset.kind == "finite" or cset.params["digits"] is None
        assert discretize(cset, 0.01).grid is None


@pytest.mark.parametrize("cset", [CompactSet.interval(0.2, 1.7), CompactSet.cantor(),
                                  CompactSet.cantor(0.25),
                                  CompactSet.ifs([1 / 3] * 3, [0, 1 / 3, 2 / 3]),
                                  CompactSet.ifs([0.25] * 3, [0, 0.375, 0.75]),
                                  CompactSet.ifs([0.25] * 3, [0, 0.3, 0.75])],
                         ids=["interval", "cantor3", "cantor0.25", "touching", "halves",
                              "fifths"])
def test_grid_matches_points(cset):
    """Every net a set grids has point i at t0 + m_i h within 4 ulps of
    its span; interval points are `np.linspace`'s exactly."""
    for delta in (0.1, 0.003, 1e-4):
        net = discretize(cset, delta)
        t0, h, m = net.grid
        m = np.arange(net.n) if m is None else m
        assert m.dtype == np.int64 and m[0] >= 0 and np.all(np.diff(m) > 0)
        span = net.points[-1] - net.points[0]
        assert np.max(np.abs(net.points - (t0 + m * h))) <= 4 * np.spacing(span)
        if cset.kind == "interval":
            assert np.array_equal(net.points, np.linspace(0.2, 1.7, net.n))


def test_ifs_net_finer_than_the_floats_is_refused():
    """Ratio 1/100 has digits, and its step 100^-k passes 4 ulps of hi = 1
    at depth 8: the net is refused there and deeper, never handed to the
    float route (which merged it to 502 of 512 and 1,105 of 4,096
    points).  At delta 1e-12 it is still its integer grid."""
    deep = CompactSet.ifs([0.01, 0.01], [0, 0.99])
    assert deep.params["digits"][:2] == (100, 1)
    for delta in (1e-14, 1e-20):
        with pytest.raises(MeshTooFine, match="float resolution"):
            discretize(deep, delta)
    net = discretize(deep, 1e-12)
    t0, h, m = net.grid
    assert net.n == 256 and m is not None and np.array_equal(net.points, t0 + m * h)


def _ifs_endpoints(ratios, trans, depth, hull=(0.0, 1.0)):
    # direct expansion oracle over the hull, independent of the library walk
    ends = np.array(hull)
    for _ in range(depth):
        ends = np.concatenate([r * ends + t for r, t in zip(ratios, trans)])
    return np.unique(ends)


@pytest.mark.parametrize("ratios, trans, refused_at", [
    ([0.3, 0.45], [0, 0.55], 17),           # the memory budget ends it first
    ([0.011, 0.013], [0, 0.987], 8)])       # r_min^8 = 2.1e-16 < 4 * 8 ulps of 1
def test_float_route_nets_are_full_at_every_depth_the_guard_allows(ratios, trans,
                                                                 refused_at, monkeypatch):
    """Non-touching maps with no digits: each allowed depth gives all
    2^(k+1) cylinder endpoints, as the expansion oracle does; the first
    refused depth, and every deeper one, raises MeshTooFine.  The memory
    budget is set to 2^22 bytes, 32 per each of the 2^17 endpoints at
    depth 16."""
    monkeypatch.setattr(utils, "MEMORY_BUDGET", 32 * 2 ** 17)
    cset = CompactSet.ifs(ratios, trans)
    assert cset.params["digits"] is None and cset.params["hull"] == (0.0, 1.0)
    for k in range(refused_at):
        net = discretize(cset, max(ratios) ** k)
        assert net.grid is None and net.n == 2 ** (k + 1)
        assert np.array_equal(net.points, _ifs_endpoints(ratios, trans, k))
    for k in (refused_at, refused_at + 3):
        with pytest.raises(MeshTooFine):
            discretize(cset, max(ratios) ** k)


def test_touching_float_route_nets_merge_shared_ends():
    """ifs([0.3, 0.7], [0, 0.3]) tiles its hull [0, 1 - 2^-52]: the two
    depth-k cylinders that meet at a point round it apart by up to 1e-12
    (6e-22 apart at delta 0.02, 50 such pairs), and the net keeps one of
    them.  At depths 3, 6 and 9 its 2^k + 1 points lie more than the
    resolution margin (4 ulps of hi per rounding) apart, and every
    endpoint of a direct expansion lies within it of a net point."""
    cset = CompactSet.ifs([0.3, 0.7], [0, 0.3])
    hull = cset.params["hull"]
    assert cset.params["digits"] is None and hull == (0.0, 1.0 - 2.0 ** -52)
    assert discretize(cset, 0.02).n == 2 ** 11 + 1
    for k in (3, 6, 9):
        net = discretize(cset, 0.7 ** k)
        margin = 4 * k * np.spacing(hull[1])
        assert net.grid is None and net.n == 2 ** k + 1
        assert np.min(np.diff(net.points)) > margin
        ends = _ifs_endpoints([0.3, 0.7], [0, 0.3], k, hull)
        near = np.clip(np.searchsorted(net.points, ends), 1, net.n - 1)
        gap = np.minimum(np.abs(ends - net.points[near - 1]), np.abs(ends - net.points[near]))
        assert ends.size > net.n and np.max(gap) <= margin


@pytest.mark.parametrize("a, b", [(0.0, np.inf), (np.inf, np.inf), (0.0, np.nan),
                                  (np.nan, 1.0)])
def test_interval_needs_finite_endpoints(a, b):
    with pytest.raises(ValueError, match=r"interval needs 0 <= a <= b < inf"):
        CompactSet.interval(a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nets_and_finite_sets_reject_non_finite_points(bad):
    with pytest.raises(ValueError, match=f"point {bad!r} is not finite"):
        DeltaNet(np.array([0.0, 0.5, bad]))
    with pytest.raises(ValueError, match=f"point {bad!r} is not finite"):
        CompactSet.finite([0.0, bad, 1.0])
