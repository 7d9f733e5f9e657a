"""Sets, nets, capacity, and Minkowski estimates."""

import math

import numpy as np
import pytest

from fracdim.errors import DegenerateLadder, MeshTooFine
from fracdim.ladders import LadderEstimate
from fracdim.oracles import max_separated_1d
from fracdim.set_models import (CompactSet, DeltaNet, _capacity_greedy,
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
    net = discretize(CompactSet.finite([1.0, 0.0]), 0.37)
    np.testing.assert_array_equal(net.points, [0.0, 1.0])


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


def test_mesh_too_fine():
    with pytest.raises(MeshTooFine):
        discretize(CompactSet.interval(0, 1), 1e-9)
    with pytest.raises(MeshTooFine):
        discretize(CompactSet.cantor(), 1e-9, point_cap=1000)
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


def test_capacity_d2_greedy_bracketing_asserts():
    for _ in range(10):
        cloud = RNG.uniform(0, 1, (300, 2))
        r = float(RNG.uniform(0.05, 0.4))
        kept = _capacity_greedy(cloud, r)
        kp = cloud[kept]
        # every input point lies within r of the kept subset ...
        cover = np.max(np.abs(cloud[:, None, :] - kp[None, :, :]), axis=2)
        assert np.all(cover.min(axis=1) < r)
        # ... which is r-separated
        gram = np.max(np.abs(kp[:, None, :] - kp[None, :, :]), axis=2)
        np.fill_diagonal(gram, np.inf)
        assert gram.min() >= r
        assert kolmogorov_capacity(cloud, r) == len(kept)


# ---------------------------------------------------------------------------
# Minkowski estimates
# ---------------------------------------------------------------------------

def test_minkowski_interval():
    net = discretize(CompactSet.interval(0, 1), 2.0 ** -16)
    est = minkowski_dim_estimate(net, 2.0 ** -np.arange(4, 13))
    assert abs(est.slope - 1.0) <= 0.02


def test_minkowski_cantor_triadic():
    net = discretize(CompactSet.cantor(), 3.0 ** -12, point_cap=20_000)
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
    net = discretize(CompactSet.cantor(), 3.0 ** -10, point_cap=20_000)
    est = minkowski_dim_estimate(net, 3.0 ** -np.arange(2, 9), mode="least_squares")
    refit = LadderEstimate.fit(est.scales, est.values, mode=est.mode,
                               x_transform=lambda s: np.log(1.0 / s))
    assert refit.slope == est.slope
    assert refit.to_dict() == est.to_dict()


def test_delta_net_requires_sorted_points():
    with pytest.raises(ValueError):
        DeltaNet(np.array([1.0, 0.0]))
