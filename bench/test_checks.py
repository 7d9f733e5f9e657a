"""Each benchmark checker accepts the right value and rejects a perturbed one.

    python3 -m pytest bench -q
"""

import math

import numpy as np
import pytest

import checks


def _dense_exp_min_energy(a, mesh):
    t = checks.interval_net(mesh)
    K = np.exp(-a * np.abs(t[:, None] - t[None, :]))
    v = np.linalg.solve(K, np.ones(t.size))
    assert np.all(v > 0)                 # the minimizer K^-1 1 is feasible
    return 1.0 / v.sum()


@pytest.mark.parametrize("a,mesh", [(0.5, 0.25), (3.0, 0.1), (40.0, 1 / 64)])
def test_exp_kernel_formula_matches_dense_solve(a, mesh):
    assert checks.exp_kernel_grid_energy(a, mesh) == pytest.approx(
        _dense_exp_min_energy(a, mesh), rel=1e-12)


def test_subordinator_rungs_reject_perturbed_z():
    phi = math.sqrt
    lams, meshes = [10.0, 40.0], [0.1 / math.sqrt(10.0), 0.1 / math.sqrt(40.0)]
    exact = [checks.exp_kernel_grid_energy(phi(l), m) for l, m in zip(lams, meshes)]
    assert checks.subordinator_rungs(phi, lams, meshes, exact, 1e-6) == [True, True]
    bumped = [exact[0], exact[1] * (1 + 1e-5)]
    assert checks.subordinator_rungs(phi, lams, meshes, bumped, 1e-6) == [True, False]


def test_cantor_net_is_cylinder_endpoints():
    pts = checks.cantor_net(1.0 / 9.0)
    assert pts.tolist() == pytest.approx([0, 1 / 9, 2 / 9, 1 / 3, 2 / 3, 7 / 9, 8 / 9, 1])
    assert checks.cantor_net(3.0 ** -7 / 10).size == 2048


def test_fh_uniform_energy_two_points():
    # points 0 and 1, eps = 0.25, s = 1: (1 + 1 + 2 * 0.25) / 4
    assert checks.fh_uniform_energy(np.array([0.0, 1.0]), 1.0, 0.25) == pytest.approx(0.625)


@pytest.mark.parametrize("kind,s,eps", [("interval", 0.5, 0.028), ("cantor", 1.5, 1 / 27)])
def test_fh_rungs_reject_z_above_uniform_energy(kind, s, eps):
    mesh = eps / 10.0
    uniform = checks.fh_uniform_energy(checks.NETS[kind](mesh), s, eps)
    assert checks.fh_rungs(kind, s, [eps], [mesh], [0.9 * uniform]) == [True]
    assert checks.fh_rungs(kind, s, [eps], [mesh], [1.001 * uniform]) == [False]


def test_within_rejects_off_target():
    assert checks.within(0.54, 0.5, 0.05)
    assert not checks.within(0.56, 0.5, 0.05)


def test_counts_monotone_rejects_a_decrease():
    counts = [[2, 3, 5, 9], [2, 4, 3, 9]]
    assert checks.counts_monotone(counts) == [True, False]


@pytest.mark.parametrize("mode", ["upper", "least_squares"])
def test_median_slope_recovers_and_rejects(mode):
    radii = 2.0 ** -np.arange(3, 13, dtype=float)
    exact = np.round(8.0 * (1.0 / radii) ** 0.8)
    counts = np.vstack([exact] * 3)
    assert checks.within(checks.median_slope(radii, counts, mode), 0.8, 0.02)
    steeper = counts * (1.0 / radii) ** 0.15
    assert not checks.within(checks.median_slope(radii, steeper, mode), 0.8, 0.1)


def test_upper_mode_takes_the_largest_fine_chord():
    radii = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
    counts = np.array([1.0, 2.0, 4.0, 16.0, 32.0])     # chords in the finer half: 2, 1.5, 1
    assert checks.path_slope(radii, counts, "upper") == pytest.approx(2.0)


def test_verify_reports_reject_failure_and_difference():
    report = {"criteria": [{"id": "C1", "passed": True, "details": {"x": 0.1}},
                           {"id": "C4", "passed": True, "details": {}}]}
    assert checks.criteria_passed(report) == [True, True]
    failing = {"criteria": [dict(report["criteria"][0], passed=False)]}
    assert checks.criteria_passed(failing) == [False]
    other = {"criteria": [{"id": "C1", "passed": True,
                           "details": {"x": np.nextafter(0.1, 1.0)}},
                          report["criteria"][1]]}
    assert checks.same_bytes(report, report)
    assert not checks.same_bytes(report, other)
