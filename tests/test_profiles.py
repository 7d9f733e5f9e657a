"""Profile estimators and the theta index."""

import json
import math

import numpy as np
import pytest

from fracdim.energy_min import DENSE_NET_CAP, EnergyResult, SimplexWeights
from fracdim.errors import NonConvergedQuadrature
from fracdim.ladders import MODES, LadderEstimate
from fracdim.oracles import (fh_interval_uniform_energy,
                             interval_exp_kernel_energy, theta_power_law)
from fracdim.process_models import KernelFamily, LaplaceExponent, LevyModel
from fracdim.profiles import (_ladder_report, box_profile, fh_profile,
                              fh_subordinator_predicted, subordinator_box_dim,
                              theta_index)
from fracdim.set_models import CompactSet, discretize, minkowski_dim_estimate
from fracdim.simulate import sample_path

LOG23 = math.log(2) / math.log(3)


# ---------------------------------------------------------------------------
# box / power-law profiles
# ---------------------------------------------------------------------------

def test_singleton_profile_is_zero():
    eps = 0.1 * 0.5 ** np.arange(5)
    rep = box_profile(CompactSet.finite([0.0]), KernelFamily.fh(1.0), eps)
    assert rep.estimate == 0.0
    # Z = 1 on every rung: the fitted record equals the one written out
    # field by field, with no negative zeros
    zs = np.array([r["Z"] for r in rep.rungs])
    assert np.all(zs == 1.0)
    expected = LadderEstimate(scales=eps, values=zs, mode="upper", slope=0.0,
                              intercept=float(np.log(zs[0])), max_residual=0.0,
                              all_slopes={m: 0.0 for m in MODES})
    assert (json.dumps(rep.ladder.to_dict(), sort_keys=True)
            == json.dumps(expected.to_dict(), sort_keys=True))


def test_constant_ladder_fit_is_exactly_zero():
    scales = 0.1 * 0.5 ** np.arange(5)
    for mode in MODES:
        est = LadderEstimate.fit(scales, np.full(5, 0.3), mode=mode)
        assert est.slope == 0.0 and math.copysign(1.0, est.slope) == 1.0
        assert est.all_slopes == {m: 0.0 for m in MODES}
        assert est.intercept == math.log(0.3)
        assert est.max_residual == 0.0
    est = LadderEstimate.fit(scales, np.ones(5), y_transform="neg_log")
    assert math.copysign(1.0, est.intercept) == 1.0      # 0.0, not -0.0


def test_two_point_profile_is_zero():
    eps = 0.1 * 0.5 ** np.arange(10)      # nets stay at 2 points: go deep
    rep = fh_profile(CompactSet.finite([0.0, 1.0]), 0.7, eps)
    assert abs(rep.estimate) <= 0.02      # Z is pinned above 1/2


def test_interval_profile_s2_matches_packing_dimension():
    eps = 0.03 * (1.0 / 3.0) ** np.arange(3)
    rep = fh_profile(CompactSet.interval(0, 1), 2.0, eps, restarts=2, seed=0)
    assert abs(rep.estimate - 1.0) <= 0.05
    assert rep.self_cover and rep.in_window


def test_interval_profile_s_half_scaling_with_uniform_oracle():
    eps = 0.028 * (1.0 / 3.0) ** np.arange(3)
    rep = fh_profile(CompactSet.interval(0, 1), 0.5, eps, mesh_ratio=5.0,
                     restarts=2, seed=0)
    uni = np.array([fh_interval_uniform_energy(0.5, e) for e in eps])
    oracle_slope = LadderEstimate.fit(eps, uni, mode="upper").slope
    assert abs(rep.estimate - oracle_slope) <= 0.03
    assert np.all(rep.ladder.values <= uni + 1e-9)   # minimality vs uniform


def test_cantor_profile_monotone_in_s():
    eps = 3.0 ** -np.arange(2, 6, dtype=float)
    cantor = CompactSet.cantor()
    lo = fh_profile(cantor, 0.4, eps, restarts=2, seed=0).estimate
    hi = fh_profile(cantor, 1.2, eps, restarts=2, seed=0).estimate
    assert lo <= hi + 0.03


RUNG_KEYS = {"n", "Z", "Z_lower", "ratio", "duality_gap", "iterations",
             "restarts_used", "start", "converged", "status"}


def test_profile_report_roundtrip(tmp_path):
    eps = 0.1 * 0.5 ** np.arange(4)
    rep = fh_profile(CompactSet.cantor(), 1.0, eps, restarts=1, seed=0)
    cpath = tmp_path / "rep.csv"
    rep.write_csv(cpath)
    data = json.loads(json.dumps(rep.to_json_dict()))
    assert data["estimate"] == rep.estimate
    assert data["ladder"]["values"] == [float(v) for v in rep.ladder.values]
    assert [r["Z"] for r in data["rungs"]] == data["ladder"]["values"]
    for rung in data["rungs"]:
        assert set(rung) == RUNG_KEYS
        assert rung["n"] >= 2 and rung["restarts_used"] >= 1
        assert rung["start"] in ("minorant", "uniform")
        assert rung["converged"] is (rung["status"] == "gap")
    assert data["converged"] is all(r["converged"] for r in data["rungs"])
    rows = cpath.read_text().strip().splitlines()
    assert rows[0] == "set,family,s_or_phi,scale,Z_or_value"
    assert len(rows) == 1 + len(eps)
    # the exact-kernel and closed-form routes emit the same rung keys
    cauchy = KernelFamily.exact(LevyModel.isotropic_stable(1.0))
    others = [box_profile(CompactSet.interval(0, 1), cauchy, eps[:3]),
              subordinator_box_dim(LaplaceExponent.stable(0.5),
                                   CompactSet.interval(0, 1),
                                   10.0 * 4.0 ** np.arange(3))]
    for other in others:
        for rung in json.loads(json.dumps(other.to_json_dict()))["rungs"]:
            assert set(rung) == RUNG_KEYS
    assert all(r["status"] == "gap" and r["start"] is None
               for r in others[1].rungs)


def test_psd_rungs_carry_the_duality_bound():
    """Exponential (closed-form) rungs and exact Cauchy rungs, whose
    kernels are positive semidefinite, report Z_lower = Z - gap, so their
    ratio is at most 1 / (1 - tol)."""
    tol = 1e-6
    cauchy = KernelFamily.exact(LevyModel.isotropic_stable(1.0))
    reports = [
        subordinator_box_dim(LaplaceExponent.stable(0.5), CompactSet.interval(0, 1),
                             10.0 * 4.0 ** np.arange(5), tol=tol),
        subordinator_box_dim(LaplaceExponent.compound_poisson_drift(0.0, 1.0, 1.0),
                             CompactSet.cantor(), 10.0 * 4.0 ** np.arange(4), tol=tol),
        box_profile(CompactSet.interval(0, 1), cauchy, 0.2 * 0.5 ** np.arange(3),
                    tol=tol),
    ]
    for rep in reports:
        for rung in rep.rungs:
            assert rung["status"] == "gap"
            assert rung["Z_lower"] == rung["Z"] - rung["duality_gap"]
            assert 1.0 <= rung["ratio"] <= 1.0 / (1.0 - tol)


def test_fh_rungs_bracketed_by_companion_on_c6_c7_ladders():
    """Every rung is bracketed by its convex minorant's minimum,
    Z_lower <= Z <= R(s) Z_lower, and the minorant start keeps the
    Frank-Wolfe work of the C7 and C6 Cantor ladders (the fh_profile
    benchmark's two) under 20,000 iterations, one start per rung.
    Iteration counts are deterministic."""
    eps_i = 0.028 * (1.0 / 3.0) ** np.arange(4)
    reports = [
        (0.5, fh_profile(CompactSet.interval(0, 1), 0.5, eps_i, mesh_ratio=5.0,
                         restarts=2, seed=0)),
        (1.5, fh_profile(CompactSet.interval(0, 1), 1.5, eps_i, mesh_ratio=5.0,
                         restarts=2, seed=0)),
        (1.5, fh_profile(CompactSet.cantor(), 1.5, 3.0 ** -np.arange(2, 8.0),
                         restarts=2, seed=0)),
    ]
    for s, rep in reports:
        R = 1.0 / (1.0 - s / (1.0 + s) * (1.0 + s) ** (-1.0 / s))
        for rung in rep.rungs:
            assert rung["start"] == "minorant" and rung["restarts_used"] == 1
            assert rung["Z_lower"] is not None
            assert rung["Z_lower"] <= rung["Z"] * (1 + 1e-9)
            assert rung["Z"] <= R * rung["Z_lower"] * (1 + 1e-9)
            assert rung["ratio"] == rung["Z"] / rung["Z_lower"]
    assert sum(rung["iterations"] for i in (0, 2)
               for rung in reports[i][1].rungs) <= 20_000


def test_c6_interval_rungs_stay_within_3_3_percent_of_the_minorant():
    """The s = 3/2 interval rungs are nonconvex, and the away-vertex rule
    picks the stationary point Frank-Wolfe lands on.  Scoring a step by
    its decrease capped at the away vertex's mass lands at Z/Z_lower
    1.031-1.033; the uncapped score delta^2 / max(c, tau) empties the
    points within eps of the Frank-Wolfe vertex first and lands at
    1.035-1.037."""
    eps_i = 0.028 * (1.0 / 3.0) ** np.arange(4)
    rep = fh_profile(CompactSet.interval(0, 1), 1.5, eps_i, mesh_ratio=5.0,
                     restarts=2, seed=0)
    assert all(rung["status"] == "gap" for rung in rep.rungs)
    assert max(rung["ratio"] for rung in rep.rungs) <= 1.033


def test_ladders_refit_from_their_own_json():
    """Profile, subordinator and simulated-image ladders name their axis
    transforms, and re-fitting each ladder's JSON reproduces its slope
    bit for bit."""
    unit = CompactSet.interval(0, 1)
    net = discretize(unit, 1 / 256)
    model = LevyModel.subordinator(LaplaceExponent.stable(0.5))
    path = sample_path(model.increment_sampler(np.diff(net.points, prepend=0.0)),
                       net, seed=0)
    ladders = [fh_profile(CompactSet.cantor(), 1.0, 0.1 * 0.5 ** np.arange(4),
                          restarts=1).ladder,
               subordinator_box_dim(LaplaceExponent.stable(0.5), unit,
                                    [10.0, 40.0, 160.0]).ladder,
               minkowski_dim_estimate(path.values, 2.0 ** -np.arange(1, 7))]
    names = []
    for ladder in ladders:
        data = json.loads(json.dumps(ladder.to_dict()))
        refit = LadderEstimate.fit(data["scales"], data["values"], data["mode"],
                                   data["x_transform"], data["y_transform"])
        assert refit.slope == data["slope"]
        names.append((data["x_transform"], data["y_transform"]))
    assert names == [("log", "log"), ("log", "neg_log"), ("log_inv", "log")]
    with pytest.raises(KeyError):
        LadderEstimate.fit([1.0, 2.0], [1.0, 2.0], y_transform="exp")


def test_unconverged_rung_flags_the_report():
    cset = CompactSet.interval(0, 1)
    scales = np.array([0.1, 0.05])
    ladder = LadderEstimate.fit(scales, np.array([0.5, 0.4]), mode="upper")

    def result(status):
        return EnergyResult(value=0.5, weights=SimplexWeights.uniform([0.0, 1.0]),
                            duality_gap=0.1, iterations=3, status=status)

    ok = _ladder_report(cset, "fh", {}, ladder, [0.01, 0.005],
                        [result("gap"), result("gap")])
    assert ok.to_json_dict()["converged"] is True
    for status in ("stall", "iters"):
        bad = _ladder_report(cset, "fh", {}, ladder, [0.01, 0.005],
                             [result("gap"), result(status)]).to_json_dict()
        assert bad["converged"] is False
        assert [(r["converged"], r["status"]) for r in bad["rungs"]] == [
            (True, "gap"), (False, status)]


# ---------------------------------------------------------------------------
# subordinator criterion
# ---------------------------------------------------------------------------

def test_subordinator_drift_against_exact_integral():
    lam = 2.0 * 3.0 ** np.arange(5)
    drift = LaplaceExponent.compound_poisson_drift(0.0, 1.0, 1.0)
    rep = subordinator_box_dim(drift, CompactSet.interval(0, 1), lam)
    exact = np.array([interval_exp_kernel_energy(x) for x in lam])
    exact_slope = LadderEstimate.fit(lam, exact, mode="upper",
                                     y_transform="neg_log").slope
    assert abs(rep.estimate - exact_slope) <= 0.03
    # minimum energy never exceeds the uniform-measure energy
    assert np.all(rep.ladder.values <= exact * 1.02)


def test_subordinator_rung_beyond_dense_cap_is_exact():
    # Phi(lam) = lam: a rung at lam = 1000 needs a 10001-point net, twice
    # the dense-matrix cap, and is solved without forming a matrix
    drift = LaplaceExponent.compound_poisson_drift(0.0, 1.0, 1.0)
    lam = np.array([10.0, 100.0, 1000.0])
    rep = subordinator_box_dim(drift, CompactSet.interval(0, 1), lam)
    assert rep.rungs[-1]["n"] > DENSE_NET_CAP
    for a, mesh, z in zip(lam, rep.mesh_per_scale, rep.ladder.values):
        m = math.ceil(1.0 / mesh)
        assert abs(z - 1.0 / (1.0 + m * math.tanh(a / (2.0 * m)))) <= 1e-12 * z
    assert all(r["iterations"] == 0 and r["restarts_used"] == 1
               and r["converged"] for r in rep.rungs)


def test_subordinator_power_law_recovers_index():
    rep = subordinator_box_dim(LaplaceExponent.stable(0.5),
                               CompactSet.interval(0, 1),
                               10.0 * 4.0 ** np.arange(6))
    assert abs(rep.estimate - 0.5) <= 0.05


def test_subordinator_singleton_is_zero():
    rep = subordinator_box_dim(LaplaceExponent.stable(0.5),
                               CompactSet.finite([0.3]),
                               4.0 ** np.arange(1, 6))
    assert rep.estimate == 0.0


# ---------------------------------------------------------------------------
# theta index
# ---------------------------------------------------------------------------

def test_theta_power_law_cases():
    for beta, s in ((0.5, 0.7), (0.8, 0.5)):
        th = theta_index(LaplaceExponent.stable(beta), s, lam_max=1e26)
        assert abs(th - theta_power_law(beta, s)) <= 0.02
    # beta = s carries a log correction; needs the long ladder
    th = theta_index(LaplaceExponent.stable(0.5), 0.5, lam_max=1e26)
    assert abs(th) <= 0.02


def test_theta_constant_tail_is_one():
    assert abs(theta_index(lambda lam: 2.0, 1.0) - 1.0) <= 0.02


def test_theta_rejects_small_s():
    with pytest.raises(ValueError):
        theta_index(LaplaceExponent.stable(0.5), 0.3)


def test_theta_detects_blowup():
    with pytest.raises(NonConvergedQuadrature):
        theta_index(lambda lam: np.exp(-lam), 1.0, lam_max=1e8)


def test_predicted_profile_algebra():
    assert abs(fh_subordinator_predicted(LaplaceExponent.stable(0.5), 0.7,
                                         lam_max=1e26) - 0.5) <= 0.02
    assert abs(fh_subordinator_predicted(LaplaceExponent.stable(0.8), 0.5,
                                         lam_max=1e26) - 0.5) <= 0.02


def test_theta_in_unit_interval_and_prediction_bounds():
    for beta in (0.3, 0.6, 0.9):
        for s in (0.5, 1.0, 1.7):
            th = theta_index(LaplaceExponent.stable(beta), s, lam_max=1e10)
            assert 0.0 <= th <= 1.0
            pred = s * (1 - th)
            assert -1e-9 <= pred <= s + 1e-9
