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
from fracdim.process_models import KernelFamily, LaplaceExponent
from fracdim.profiles import (_ladder_report, box_profile, fh_profile,
                              fh_subordinator_predicted, subordinator_box_dim,
                              theta_index)
from fracdim.set_models import CompactSet

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
    est = LadderEstimate.fit(scales, np.ones(5), y_transform=lambda v: -np.log(v))
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
        assert set(rung) == {"n", "Z", "Z_lower", "duality_gap", "iterations",
                             "restarts_used", "start", "converged",
                             "flagged_nonconvex"}
        assert rung["n"] >= 2 and rung["restarts_used"] >= 1
        assert rung["start"] in ("companion", "uniform")
    assert data["converged"] is all(r["converged"] for r in data["rungs"])
    rows = cpath.read_text().strip().splitlines()
    assert rows[0] == "set,family,s_or_phi,scale,Z_or_value"
    assert len(rows) == 1 + len(eps)


def test_fh_rungs_bracketed_by_companion_on_c6_c7_ladders():
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
        for rung in rep.rungs:
            assert rung["start"] == "companion" and rung["Z_lower"] is not None
            assert rung["Z_lower"] <= rung["Z"] * (1 + 1e-9)
            assert rung["Z"] <= 2.0 ** s * rung["Z_lower"]


def test_unconverged_rung_flags_the_report():
    cset = CompactSet.interval(0, 1)
    scales = np.array([0.1, 0.05])
    ladder = LadderEstimate.fit(scales, np.array([0.5, 0.4]), mode="upper")

    def result(converged):
        return EnergyResult(value=0.5, weights=SimplexWeights.uniform([0.0, 1.0]),
                            duality_gap=0.1, iterations=3, converged=converged)

    ok = _ladder_report(cset, "fh", {}, ladder, [0.01, 0.005],
                        [result(True), result(True)])
    assert ok.to_json_dict()["converged"] is True
    bad = _ladder_report(cset, "fh", {}, ladder, [0.01, 0.005],
                         [result(True), result(False)])
    assert bad.to_json_dict()["converged"] is False


# ---------------------------------------------------------------------------
# subordinator criterion
# ---------------------------------------------------------------------------

def test_subordinator_drift_against_exact_integral():
    lam = 2.0 * 3.0 ** np.arange(5)
    drift = LaplaceExponent.compound_poisson_drift(0.0, 1.0, 1.0)
    rep = subordinator_box_dim(drift, CompactSet.interval(0, 1), lam)
    exact = np.array([interval_exp_kernel_energy(x) for x in lam])
    exact_slope = LadderEstimate.fit(lam, exact, mode="upper",
                                     y_transform=lambda v: -np.log(v)).slope
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
