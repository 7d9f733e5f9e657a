"""Profile estimators and the theta index."""

import json
import math
import time

import numpy as np
import pytest

from fracdim import energy_min, profiles, utils
from fracdim.energy_min import (EnergyResult, SimplexWeights,
                                _assemble, _exp_potential, _grid_layout,
                                exp_kernel_min_energy, rung_min_energy)
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
        assert rung["converged"] is (rung["status"] == "gap")
    # eps halves and the Cantor depth steps 5, 5, 6, 7: only a rung after
    # the first may start warm, the repeated net cannot, and at depth 7
    # the minorant start is lower
    assert [r["n"] for r in data["rungs"]] == [64, 64, 128, 256]
    assert [r["start"] for r in data["rungs"]] == ["minorant", "minorant", "warm", "minorant"]
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


def test_psd_rungs_carry_the_duality_bound(monkeypatch):
    """Exponential (closed-form) rungs and exact Cauchy rungs, whose
    kernels are positive semidefinite, report Z_lower = m (m / Z) with
    m = min_i (Kw)_i at the returned weights, recomputed here by each
    rung's own product; Z - gap <= Z_lower <= Z, and the ratio is at
    most 1 / (1 - tol)."""
    tol = 1e-6
    cauchy = KernelFamily.exact(LevyModel.isotropic_stable(1.0))
    potentials = []

    def exp_rung(points, a, tol):
        res = exp_kernel_min_energy(points, a, tol)
        potentials.append(_exp_potential(res.weights.points, a, res.weights.w))
        return res

    def cauchy_rung(family, e, net, tol, **kw):
        res = rung_min_energy(family, e, net, tol, **kw)
        K = _assemble(lambda r: family.evaluate(e, r), net.points,
                      _grid_layout(net), distinct=True)
        potentials.append(K.values @ res.weights.w)
        return res

    monkeypatch.setattr(profiles, "exp_kernel_min_energy", exp_rung)
    monkeypatch.setattr(profiles, "rung_min_energy", cauchy_rung)
    reports = [
        subordinator_box_dim(LaplaceExponent.stable(0.5), CompactSet.interval(0, 1),
                             10.0 * 4.0 ** np.arange(5), tol=tol),
        subordinator_box_dim(LaplaceExponent.compound_poisson_drift(0.0, 1.0, 1.0),
                             CompactSet.cantor(), 10.0 * 4.0 ** np.arange(4), tol=tol),
        box_profile(CompactSet.interval(0, 1), cauchy, 0.2 * 0.5 ** np.arange(3),
                    tol=tol),
    ]
    rungs = [rung for rep in reports for rung in rep.rungs]
    assert len(potentials) == len(rungs)
    for rung, pot in zip(rungs, potentials):
        assert rung["status"] == "gap"
        m = min(rung["Z"], float(pot.min()))
        assert rung["Z_lower"] == m * (m / rung["Z"])
        assert rung["Z"] - rung["duality_gap"] <= rung["Z_lower"] <= rung["Z"]
        assert 1.0 <= rung["ratio"] <= 1.0 / (1.0 - tol)


def test_fh_rungs_bracketed_by_minorant_on_c6_c7_ladders():
    """Every rung is bracketed by its convex minorant's minimum,
    Z_lower <= Z <= R(s) Z_lower.  Interval rungs and the first Cantor
    rung start at the minorant, Cantor rungs 2-6 at the previous rung's
    weights, and together these starts keep the Frank-Wolfe work of the
    C7 and C6 Cantor ladders (the fh_profile benchmark's two) under
    11,000 iterations, one start per rung.  Iteration counts are
    deterministic."""
    eps_i = 0.028 * (1.0 / 3.0) ** np.arange(4)
    reports = [
        (0.5, fh_profile(CompactSet.interval(0, 1), 0.5, eps_i, mesh_ratio=5.0,
                         restarts=2, seed=0)),
        (1.5, fh_profile(CompactSet.interval(0, 1), 1.5, eps_i, mesh_ratio=5.0,
                         restarts=2, seed=0)),
        (1.5, fh_profile(CompactSet.cantor(), 1.5, 3.0 ** -np.arange(2, 8.0),
                         restarts=2, seed=0)),
    ]
    starts = [["minorant"] * 4, ["minorant"] * 4, ["minorant"] + ["warm"] * 5]
    for (s, rep), want in zip(reports, starts):
        R = 1.0 / (1.0 - s / (1.0 + s) * (1.0 + s) ** (-1.0 / s))
        assert [rung["start"] for rung in rep.rungs] == want
        for rung in rep.rungs:
            assert rung["restarts_used"] == 1
            assert rung["Z_lower"] is not None
            assert rung["Z_lower"] <= rung["Z"] * (1 + 1e-9)
            assert rung["Z"] <= R * rung["Z_lower"] * (1 + 1e-9)
            assert rung["ratio"] == rung["Z"] / rung["Z_lower"]
    assert sum(rung["iterations"] for i in (0, 2)
               for rung in reports[i][1].rungs) <= 11_000


def _timed_bracketed_ladder(s, budget_s, *args, **kw):
    """fh_profile(*args, **kw), run within budget_s seconds, with every rung
    converged inside its minorant bracket Z_lower <= Z <= R(s) Z_lower."""
    t0 = time.perf_counter()
    rep = fh_profile(*args, **kw)
    assert time.perf_counter() - t0 <= budget_s
    R = 1.0 / (1.0 - s / (1.0 + s) * (1.0 + s) ** (-1.0 / s))
    for rung in rep.rungs:
        assert rung["converged"] and rung["Z_lower"] is not None
        assert rung["Z_lower"] <= rung["Z"] * (1 + 1e-9)
        assert rung["Z"] <= R * rung["Z_lower"] * (1 + 1e-9)
    return rep


def test_c7_ladder_with_a_fifth_rung():
    """C7's ladder with a fifth rung, eps = 0.028 3^-4 on 14,466 points,
    whose grid rung is within the memory budget.  Time budget 10 s: it
    took 2.0-2.6 s on 2 cores (Xeon)."""
    rep = _timed_bracketed_ladder(0.5, 10.0, CompactSet.interval(0, 1), 0.5,
                                  0.028 * 3.0 ** -np.arange(5), mesh_ratio=5.0,
                                  restarts=2, seed=0)
    assert [rung["n"] for rung in rep.rungs] == [180, 537, 1609, 4823, 14466]


def test_c6_cantor_ladder_to_depth_9():
    """C6's Cantor ladder (s = 3/2) to eps = 3^-9: 8,192 points on a grid
    of 3^12 + 1, within the memory budget.  Time budget 6 s: it took
    1.1-1.4 s on 2 cores (Xeon)."""
    rep = _timed_bracketed_ladder(1.5, 6.0, CompactSet.cantor(), 1.5,
                                  3.0 ** -np.arange(2, 10.0), restarts=2, seed=0)
    assert [rung["n"] for rung in rep.rungs] == [2 ** k for k in range(6, 14)]


def _cold_ladder(monkeypatch, *args, **kw):
    """fh_profile with no warm start offered, as before warm starts."""
    with monkeypatch.context() as patch:
        patch.setattr(energy_min, "_warm_start", lambda net, prev: None)
        return fh_profile(*args, **kw)


def test_interval_ladders_never_warm_start(monkeypatch):
    """Interval nets are whole grids, not translates of the previous
    rung, so no rung of the C6 interval or C7 ladder is offered a warm
    start, and each report is byte-identical to one solved with warm
    starts switched off."""
    offered = []
    warm_start = energy_min._warm_start
    monkeypatch.setattr(energy_min, "_warm_start",
                        lambda net, prev: offered.append(warm_start(net, prev)))
    eps_i = 0.028 * (1.0 / 3.0) ** np.arange(4)
    for s in (0.5, 1.5):
        args = (CompactSet.interval(0, 1), s, eps_i)
        kw = dict(mesh_ratio=5.0, restarts=2, seed=0)
        rep = fh_profile(*args, **kw)
        assert offered == [None] * 4
        offered.clear()
        assert json.dumps(rep.to_json_dict()) == json.dumps(
            _cold_ladder(monkeypatch, *args, **kw).to_json_dict())


def test_cantor_ladder_warm_starts_only_where_the_index_is_translated(monkeypatch):
    """With eps halving (depths 5, 5, 6, 7, 7, 8) or falling ninefold
    (depths 4, 6, 8), a rung is offered the warm start exactly when its
    index is M >= 2 translates of the previous rung's, and a rung whose
    net repeats the previous one starts at the minorant."""
    offered = []
    warm_start = energy_min._warm_start

    def recorded(net, prev):
        warm = warm_start(net, prev)
        offered.append(warm is not None)
        return warm

    monkeypatch.setattr(energy_min, "_warm_start", recorded)
    for eps, depths in ((0.1 * 0.5 ** np.arange(6), [5, 5, 6, 7, 7, 8]),
                        (0.3 / 9.0 ** np.arange(3), [4, 6, 8])):
        offered.clear()
        rep = fh_profile(CompactSet.cantor(), 1.5, eps, restarts=2, seed=0)
        assert [r["n"] for r in rep.rungs] == [2 ** (k + 1) for k in depths]
        nets = [discretize(CompactSet.cantor(), e / 10) for e in eps]
        translated = [False] + [b.n > a.n and energy_min._translate_blocks(b.grid[2], a.grid[2])
                                for a, b in zip(nets, nets[1:])]
        assert translated == [k > 0 and depths[k] > depths[k - 1] for k in range(len(depths))]
        assert offered == translated
        for rung, ok in zip(rep.rungs, translated):
            assert rung["start"] in (("minorant", "warm") if ok else ("minorant",))
        assert any(r["start"] == "warm" for r in rep.rungs)


def test_c6_warm_started_rungs_match_minorant_started_solves(monkeypatch):
    """Each warm-started C6 Cantor rung (rungs 2-6) reaches Z within
    1e-12 relative of the same rung started at the minorant, and the
    same Z_lower: the minorant solve does not depend on the start."""
    eps = 3.0 ** -np.arange(2, 8.0)
    warm = fh_profile(CompactSet.cantor(), 1.5, eps, restarts=2, seed=0)
    cold = _cold_ladder(monkeypatch, CompactSet.cantor(), 1.5, eps, restarts=2, seed=0)
    assert [r["start"] for r in warm.rungs] == ["minorant"] + ["warm"] * 5
    assert all(r["start"] == "minorant" for r in cold.rungs)
    for a, b in zip(warm.rungs, cold.rungs):
        assert abs(a["Z"] - b["Z"]) <= 1e-12 * b["Z"]
        assert a["Z_lower"] == b["Z_lower"]
    assert abs(warm.estimate - cold.estimate) <= 1e-12


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


def test_bad_ladder_is_rejected_before_any_rung(monkeypatch):
    # repeated, non-finite, non-positive or single scales raise before a
    # net is built or a rung solved
    calls = []
    for name in ("discretize", "rung_min_energy", "exp_kernel_min_energy"):
        monkeypatch.setattr(profiles, name, lambda *a, **k: calls.append(a))
    cset = CompactSet.interval(0, 1)
    for eps in ([0.01, 0.01, 0.005], [0.1, np.nan, 0.01], [np.inf, 0.1, 0.01],
                [0.1, 0.0], [0.1]):
        with pytest.raises(ValueError, match="eps ladder"):
            fh_profile(cset, 0.5, eps, mesh_ratio=5.0)
    for lam in ([10.0, 10.0, 40.0], [10.0, np.nan, 40.0], [10.0, np.inf],
                [0.0, 10.0], [10.0]):
        with pytest.raises(ValueError, match="lam ladder"):
            subordinator_box_dim(LaplaceExponent.stable(0.5), cset, lam)
    assert calls == []


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
    # Phi(lam) = lam: a rung at lam = 1000 needs a 10001-point net, whose
    # dense matrix would hold 800 MB, three times the memory budget, and
    # is solved without forming a matrix
    drift = LaplaceExponent.compound_poisson_drift(0.0, 1.0, 1.0)
    lam = np.array([10.0, 100.0, 1000.0])
    rep = subordinator_box_dim(drift, CompactSet.interval(0, 1), lam)
    assert 8 * rep.rungs[-1]["n"] ** 2 > 2 * utils.MEMORY_BUDGET
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
