"""Path sampling and image box-counting."""

import numpy as np
from scipy import stats

from fracdim.process_models import LaplaceExponent, LevyModel
from fracdim.profiles import fh_profile
from fracdim.set_models import CompactSet, DeltaNet, discretize
from fracdim.simulate import image_dim_experiment, sample_path


def test_gaussian_increment_variance():
    m = LevyModel.isotropic_stable(2.0, 1.3, 1)
    inc = m.sample_increments(np.full(100_000, 0.3), np.random.default_rng(0))
    want = 2 * 1.3 * 0.3
    assert abs(inc[:, 0].var() / want - 1) < 0.02


def test_subordinator_empirical_laplace_transform():
    m = LevyModel.subordinator(LaplaceExponent.stable(0.5))
    s = m.sample_increments(np.ones(100_000), np.random.default_rng(1))[:, 0]
    assert abs(np.mean(np.exp(-s)) - np.exp(-1)) < 0.01 * np.exp(-1) + 5e-3


def test_degenerate_net_gives_zero_path():
    m = LevyModel.isotropic_stable(1.5, 1.0, 1)
    p = sample_path(m, DeltaNet(np.array([0.0])), seed=4)
    assert p.values.shape == (1, 1) and p.values[0, 0] == 0.0


def test_subordinator_paths_nondecreasing_every_seed():
    net = discretize(CompactSet.interval(0, 1), 0.005)
    for phi in (LaplaceExponent.stable(0.4), LaplaceExponent.gamma(2.0, 3.0),
                LaplaceExponent.compound_poisson_drift(2.0, 0.5, 0.1)):
        m = LevyModel.subordinator(phi)
        for seed in range(5):
            p = sample_path(m, net, seed=seed)
            assert np.all(np.diff(p.values[:, 0]) >= 0)
            assert p.values[0, 0] == 0.0     # net starts at time 0


def test_increment_stationarity_ks():
    # split one long skeleton's increments and compare halves; 1% critical
    # value for the two-sample statistic at n = m = 5000
    net = discretize(CompactSet.interval(0, 1), 1.0 / 10_000)
    crit = 1.628 * np.sqrt(2 / 5000)
    for m in (LevyModel.isotropic_stable(2.0, 1.0, 1),
              LevyModel.isotropic_stable(0.8, 1.0, 1),
              LevyModel.subordinator(LaplaceExponent.stable(0.5))):
        p = sample_path(m, net, seed=11)
        inc = np.diff(p.values[:, 0])
        half = inc.size // 2
        stat, _ = stats.ks_2samp(inc[:half], inc[half:])
        assert stat < crit


def test_image_mesh_power_rules():
    r = 2.0 ** -9
    m = LevyModel.isotropic_stable(2.0, 1.0, 1)
    assert np.isclose(m.typical_inverse_scale(0.25 * r), (0.25 * r) ** 2)
    m = LevyModel.isotropic_stable(0.8, 1.0, 1)
    assert np.isclose(m.typical_inverse_scale(0.25 * r), (0.25 * r) ** 0.8)
    m = LevyModel.subordinator(LaplaceExponent.compound_poisson_drift(0, 1, 2.0))
    assert np.isclose(m.typical_inverse_scale(0.5 * r), 0.5 * r / 2.0)


def test_image_experiment_smoke_and_determinism():
    m = LevyModel.subordinator(LaplaceExponent.stable(0.5))
    F = CompactSet.interval(0, 1)
    r = 2.0 ** -np.arange(2, 8, dtype=float)
    a = image_dim_experiment(m, F, 6, r, seed=5)
    b = image_dim_experiment(m, F, 6, r, seed=5)
    np.testing.assert_array_equal(a.slopes, b.slopes)
    np.testing.assert_array_equal(a.counts, b.counts)
    assert a.counts.shape == (6, r.size)
    assert np.isfinite(a.median) and a.iqr >= 0
    c = image_dim_experiment(m, F, 6, r, seed=6)
    assert not np.array_equal(a.slopes, c.slopes)


def test_image_dimension_never_exceeds_ambient():
    F = CompactSet.interval(0, 1)
    r = 2.0 ** -np.arange(2, 8, dtype=float)
    for m in (LevyModel.isotropic_stable(1.2, 1.0, 1),
              LevyModel.subordinator(LaplaceExponent.gamma(1.0, 1.0))):
        exp = image_dim_experiment(m, F, 8, r, seed=3)
        assert exp.median <= m.d + 0.05


def test_image_experiment_csv_and_json(tmp_path):
    m = LevyModel.subordinator(LaplaceExponent.stable(0.5))
    F = CompactSet.interval(0, 1)
    exp = image_dim_experiment(m, F, 3, 2.0 ** -np.arange(2, 8, dtype=float), seed=5)
    exp.write_csv(tmp_path / "e.csv")
    rows = (tmp_path / "e.csv").read_text().strip().splitlines()
    assert len(rows) == 4 and rows[0].startswith("path_index,slope,K_r")
    data = exp.to_json_dict()
    assert data["slopes"] == [float(s) for s in exp.slopes] and data["n_paths"] == 3


def test_parallel_fanout_matches_serial(monkeypatch):
    m = LevyModel.subordinator(LaplaceExponent.stable(0.5))
    F = CompactSet.interval(0, 1)
    r = 2.0 ** -np.arange(2, 8, dtype=float)
    serial = image_dim_experiment(m, F, 6, r, seed=5)
    monkeypatch.setenv("FRACDIM_THREADS", "4")
    threaded = image_dim_experiment(m, F, 6, r, seed=5)
    np.testing.assert_array_equal(serial.slopes, threaded.slopes)
    np.testing.assert_array_equal(serial.counts, threaded.counts)


def test_theory_vs_empirical_singleton_trivial():
    F = CompactSet.finite([0.0])
    m = LevyModel.isotropic_stable(2.0, 1.0, 1)
    prof = fh_profile(F, 0.5, 0.1 * 0.5 ** np.arange(5))
    exp = image_dim_experiment(m, F, 4, 2.0 ** -np.arange(1, 7, dtype=float), seed=1)
    assert prof.estimate == 0.0 and exp.median == 0.0
