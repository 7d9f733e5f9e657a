"""Path sampling and image box-counting."""

import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from fracdim import simulate, utils
from fracdim.errors import NetTooLarge
from fracdim.process_models import (LaplaceExponent, LevyModel, one_sided_stable,
                                    symmetric_stable)
from fracdim.profiles import fh_profile
from fracdim.set_models import CompactSet, DeltaNet, discretize
from fracdim.simulate import PathSample, image_dim_experiment, sample_path
from fracdim.utils import substream


def _path(model, net, seed):
    return sample_path(model.increment_sampler(np.diff(net.points, prepend=0.0)),
                       net, seed)


def test_gaussian_increment_variance():
    m = LevyModel.isotropic_stable(2.0, 1.3, 1)
    inc = m.increment_sampler(np.full(100_000, 0.3))(np.random.default_rng(0))
    want = 2 * 1.3 * 0.3
    assert abs(inc[:, 0].var() / want - 1) < 0.02


def test_subordinator_empirical_laplace_transform():
    m = LevyModel.subordinator(LaplaceExponent.stable(0.5))
    s = m.increment_sampler(np.ones(100_000))(np.random.default_rng(1))[:, 0]
    assert abs(np.mean(np.exp(-s)) - np.exp(-1)) < 0.01 * np.exp(-1) + 5e-3


def test_degenerate_net_gives_zero_path():
    m = LevyModel.isotropic_stable(1.5, 1.0, 1)
    p = _path(m, DeltaNet(np.array([0.0])), seed=4)
    assert p.values.shape == (1, 1) and p.values[0, 0] == 0.0


def test_subordinator_paths_nondecreasing_every_seed():
    net = discretize(CompactSet.interval(0, 1), 0.005)
    for phi in (LaplaceExponent.stable(0.4), LaplaceExponent.gamma(2.0, 3.0),
                LaplaceExponent.compound_poisson_drift(2.0, 0.5, 0.1)):
        m = LevyModel.subordinator(phi)
        for seed in range(5):
            p = _path(m, net, seed=seed)
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
        p = _path(m, net, seed=11)
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
    m = LevyModel.isotropic_stable(1.5, 2.0, 2)
    assert np.isclose(m.typical_inverse_scale(r), r ** 1.5 / 2.0)
    m = LevyModel.subordinate_brownian(LaplaceExponent.stable(0.6), 2)
    assert np.isclose(m.typical_inverse_scale(r), r ** 1.2)
    m = LevyModel.subordinator(LaplaceExponent.stable(0.5))
    assert np.isclose(m.typical_inverse_scale(r), r ** 0.5)


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


def test_bad_radius_ladder_is_rejected_before_any_path(monkeypatch):
    # repeated, non-finite, non-positive radii or fewer than five raise
    # before the net is built or a path sampled
    calls = []
    for name in ("discretize", "sample_path"):
        monkeypatch.setattr(simulate, name, lambda *a, **k: calls.append(a))
    m = LevyModel.subordinator(LaplaceExponent.stable(0.5))
    F = CompactSet.interval(0, 1)
    r = [0.5, 0.25, 0.125, 0.0625]
    for bad in (r + [0.0625], r + [np.nan], r + [np.inf], r + [0.0], r):
        with pytest.raises(ValueError, match="r ladder"):
            image_dim_experiment(m, F, 2, bad, seed=0)
    assert calls == []


def test_theory_vs_empirical_singleton_trivial():
    F = CompactSet.finite([0.0])
    m = LevyModel.isotropic_stable(2.0, 1.0, 1)
    prof = fh_profile(F, 0.5, 0.1 * 0.5 ** np.arange(5))
    exp = image_dim_experiment(m, F, 4, 2.0 ** -np.arange(1, 7, dtype=float), seed=1)
    assert prof.estimate == 0.0 and exp.median == 0.0


def _phi_increments(phi, gaps, rng):
    """Subordinator increments as they were drawn when every path rebuilt
    its per-gap factors."""
    p = phi.params
    if phi.family == "stable":
        return gaps ** (1.0 / p["beta"]) * one_sided_stable(rng, p["beta"], gaps.shape)
    if phi.family == "gamma":
        return rng.gamma(shape=p["a"] * gaps, scale=1.0 / p["b"])
    out = p["drift"] * gaps
    if p["rate"] > 0:
        out = out + rng.gamma(shape=rng.poisson(p["rate"] * gaps), scale=p["jump_mean"])
    return out


def _column_increments(model, gaps, rng):
    """Exact increments as they were drawn when every path rebuilt its
    per-gap factors."""
    m = gaps.shape[0]
    if model.kind == "isotropic_stable":
        alpha, c = model.params["alpha"], model.params["c"]
        if alpha == 2.0:
            return rng.standard_normal((m, model.d)) * np.sqrt(2.0 * c * gaps)[:, None]
        if model.d == 1:
            return ((c * gaps) ** (1.0 / alpha) * symmetric_stable(rng, alpha, m))[:, None]
        clock = (c * gaps) ** (2.0 / alpha) * one_sided_stable(rng, alpha / 2.0, m)
    else:
        clock = _phi_increments(model.phi, gaps, rng)
        if model.kind == "subordinator":
            return clock[:, None]
    return np.sqrt(2.0 * clock)[:, None] * rng.standard_normal((m, model.d))


def test_image_experiment_bit_identical_to_per_path_reference(monkeypatch):
    # the reference takes np.diff of the net times on every path and
    # ignores the prepared sampler; path values, counts and slopes must
    # match bit for bit.  The drift-only clock returns a precomputed
    # array, which must come out fresh on every path.
    r = 2.0 ** -np.arange(2, 7, dtype=float)
    stable, gamma = LaplaceExponent.stable, LaplaceExponent.gamma
    cpd = LaplaceExponent.compound_poisson_drift
    for model in (LevyModel.isotropic_stable(2.0, 0.7, 1),
                  LevyModel.isotropic_stable(0.8, 1.3, 1),
                  LevyModel.isotropic_stable(1.5, 0.6, 2),
                  LevyModel.subordinator(stable(0.5)),
                  LevyModel.subordinator(gamma(2.0, 3.0)),
                  LevyModel.subordinator(cpd(2.0, 0.5, 0.1)),
                  LevyModel.subordinator(cpd(0.0, 1.0, 1.0)),
                  LevyModel.subordinate_brownian(stable(0.6), 2)):
        F = CompactSet.interval(0, 1)

        def reference_path(_sampler, net, seed, model=model):
            gaps = np.diff(net.points, prepend=0.0)
            inc = _column_increments(model, gaps, substream(seed, 0))
            return PathSample(times=net.points, values=np.cumsum(inc, axis=0))

        def checked_path(sampler, net, seed, reference_path=reference_path):
            path = sample_path(sampler, net, seed)
            assert np.array_equal(path.values, reference_path(None, net, seed).values)
            return path

        with monkeypatch.context() as mp:
            mp.setattr(simulate, "sample_path", checked_path)
            got = image_dim_experiment(model, F, 3, r, seed=9)
            mp.setattr(simulate, "sample_path", reference_path)
            ref = image_dim_experiment(model, F, 3, r, seed=9)
        assert np.array_equal(got.counts, ref.counts)
        assert np.array_equal(got.slopes, ref.slopes)


_POOL_CASES = (LevyModel.isotropic_stable(2.0, 1.0, 1),
               LevyModel.isotropic_stable(0.8, 1.0, 1),
               LevyModel.subordinator(LaplaceExponent.stable(0.5)),
               LevyModel.isotropic_stable(1.5, 0.6, 2))


def _recording_pool(monkeypatch, cpus):
    """Hold the pool to `cpus` usable CPUs; returns the worker counts used."""
    sizes = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(simulate, "ThreadPoolExecutor", Pool)
    return sizes


@pytest.mark.parametrize("model", _POOL_CASES,
                         ids=["brownian", "stable0.8", "subordinator", "planar1.5"])
def test_image_experiment_independent_of_worker_count(monkeypatch, model):
    F = CompactSet.interval(0, 1)
    r = 2.0 ** -np.arange(2, 7, dtype=float)
    runs = []
    for cpus in (1, 2, 3, 4):
        with monkeypatch.context() as mp:
            sizes = _recording_pool(mp, cpus)
            runs.append(image_dim_experiment(model, F, 6, r, seed=21))
        assert sizes == [cpus]
    for exp in runs[1:]:
        assert np.array_equal(exp.counts, runs[0].counts)
        assert np.array_equal(exp.slopes, runs[0].slopes)
        assert exp.to_json_dict() == runs[0].to_json_dict()


def _image_bytes(n, d, paths):
    """An image experiment's stated bytes on an interval net of n points:
    the net and the sampler's per-gap scale, and per path in flight its
    (n, d) values, with 20 bytes per value more for the cell count when
    d > 1."""
    return 16 * n + paths * n * d * (8 if d == 1 else 28)


def test_pool_holds_at_most_two_paths_of_values_at_the_cap(monkeypatch):
    # with the budget at the bytes of the net and two paths, two paths
    # are in flight, in one dimension and in two; a byte less leaves one,
    # and below one path the experiment raises before any sampler is built
    F = CompactSet.interval(0, 1)
    r = 2.0 ** -np.arange(2, 7, dtype=float)
    built = []
    real = LevyModel.increment_sampler

    def counted(self, gaps):
        built.append(gaps.size)
        return real(self, gaps)

    for model in (_POOL_CASES[0], _POOL_CASES[3]):
        n = discretize(F, image_dim_experiment(model, F, 1, r, seed=0).net_mesh).n
        for budget, want in ((_image_bytes(n, model.d, 2), 2),
                             (_image_bytes(n, model.d, 2) - 1, 1)):
            with monkeypatch.context() as mp:
                mp.setattr(utils, "MEMORY_BUDGET", budget)
                sizes = _recording_pool(mp, 4)
                image_dim_experiment(model, F, 8, r, seed=0)
            assert sizes == [want]
        with monkeypatch.context() as mp:
            mp.setattr(utils, "MEMORY_BUDGET", _image_bytes(n, model.d, 1) - 1)
            mp.setattr(LevyModel, "increment_sampler", counted)
            with pytest.raises(NetTooLarge, match=f"image experiment on {n} points"):
                image_dim_experiment(model, F, 8, r, seed=0)
        assert built == []


class _SamplerFault(RuntimeError):
    pass


def test_failing_path_stops_the_pool_and_propagates(monkeypatch):
    # the first draw stalls, the second raises: the other worker must not
    # start the remaining paths while the first is still in flight
    calls, lock = [], threading.Lock()
    real = LevyModel.increment_sampler

    def faulty(self, gaps):
        draw = real(self, gaps)

        def flaky(rng):
            with lock:
                calls.append(None)
                k = len(calls)
            if k == 1:
                time.sleep(0.3)
            elif k == 2:
                raise _SamplerFault("path failed")
            return draw(rng)
        return flaky

    monkeypatch.setattr(LevyModel, "increment_sampler", faulty)
    _recording_pool(monkeypatch, 2)
    threads = threading.active_count()
    with pytest.raises(_SamplerFault):
        image_dim_experiment(LevyModel.isotropic_stable(0.8, 1.0, 1),
                             CompactSet.interval(0, 1), 32,
                             2.0 ** -np.arange(2, 7, dtype=float), seed=0)
    assert len(calls) == 2
    assert threading.active_count() == threads


def test_paths_in_flight_hold_one_array_each(monkeypatch):
    # 1-d Brownian images of [0, 1] on a net of 2^18 + 1 points, two paths
    # in flight: the traced peak is the net, the sampler's per-gap scale
    # and one array per path in flight (no sorted copies), within 10%
    model = LevyModel.isotropic_stable(2.0, 1.0, 1)
    F = CompactSet.interval(0, 1)
    r = 2.0 ** -np.arange(3, 8, dtype=float)
    sizes = _recording_pool(monkeypatch, 2)
    tracemalloc.start()
    try:
        exp = image_dim_experiment(model, F, 4, r, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = discretize(F, exp.net_mesh).n
    assert n == 2 ** 18 + 1 and sizes == [2]
    assert peak <= 1.1 * _image_bytes(n, 1, 2)


def test_planar_paths_in_flight_hold_their_stated_bytes(monkeypatch):
    # planar Brownian images of [0, 1] on a net of 2^17 + 1 points, two
    # paths in flight: the traced peak is the net, the per-gap scale, and
    # per path its (n, 2) values and the cell count's 20 bytes per value,
    # within 10%, and at least that of one path
    model = LevyModel.isotropic_stable(2.0, 0.5, 2)
    F = CompactSet.interval(0, 1)
    r = 2.0 ** -np.arange(3, 8, dtype=float)
    sizes = _recording_pool(monkeypatch, 2)
    tracemalloc.start()
    try:
        exp = image_dim_experiment(model, F, 4, r, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = discretize(F, exp.net_mesh).n
    assert n == 2 ** 17 + 1 and sizes == [2]
    assert _image_bytes(n, 2, 1) <= peak <= 1.1 * _image_bytes(n, 2, 2)
