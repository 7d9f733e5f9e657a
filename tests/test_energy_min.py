"""Kernel assembly, Frank-Wolfe minimization, and its oracles."""

import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from fracdim import energy_min, utils
from fracdim.errors import CertificateFailed, NetTooLarge, TooLarge
from fracdim.energy_min import (_GRID_FLOATS, _NET_FLOATS, _RESYNC_EVERY,
                                _ROW_BLOCK, DEFAULT_MAX_ITER, DEFAULT_RESTARTS,
                                DEFAULT_TOL,
                                EnergyResult, KernelMatrix, SimplexWeights,
                                ToeplitzKernel, _assemble, _frank_wolfe,
                                _exp_certificate, _exp_potential,
                                _block_pcg, _distinct_gaps, _gap_certificate, _grid_layout,
                                _kernel_bytes, _minorant_solve,
                                build_kernel, exp_kernel_min_energy,
                                is_psd, kkt_certificate,
                                min_energy, min_energy_bruteforce,
                                rung_min_energy)
from fracdim.oracles import (cantor_exp_kernel_min_energy,
                             interval_exp_kernel_min_energy)
from fracdim.process_models import KernelFamily, LaplaceExponent, LevyModel
from fracdim.profiles import fh_profile
from fracdim.set_models import CompactSet, DeltaNet, _grid_net, discretize
from fracdim.utils import substream
from fracdim.verify import _BF_RESOLUTION, random_psd_kernel

RNG = np.random.default_rng(7)


def _km(values, pts=None):
    values = np.asarray(values, dtype=float)
    pts = np.arange(values.shape[0], dtype=float) if pts is None else pts
    return KernelMatrix(values, pts)


def _assert_bound_from_weights(res, pot):
    """Z_lower is m (m / Z), m = min_i (Kw)_i, recomputed from the
    reported weights' potential pot, and lies in [Z - gap, Z]."""
    assert float(res.weights.w @ pot) == res.value
    m = min(res.value, float(pot.min()))
    assert res.Z_lower == m * (m / res.value)
    assert res.value - res.duality_gap <= res.Z_lower <= res.value


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_build_kernel_examples():
    net = DeltaNet(np.array([0.0, 1.0]))
    K = build_kernel(KernelFamily.fh(0.5), 0.25, net)
    np.testing.assert_allclose(K.values, [[1, 0.5], [0.5, 1]])

    net3 = DeltaNet(np.array([0.0, 0.5, 1.0]))
    K = build_kernel(KernelFamily.fh(1.0), 0.5, net3)
    np.testing.assert_allclose(K.values, [[1, 1, 0.5], [1, 1, 1], [0.5, 1, 1]])


def test_build_kernel_invariants_random():
    net = discretize(CompactSet.interval(0, 1), 0.01)
    for fam, scale in ((KernelFamily.fh(0.7), 0.05), (KernelFamily.fh(1 / 1.2), 0.05 ** 1.2)):
        K = build_kernel(fam, scale, net).values
        assert np.all(np.diag(K) == 1.0)
        assert np.all((K >= 0) & (K <= 1))
        np.testing.assert_array_equal(K, K.T)


def _dense_bytes(n):
    """A dense rung's stated bytes: its kernel, and while it is assembled
    two blocks of _ROW_BLOCK rows of floats and one of bools."""
    return 8 * n * n + 17 * _ROW_BLOCK * n


def _counting_kernel(calls):
    def kernel(r):
        calls.append(r.shape)
        return np.ones_like(r)
    return kernel


def test_build_kernel_net_cap(monkeypatch):
    """At the memory budget of 2^28 bytes the largest dense net has 5,527
    points: one more raises NetTooLarge before the kernel is called.  A
    net at a budget is assembled and one point over it is refused, and
    up to PSD_PROBE_CAP points the stated bytes count `min_energy`'s
    copy too."""
    calls = []
    assert _dense_bytes(5527) <= utils.MEMORY_BUDGET < _dense_bytes(5528)
    with pytest.raises(NetTooLarge, match="dense rung on 5528 points"):
        _assemble(_counting_kernel(calls), np.linspace(0, 1, 5528), None)
    assert calls == []
    fam = KernelFamily.fh(1.0)
    for n, nbytes in ((1100, _dense_bytes(1100)), (1024, _dense_bytes(1024) + 8 * 1024 ** 2)):
        monkeypatch.setattr(utils, "MEMORY_BUDGET", nbytes)
        assert build_kernel(fam, 0.1, DeltaNet(np.linspace(0, 1, n))).n == n
        monkeypatch.setattr(utils, "MEMORY_BUDGET", nbytes - 1)
        with pytest.raises(NetTooLarge):
            build_kernel(fam, 0.1, DeltaNet(np.linspace(0, 1, n)))


def _assert_laid_out_as_evaluated(K, ref):
    """K is the full-matrix evaluation itself, symmetric, with values in
    [0, 1] and exactly 1 at r = 0."""
    assert np.array_equal(K, ref)
    assert np.array_equal(K, K.T)
    assert np.all((K >= 0) & (K <= 1)) and np.all(np.diag(K) == 1.0)


def test_build_kernel_equals_full_matrix_evaluation():
    # row blocks lay out exactly what the family returns for the whole
    # distance matrix, on nets spanning several blocks; so do the
    # power-law minorants and a table-driven exact kernel
    nets = [discretize(CompactSet.interval(0, 1), 0.0015),
            discretize(CompactSet.cantor(), 3.0 ** -8 * (1 + 1e-9))]
    for net in nets:
        assert net.points.size > 256
        D = np.abs(net.points[:, None] - net.points[None, :])
        for fam, scale in ((KernelFamily.fh(0.5), 0.01),
                           (KernelFamily.fh(1.5), 0.003),
                           (KernelFamily.fh(1 / 1.3), 0.02 ** 1.3),
                           (KernelFamily.fh(2 / 0.7), 0.05 ** 0.7)):
            _assert_laid_out_as_evaluated(build_kernel(fam, scale, net).values,
                                          fam.evaluate(scale, D))
            G = _assemble(lambda r: fam.convex_minorant(scale, r), net.points, None)
            _assert_laid_out_as_evaluated(G.values, fam.convex_minorant(scale, D))
    net = discretize(CompactSet.cantor(), 3.0 ** -2)
    assert net.points.size <= 12
    D = np.abs(net.points[:, None] - net.points[None, :])
    cauchy = KernelFamily.exact(LevyModel.isotropic_stable(1.0))
    _assert_laid_out_as_evaluated(build_kernel(cauchy, 0.2, net).values,
                                  cauchy.evaluate(0.2, D))


def test_subordinator_kernels_are_psd():
    for _ in range(5):
        pts = np.sort(RNG.uniform(0, 1, 60))
        lam = float(RNG.uniform(0.5, 50))
        D = np.abs(pts[:, None] - pts[None, :])
        assert is_psd(np.exp(-lam ** 0.6 * D))


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------

def test_min_energy_two_by_two_family():
    for k in (0.0, 0.25, 0.5, 0.9):
        res = min_energy(_km([[1, k], [k, 1]]))
        assert abs(res.value - (1 + k) / 2) <= 1e-10
        np.testing.assert_allclose(res.weights.w, [0.5, 0.5], atol=1e-10)
        assert res.duality_gap <= 1e-6 * res.value + 1e-15


def test_min_energy_identity_matrix():
    res = min_energy(_km(np.eye(3)))
    assert abs(res.value - 1 / 3) < 1e-10
    np.testing.assert_allclose(res.weights.w, np.full(3, 1 / 3), atol=1e-8)


def test_min_energy_matches_bruteforce_on_random_psd():
    """Eight random PSD kernels and C2's 50 (seed 0): each factors, so
    Z_lower is the bound m (m / Z) from the returned weights, at least
    Z - gap, and never exceeds the lattice oracle, an upper bound on the
    minimum."""
    kernels = []
    for _ in range(8):
        n = int(RNG.integers(2, 7))
        kernels.append((random_psd_kernel(RNG, n), 1 / 60 if n >= 5 else 1 / 100))
    c2 = substream(0, 2)
    for i in range(50):
        n = (2, 3, 4, 5, 6)[i % 5]
        kernels.append((random_psd_kernel(c2, n), _BF_RESOLUTION[n]))
    for km, resolution in kernels:
        res = min_energy(km)
        bf = min_energy_bruteforce(km, resolution=resolution)
        assert abs(res.value - bf) <= 1e-3
        assert res.converged
        _assert_bound_from_weights(res, km.values @ res.weights.w)
        assert 0 < res.Z_lower <= bf + 1e-12
        # an exact start rounds the gap below 0 on some; it is reported as 0
        assert res.duality_gap >= 0 and res.Z_lower <= res.value
        # reported value is exactly the energy of the reported weights
        recomputed = float(res.weights.w @ km.values @ res.weights.w)
        assert abs(recomputed - res.value) < 1e-12


def _counting_frank_wolfe(monkeypatch):
    """Patch energy_min._frank_wolfe to record the status of every start."""
    statuses = []

    def counted(*args):
        out = _frank_wolfe(*args)
        statuses.append(out[4])
        return out

    monkeypatch.setattr(energy_min, "_frank_wolfe", counted)
    return statuses


def _recording_starts(monkeypatch):
    """Patch energy_min._frank_wolfe to record the w0 of every start."""
    starts = []

    def recorded(K, w0, tol, max_iter):
        starts.append(w0.copy())
        return _frank_wolfe(K, w0, tol, max_iter)

    monkeypatch.setattr(energy_min, "_frank_wolfe", recorded)
    return starts


def test_min_energy_nonconvex_flag_and_multistart(monkeypatch):
    net = discretize(CompactSet.interval(0, 1), 0.34)
    km = build_kernel(KernelFamily.fh(1.0), 0.5, net)
    assert not is_psd(km.values)
    statuses = _counting_frank_wolfe(monkeypatch)
    res = min_energy(km, seed=3)
    assert res.Z_lower is None               # no certificate on an fh matrix
    assert res.restarts_used == len(statuses)
    assert len(statuses) == (DEFAULT_RESTARTS if statuses[0] == "stall" else 1)
    bf = min_energy_bruteforce(km, resolution=1 / 200)
    assert res.value <= bf + 1e-9


def _fh_test_nets():
    rng = np.random.default_rng(11)
    return [discretize(CompactSet.interval(0, 1), 1 / 399),
            discretize(CompactSet.cantor(), 3.0 ** -7),
            DeltaNet(np.sort(rng.uniform(0, 1, 300)))]


def test_fh_start_never_exceeds_uniform_energy():
    for net in _fh_test_nets():
        assert net.points.size <= 400
        for s in (0.5, 1.0, 1.5):
            fam = KernelFamily.fh(s)
            km = build_kernel(fam, 0.05, net)
            uniform = float(km.values.mean())
            res = rung_min_energy(fam, 0.05, net, restarts=2)
            assert res.start in ("minorant", "uniform")
            assert res.value <= uniform + 1e-12
            # a point mass (energy 1) loses to the uniform measure
            mass = np.zeros(net.points.size)
            mass[0] = 1.0
            g_mass = fam.convex_minorant(0.05, net.points - net.points[0])
            res = min_energy(km, restarts=2, minorant=(mass, g_mass))
            assert res.start == "uniform" and res.value <= uniform + 1e-12
    negative = np.full(net.points.size, -0.5)
    with pytest.raises(ValueError, match="positive entry"):
        min_energy(km, minorant=(negative, -g_mass))


def _minorant_v(fam, scale, net):
    """(v, Gv), v = G^-1 1, for the convex minorant on the rung's own
    route, or None; Gv is finite and of shape (n,)."""
    solve = _minorant_solve(_assemble(lambda r: fam.convex_minorant(scale, r),
                                      net.points, _grid_layout(net)).values)
    if solve is not None:
        assert all(x.shape == (net.n,) and np.all(np.isfinite(x)) for x in solve)
    return solve


def test_fh_minorant_solve_matches_dense_solve():
    """The convex minorant's solve (Toeplitz on the interval net, Cholesky
    on the others) against a dense solve of g written out in full, and its
    Gv (an FFT product, or U'(Uv) from the Cholesky factor) against the
    dense product; g lies between fh / R(s) and fh."""
    for net in _fh_test_nets():
        pts = net.points
        D = np.abs(pts[:, None] - pts)
        for fam, scale in ((KernelFamily.fh(0.5), 0.01), (KernelFamily.fh(1.5), 0.1),
                           (KernelFamily.fh(1 / 1.3), 0.02 ** 1.3)):
            s, eps = fam.power_law(scale)
            r_star = eps * (1 + s) ** (1 / s)
            G = np.where(D <= r_star, 1 - s / ((1 + s) * r_star) * D,
                         (eps / np.maximum(D, r_star)) ** s)
            assert np.array_equal(fam.convex_minorant(scale, D), G)
            K = fam.evaluate(scale, D)
            R = 1 / (1 - s / (1 + s) * (1 + s) ** (-1 / s))
            assert np.all(G <= K) and np.all(K <= R * G * (1 + 1e-12))
            v, gv = _minorant_v(fam, scale, net)
            ref = np.linalg.solve(G, np.ones(pts.size))
            assert np.max(np.abs(v - ref)) <= 1e-9 * np.max(np.abs(ref))
            assert np.max(np.abs(gv - G @ v)) <= 1e-12 * np.max(np.abs(G @ v))
    coincident = np.array([0.0, 0.0, 1.0])
    assert _minorant_solve(_assemble(lambda r: KernelFamily.fh(1.0).convex_minorant(0.1, r),
                                     coincident, None).values) is None


@pytest.mark.parametrize("depth, blocks", [(10, 2), (11, 4)])
def test_block_pcg_minorant_matches_cholesky_on_cantor_nets(depth, blocks):
    """The depth-10 and depth-11 Cantor nets (n = 2,048 and 4,096) are 2
    and 4 translates of the depth-9 net's 1,024-point index, so their
    minorants are solved by block PCG; at s = 1/2 and 3/2 its Z_lower is
    within 1e-12 relative of Cholesky's on the gathered matrix, and Gv
    is finite and within 1e-13 of 1."""
    net = discretize(CompactSet.cantor(), 3.0 ** -depth)
    m = net.grid[2]
    assert net.n == 1024 * blocks
    assert energy_min._translate_blocks(m, m[:1024])
    for s in (0.5, 1.5):
        fam = KernelFamily.fh(s)
        G = _assemble(lambda r: fam.convex_minorant(10 * 3.0 ** -depth, r),
                      net.points, _grid_layout(net)).values
        pcg = _block_pcg(G, np.ones(net.n))
        assert pcg is not None
        v, gv = _minorant_solve(G)
        assert np.array_equal(v, pcg[0]) and np.array_equal(gv, pcg[1])
        assert np.all(np.isfinite(gv)) and np.max(np.abs(1 - gv)) <= 1e-13
        ref = _gap_certificate(*_minorant_solve(G.dense()))[2]
        assert abs(_gap_certificate(v, gv)[2] - ref) <= 1e-12 * ref


def test_grid_subsets_without_translated_blocks_or_past_the_cap_use_cholesky(monkeypatch):
    """A 1,200-point grid subset made of two unequal 600-point blocks
    (unit and double steps) is not in block PCG's scope: its minorant
    solve is the Cholesky solve of its gathered matrix, bit for bit.  So
    is a Cantor minorant when PCG spends its iteration cap."""
    fam = KernelFamily.fh(1.5)
    index = np.concatenate((np.arange(600), 1000 + 2 * np.arange(600)))
    G = ToeplitzKernel(fam.convex_minorant(0.01, 1e-3 * np.arange(2200)), index)
    assert _block_pcg(G, np.ones(1200)) is None
    for got, want in zip(_minorant_solve(G), _minorant_solve(G.dense())):
        assert np.array_equal(got, want)
    net = discretize(CompactSet.cantor(), 3.0 ** -10)
    G = _assemble(lambda r: fam.convex_minorant(10 * 3.0 ** -10, r),
                  net.points, _grid_layout(net)).values
    monkeypatch.setattr(energy_min, "_PCG_MAX_ITER", 0)
    assert _block_pcg(G, np.ones(net.n)) is None
    for got, want in zip(_minorant_solve(G), _minorant_solve(G.dense())):
        assert np.array_equal(got, want)


def test_only_kernels_without_a_minorant_get_their_own_solve(monkeypatch):
    """fh rungs hand their minorant solve to `min_energy`, which factors
    nothing more, on the C7 ladder and on a Cantor ladder, where every
    interval rung and the first Cantor rung start at the minorant and
    later Cantor rungs at the previous rung's weights; an exact Cauchy
    rung and a caller's PSD matrix are factored once each by
    `min_energy`, start at their own clipped K^-1 1 and carry the bound
    m (m / Z) from their returned weights."""
    own = []

    def recorded(G):
        if sys._getframe(1).f_code.co_name == "min_energy":
            own.append(G.shape)
        return _minorant_solve(G)

    monkeypatch.setattr(energy_min, "_minorant_solve", recorded)
    eps = 0.028 * (1.0 / 3.0) ** np.arange(4)
    for rep, starts in ((fh_profile(CompactSet.interval(0, 1), 0.5, eps, mesh_ratio=5.0,
                                    restarts=2, seed=0), ["minorant"] * 4),
                        (fh_profile(CompactSet.cantor(), 1.5, 3.0 ** -np.arange(2, 6.0),
                                    restarts=2, seed=0), ["minorant"] + ["warm"] * 3)):
        assert [rung["start"] for rung in rep.rungs] == starts
        assert all(rung["Z_lower"] is not None for rung in rep.rungs)
    assert own == []
    cauchy_net = discretize(CompactSet.interval(0, 1), 0.02)
    cauchy = rung_min_energy(KernelFamily.exact(LevyModel.isotropic_stable(1.0)),
                             0.2, cauchy_net)
    raw_km = random_psd_kernel(np.random.default_rng(3), 6)
    raw = min_energy(raw_km)
    n = cauchy.weights.w.size
    assert own == [(n, n), (6, 6)]
    cauchy_km = _assemble(
        lambda r: KernelFamily.exact(LevyModel.isotropic_stable(1.0)).evaluate(0.2, r),
        cauchy_net.points, _grid_layout(cauchy_net), distinct=True)
    for res, km in ((cauchy, cauchy_km), (raw, raw_km)):
        assert res.start == "minorant"
        _assert_bound_from_weights(res, km.values @ res.weights.w)


def test_indefinite_whole_grid_kernel_without_a_minorant_is_not_certified():
    """The fh kernel at s = 1/2, eps = 0.009 on the 101-point grid of
    [0, 1] is indefinite: Cholesky of its gathered matrix fails, so no
    certificate.  Levinson on its column would not fail: it returns a
    finite v with 1/1'v above the Frank-Wolfe minimum."""
    pts = np.linspace(0.0, 1.0, 101)
    col = KernelFamily.fh(0.5).evaluate(0.009, pts - pts[0])
    res = min_energy(KernelMatrix(ToeplitzKernel(col), pts))
    assert res.status == "gap" and res.start == "uniform" and res.Z_lower is None
    v = scipy.linalg.solve_toeplitz(col, np.ones(pts.size))
    assert np.all(np.isfinite(v)) and 1.0 / v.sum() > res.value


def test_positive_definite_kernel_starts_at_its_clipped_solve(monkeypatch):
    """exp(-(dt/0.5)^2) on 6 equispaced points of [0, 1] factors, with a
    K^-1 1 of mixed sign: Frank-Wolfe starts at its clipped, normalized
    solve if that beats the uniform measure, converges, and its duality
    bound from its weights lies below the lattice oracle."""
    pts = np.linspace(0.0, 1.0, 6)
    G = np.exp(-np.square((pts[:, None] - pts) / 0.5))
    v = np.linalg.solve(G, np.ones(6))
    np.testing.assert_allclose(v, [1.778, -1.838, 1.176, 1.176, -1.838, 1.778],
                               atol=5e-4)
    starts = _recording_starts(monkeypatch)
    km = _km(G, pts)
    res = min_energy(km)
    clipped = np.clip(v, 0.0, None)
    clipped /= clipped.sum()
    uniform = np.full(6, 1.0 / 6)
    if clipped @ G @ clipped < uniform @ G @ uniform:
        assert res.start == "minorant"
        np.testing.assert_allclose(starts[0], clipped, rtol=1e-12)
    else:
        assert res.start == "uniform" and np.array_equal(starts[0], uniform)
    assert res.status == "gap"
    bf = min_energy_bruteforce(km, resolution=1 / 60)
    assert bf == pytest.approx(0.485179, abs=1e-6)
    _assert_bound_from_weights(res, G @ res.weights.w)
    assert res.Z_lower <= bf


def test_semidefinite_caller_matrix_with_equal_rows_returns():
    """Random PSD kernels with one row and column repeated are singular,
    which the Cholesky solve may or may not take for definite in
    rounding; both happen below, and either way the solve returns with
    status "gap" and Z_lower None or at most Z."""
    rng = np.random.default_rng(0)
    factored = set()
    for _ in range(12):
        n = int(rng.integers(3, 7))
        R = random_psd_kernel(rng, n).values
        j = int(rng.integers(0, n))
        idx = np.insert(np.arange(n), j, j)
        A = R[np.ix_(idx, idx)]
        factored.add(_minorant_solve(A.copy()) is not None)
        res = min_energy(_km(A))
        assert res.status == "gap"
        assert res.Z_lower is None or res.Z_lower <= res.value
    assert factored == {True, False}


def test_minorant_with_a_nonpositive_entry_gives_no_certificate(monkeypatch):
    """v with a nonpositive entry still seeds the start, clipped at 0 and
    normalized.  Passed with its own Gv it certifies exactly when
    min_i (Gv)_i > 0: flipping the largest entry drives Gv negative, and
    Z_lower is None; flipping a small one leaves Gv positive, and Z_lower
    is the bound (min_i (Gv)_i)^2 / v'Gv, at most Z."""
    net = discretize(CompactSet.cantor(), 3.0 ** -5)
    fam = KernelFamily.fh(1.5)
    v, _ = _minorant_v(fam, 0.05, net)
    assert np.all(v > 0)
    G = fam.convex_minorant(0.05, np.abs(net.points[:, None] - net.points))
    km = build_kernel(fam, 0.05, net)
    big = v.copy()
    big[[0, 5]] = (-v[0], 0.0)
    starts = _recording_starts(monkeypatch)
    res = min_energy(km, minorant=(big, G @ big))
    assert float((G @ big).min()) < 0
    assert res.start == "minorant" and res.Z_lower is None
    clipped = np.clip(big, 0.0, None)
    np.testing.assert_array_equal(starts[0], clipped / clipped.sum())
    small = v.copy()
    small[5] = -v[5]
    gv = G @ small
    res = min_energy(km, minorant=(small, gv))
    m = float(gv.min())
    assert m > 0 and res.Z_lower == m * (m / float(small @ gv))
    assert res.Z_lower <= res.value


def test_minorant_must_be_finite_on_the_net_with_a_positive_entry():
    km = build_kernel(KernelFamily.fh(0.5), 0.1, discretize(CompactSet.interval(0, 1), 0.05))
    n = km.n
    nan, inf = np.ones(n), np.ones(n)
    nan[2], inf[3] = np.nan, np.inf
    ones = np.ones(n)
    bad_v = (np.ones(n + 1), np.ones((n, 1)), nan, inf, np.zeros(n), -np.ones(n))
    bad_gv = (np.ones(n + 1), np.ones((n, 1)), nan, inf)
    for pair in [(v, ones) for v in bad_v] + [(ones, gv) for gv in bad_gv]:
        with pytest.raises(ValueError, match="minorant"):
            min_energy(km, minorant=pair)
    for warm in (np.ones(n + 1), np.ones((n, 1)), nan, inf, np.zeros(n), -np.ones(n)):
        with pytest.raises(ValueError, match="warm start"):
            min_energy(km, warm=warm)


def test_warm_start_runs_only_when_its_energy_is_lowest():
    """`min_energy` starts from the lowest-energy of the uniform measure
    and a caller's warm start (normalized, the caller's array untouched);
    an equal-energy warm start loses the tie, and a start at the solved
    minimum takes no iteration."""
    km = build_kernel(KernelFamily.fh(0.5), 0.1, discretize(CompactSet.interval(0, 1), 0.05))
    n = km.n
    best = min_energy(km, tol=0.0, max_iter=5000)
    assert best.start == "uniform" and best.iterations > 0
    warm = 3.0 * best.weights.w
    res = min_energy(km, tol=0.0, max_iter=5000, warm=warm)
    assert np.array_equal(warm, 3.0 * best.weights.w)
    assert res.start == "warm" and res.value <= best.value * (1 + 1e-12)
    assert min_energy(km, warm=np.ones(n)).start == "uniform"
    assert min_energy(km, warm=2.0 * best.weights.w).iterations == 0


def _route_cases():
    """(net, scale, stated bytes) of one fh(1/2) rung on each route: a
    dense net; a whole grid above PSD_PROBE_CAP points, whose minorant is
    solved by Levinson; a depth-10 Cantor net, whose minorant block PCG
    solves from one 1,024-point block; and a 486-point net of
    ifs([1/4]*3, [0, 3/8, 3/4]) on a grid of 2,049, without translated
    blocks, whose minorant matrix is factored."""
    dense = DeltaNet(np.sort(np.random.default_rng(3).uniform(0, 1, 1100)))
    grid = discretize(CompactSet.interval(0, 1), 1 / 2000)
    cantor = discretize(CompactSet.cantor(), 3.0 ** -10)
    rational = discretize(CompactSet.ifs([0.25] * 3, [0, 0.375, 0.75]), 0.001)
    return [(dense, 0.05, _dense_bytes(1100)),
            (grid, 0.01, 8 * (_GRID_FLOATS + _NET_FLOATS) * 2001),
            (cantor, 10 * 3.0 ** -10,
             8 * _GRID_FLOATS * (3 ** 10 + 1) + 8 * _NET_FLOATS * 2048 + 8 * 1024 ** 2),
            (rational, 0.05, 8 * _GRID_FLOATS * 2049 + 8 * _NET_FLOATS * 486 + 8 * 486 ** 2)]


def test_net_too_large_raises_before_any_solve(monkeypatch):
    """One byte over its stated bytes, a rung on each route raises
    NetTooLarge before its kernel or minorant is evaluated and before any
    solve; at them, it is solved."""
    calls = []

    def counted(name):
        real = getattr(KernelFamily, name)

        def method(self, *args):
            calls.append(name)
            return real(self, *args)
        return method

    def unreachable(*args, **kwargs):
        raise AssertionError("solve ran on a net above the budget")

    for net, scale, nbytes in _route_cases():
        with monkeypatch.context() as mp:
            mp.setattr(utils, "MEMORY_BUDGET", nbytes - 1)
            for name in ("evaluate", "convex_minorant"):
                mp.setattr(KernelFamily, name, counted(name))
            for name in ("solve_toeplitz", "cho_factor"):
                mp.setattr(energy_min.linalg, name, unreachable)
            with pytest.raises(NetTooLarge, match=f"rung on {net.n} points"):
                rung_min_energy(KernelFamily.fh(0.5), scale, net)
        assert calls == []
        monkeypatch.setattr(utils, "MEMORY_BUDGET", nbytes)
        assert rung_min_energy(KernelFamily.fh(0.5), scale, net, restarts=2).converged


def test_rungs_hold_the_bytes_they_state():
    """The traced peak of a rung on each route lies between 80% of the
    bytes it states and 10% above them."""
    for net, scale, nbytes in _route_cases():
        tracemalloc.start()
        try:
            assert rung_min_energy(KernelFamily.fh(0.5), scale, net, restarts=2).converged
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.8 * nbytes <= peak <= 1.1 * nbytes, (net.n, peak, nbytes)


def test_dense_exact_rungs_hold_their_distance_table(monkeypatch):
    """A dense `exact` rung also holds its distinct distances and their
    values beside the kernel, 16 bytes for each of up to n (n + 1) / 2: on
    1,100 and 2,000 sorted uniform points (every distance distinct) its
    traced peak lies between 80% of the bytes it states and 10% above
    them, and gathering the distances alone traces 25 bytes a pair.  At
    the budget of 2^28 bytes such nets stop at 3,962 points; one more is
    refused before its distances are gathered."""
    def table_bytes(n):
        return _dense_bytes(n) + 8 * n * (n + 1)

    def unreachable(*args):
        raise AssertionError("distances gathered above the budget")

    monkeypatch.setattr(KernelFamily, "_evaluate_exact", lambda self, eps, r: np.exp(-r / eps))
    fam = KernelFamily.exact(LevyModel.isotropic_stable(1.5))
    for n in (1100, 2000):
        net = DeltaNet(np.sort(np.random.default_rng(3).uniform(0, 1, n)))
        tracemalloc.start()
        try:
            assert rung_min_energy(fam, 0.05, net, restarts=2).converged
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.8 * table_bytes(n) <= peak <= 1.1 * table_bytes(n), (n, peak)
        tracemalloc.start()
        try:
            _distinct_gaps(net.points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 25 * n * (n + 1) / 2, (n, peak)
    assert table_bytes(3962) <= utils.MEMORY_BUDGET < table_bytes(3963)
    monkeypatch.setattr(energy_min, "_distinct_gaps", unreachable)
    with pytest.raises(NetTooLarge, match="dense rung on 3963 points"):
        build_kernel(fam, 0.05, DeltaNet(np.linspace(0, 1, 3963)))


def test_whole_grid_and_cantor_rungs_stop_at_the_budget():
    """At the budget of 2^28 bytes a whole grid of 1,290,555 points is
    laid out (its kernel is evaluated) and one of 1,290,556 is refused
    before that; Cantor grids stop at 3^14 + 1 points, while a depth-13
    net, on a grid of 3^13 + 1, is within it."""
    class Reached(Exception):
        pass

    def reached(r):
        raise Reached

    calls = []
    N = utils.MEMORY_BUDGET // (8 * (_GRID_FLOATS + _NET_FLOATS))
    assert N == 1_290_555
    nets = [_grid_net(0.0, 1.0 / (size - 1), np.arange(size)) for size in (N, N + 1)]
    nets += [discretize(CompactSet.cantor(), 3.0 ** -depth) for depth in (13, 14)]
    for net, fits in zip(nets, (True, False, True, False)):
        kernel = reached if fits else _counting_kernel(calls)
        with pytest.raises(Reached if fits else NetTooLarge):
            _assemble(kernel, net.points, _grid_layout(net))
    assert calls == []


def test_exponential_rung_holds_168_bytes_a_point(monkeypatch):
    """`exp_kernel_min_energy` traces 168 bytes a point (within 1%), and
    raises NetTooLarge before any sweep one point over the budget."""
    pts = np.linspace(0.0, 1.0, 200_000)
    tracemalloc.start()
    try:
        exp_kernel_min_energy(pts, 50.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(peak / (168 * pts.size) - 1) <= 0.01
    monkeypatch.setattr(utils, "MEMORY_BUDGET", 168 * 1000)
    assert exp_kernel_min_energy(pts[:1000], 50.0).converged
    monkeypatch.setattr(energy_min, "_exp_potential", None)
    with pytest.raises(NetTooLarge, match="exponential rung on 1001 points"):
        exp_kernel_min_energy(pts[:1001], 50.0)


def test_min_energy_restarts_only_after_failed_first_run(monkeypatch):
    net = discretize(CompactSet.interval(0, 1), 0.028 / 5)
    fam = KernelFamily.fh(0.5)
    statuses = _counting_frank_wolfe(monkeypatch)
    res = rung_min_energy(fam, 0.028, net, restarts=4)
    assert statuses == ["gap"] and res.restarts_used == 1
    assert res.status == "gap" and res.start == "minorant"
    assert res.Z_lower is not None and res.Z_lower <= res.value
    # a spent budget makes one start and returns its result
    statuses.clear()
    res = min_energy(build_kernel(fam, 0.028, net), max_iter=5, restarts=4)
    assert statuses == ["iters"] and res.restarts_used == 1
    assert res.status == "iters" and not res.converged


def test_min_energy_restarts_after_a_stall(monkeypatch):
    """A first run that stalls is followed by restarts - 1 seeded
    Dirichlet starts, and the lowest-energy run is returned."""
    net = discretize(CompactSet.interval(0, 1), 0.028 / 5)
    km = build_kernel(KernelFamily.fh(0.5), 0.028, net)
    n = km.n
    starts = []

    def first_stalls(K, w0, tol, max_iter):
        starts.append(w0)
        w, f, gap, it, status = _frank_wolfe(K, w0, tol, max_iter)
        return w, f, gap, it, "stall" if len(starts) == 1 else status

    monkeypatch.setattr(energy_min, "_frank_wolfe", first_stalls)
    res = min_energy(km, restarts=3, seed=5)
    assert len(starts) == 3 and res.restarts_used == 3
    np.testing.assert_array_equal(starts[0], np.full(n, 1.0 / n))
    rng = np.random.default_rng(5)
    for w0 in starts[1:]:
        np.testing.assert_array_equal(w0, rng.dirichlet(np.ones(n)))
    runs = [_frank_wolfe(km.values, w0, DEFAULT_TOL, DEFAULT_MAX_ITER)
            for w0 in starts]
    best = min(range(3), key=lambda k: runs[k][1])
    assert res.status == ("stall" if best == 0 else runs[best][4])
    assert abs(res.value - runs[best][1]) <= 1e-12


def test_minorant_start_matches_two_start_reference():
    """fh_profile rungs up to n = 537: one minorant-started solve against
    the better of the uniform and the seed-k Dirichlet Frank-Wolfe runs."""
    ladders = [(CompactSet.interval(0, 1), 0.5, 0.028 * 3.0 ** -np.arange(2),
                5.0, 2e-4),
               (CompactSet.cantor(), 1.5, 3.0 ** -np.arange(2, 6.0), 10.0, 1e-9)]
    for cset, s, eps, mesh_ratio, rel in ladders:
        fam = KernelFamily.fh(s)
        for k, e in enumerate(eps):
            net = discretize(cset, e / mesh_ratio)
            assert net.points.size <= 537
            res = rung_min_energy(fam, e, net, restarts=2, seed=k)
            assert res.start == "minorant" and res.restarts_used == 1
            A = build_kernel(fam, e, net).values
            n = A.shape[0]
            w_dir = np.random.default_rng(k).dirichlet(np.ones(n))
            ref = min(_frank_wolfe(A, w0, DEFAULT_TOL, DEFAULT_MAX_ITER)[1]
                      for w0 in (np.full(n, 1.0 / n), w_dir))
            assert abs(res.value - ref) <= rel * ref


def _c7_rungs():
    """(family, eps, net) of the C7 ladder's rungs up to n = 1,609."""
    fam = KernelFamily.fh(0.5)
    return [(fam, e, discretize(CompactSet.interval(0, 1), e / 5.0))
            for e in 0.028 * 3.0 ** -np.arange(3)]


def test_toeplitz_rows_and_product_match_dense_kernel():
    """On interval nets of [0, 1], the rows of the Toeplitz kernel (built
    on the distances k h) agree with the dense kernel (built on the net's
    own distances) to 3e-14, and its FFT product with the dense product
    to 1e-13 relative."""
    rng = np.random.default_rng(3)
    cases = [(fam, e, net.points.size) for fam, e, net in _c7_rungs()]
    cases += [(KernelFamily.fh(1.5), 0.003, 1609),
              (KernelFamily.fh(1 / 1.3), 0.02 ** 1.3, 668),
              (KernelFamily.fh(2 / 0.7), 0.05 ** 0.7, 400),
              (KernelFamily.exact(LevyModel.isotropic_stable(1.5)), 0.1, 41)]
    for fam, scale, n in cases:
        net = _grid_net(0.0, 1.0 / (n - 1), points=np.linspace(0.0, 1.0, n))
        T = _assemble(lambda r: fam.evaluate(scale, r), net.points,
                      _grid_layout(net)).values
        D = build_kernel(fam, scale, net).values
        assert isinstance(T, ToeplitzKernel) and T.shape == D.shape
        assert max(np.max(np.abs(T[i] - D[i])) for i in range(n)) <= 3e-14
        for w in (rng.dirichlet(np.ones(n)), rng.standard_normal(n)):
            ref = D @ w
            assert np.max(np.abs(T @ w - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_toeplitz_and_dense_frank_wolfe_agree_on_c7_rungs():
    for k, (fam, e, net) in enumerate(_c7_rungs()):
        res = rung_min_energy(fam, e, net, restarts=2, seed=k)
        dense = min_energy(build_kernel(fam, e, net), restarts=2, seed=k,
                           minorant=_minorant_v(fam, e, net))
        assert res.converged and dense.converged
        assert abs(res.value - dense.value) <= 1e-9 * dense.value


def _record_kernels(mp, kernels: list) -> None:
    """Have every rung append the kernel it hands `min_energy` to `kernels`."""
    def recorded(K, *args, **kwargs):
        kernels.append(K)
        return min_energy(K, *args, **kwargs)

    mp.setattr(energy_min, "min_energy", recorded)


@pytest.fixture(scope="module")
def c6_cantor():
    """The C6 Cantor profile (rungs up to n = 2,048), computed once, and
    the kernel layout (`values` type) each rung handed `min_energy`."""
    kernels = []
    with pytest.MonkeyPatch.context() as mp:
        _record_kernels(mp, kernels)
        rep = fh_profile(CompactSet.cantor(), 1.5, 3.0 ** -np.arange(2, 8, dtype=float),
                         restarts=2, seed=0)
    return rep, [type(K.values) for K in kernels]


def _two_blocks():
    """80 points on a grid of 340 (16 N <= n^2) that use no step from 40
    to 260."""
    return _grid_net(0.0, 1.0 / 339.0, np.r_[0:40, 300:340])


def test_equal_gap_rungs_build_no_dense_kernel(monkeypatch, c6_cantor):
    """Interval rungs and the C6 Cantor rungs lie on an equal-step grid and
    hand `min_energy` a `ToeplitzKernel`; a `cantor:0.25` rung (n^2 = 4 N)
    and a net of sorted random points hand it a dense array, and no rung
    calls `build_kernel`."""
    rep, layouts = c6_cantor
    assert rep.rungs[-1]["n"] == 2048
    assert layouts == [ToeplitzKernel] * len(rep.rungs)
    kernels = []

    def unreachable(*args):
        raise AssertionError("a rung called build_kernel")

    _record_kernels(monkeypatch, kernels)
    monkeypatch.setattr(energy_min, "build_kernel", unreachable)
    net = discretize(CompactSet.interval(0, 1), 0.028 / 5)
    for fam, scale in ((KernelFamily.fh(0.5), 0.028), (KernelFamily.fh(1 / 1.3), 0.028 ** 1.3),
                       (KernelFamily.exact(LevyModel.isotropic_stable(1.5)), 0.028)):
        assert rung_min_energy(fam, scale, net, restarts=2).converged
    N = utils.MEMORY_BUDGET // (8 * (_GRID_FLOATS + _NET_FLOATS)) + 1
    with pytest.raises(NetTooLarge):
        rung_min_energy(KernelFamily.fh(1.0), 0.1, _grid_net(0.0, 1.0 / (N - 1), np.arange(N)))
    rung_min_energy(KernelFamily.fh(1.0), 4.0 ** -4,
                    discretize(CompactSet.cantor(0.25), 4.0 ** -5), restarts=2)
    rng = np.random.default_rng(2)
    rung_min_energy(KernelFamily.fh(1.0), 0.05, DeltaNet(np.sort(rng.uniform(0, 1, 200))),
                    restarts=2)
    assert [type(K.values) for K in kernels] == [ToeplitzKernel] * 3 + [np.ndarray] * 2


def test_grid_layout_uses_a_grid_subset_only_when_it_saves_memory():
    """The layout is read from the grid a net records: an interval net is
    its whole grid, a Cantor net's is its 3^-k grid, and a net that is
    part of a grid of N points uses it only when its grid kernel holds no
    more bytes than the dense one (`_kernel_bytes`: _GRID_FLOATS N <= n^2).
    Nets with no grid (a finite set, a bare point array) are dense."""
    assert _grid_layout(discretize(CompactSet.interval(0, 1), 1.0 / 6.0)) == (1.0 / 6.0, 7, None)
    h, N, index = _grid_layout(discretize(CompactSet.cantor(), 3.0 ** -5))
    lefts = [sum(d * 3 ** k for k, d in enumerate(digits))   # base-3 digits 0 and 2
             for digits in itertools.product((0, 2), repeat=5)]
    assert (h, N) == (3.0 ** -5, 244) and index.tolist() == sorted(lefts + [k + 1 for k in lefts])
    assert _kernel_bytes(64, 244) <= _kernel_bytes(64)
    assert _grid_layout(discretize(CompactSet.cantor(), 3.0 ** -4)) is None
    assert _grid_layout(discretize(CompactSet.cantor(0.25), 4.0 ** -5)) is None
    h, N, index = _grid_layout(_two_blocks())
    assert N == 340 and index.tolist() == list(range(40)) + list(range(300, 340))
    fits = _grid_net(0.0, 1 / 399, np.r_[0:40, 360:400])         # 16 * 400 = 80^2
    assert _grid_layout(fits)[1] == 400
    assert _grid_layout(_grid_net(0.0, 1 / 400, np.r_[0:40, 361:401])) is None  # 16 * 401 > 80^2
    grid_points = np.linspace(0.0, 1.0, 7)
    assert _grid_layout(DeltaNet(grid_points)) is None
    assert _grid_layout(discretize(CompactSet.finite(grid_points), 0.1)) is None


def test_depth_14_cantor_net_keeps_its_grid():
    """At depth 14 the net's index is its points' base-3 digits (0 and 2,
    then 1 at the last place for each right endpoint), and the layout
    uses the grid of 3^14 + 1 points: 16 N <= n^2 holds there.  Its rung
    would hold 612 MB on that grid, over the memory budget
    (`test_whole_grid_and_cantor_rungs_stop_at_the_budget`)."""
    net = discretize(CompactSet.cantor(), 3.0 ** -14)
    lefts = np.zeros(1, dtype=np.int64)
    for k in range(14):
        lefts = np.concatenate([lefts, lefts + 2 * 3 ** k])
    want = np.sort(np.concatenate([lefts, lefts + 1]))
    t0, h, m = net.grid
    assert net.n == 2 ** 15 and np.array_equal(m, want)
    assert (t0, h) == (0.0, 3.0 ** -14)
    h, N, index = _grid_layout(net)
    assert index is m and (h, N) == (3.0 ** -14, 3 ** 14 + 1)


def test_touching_ifs_net_is_the_whole_grid(monkeypatch):
    """[0, 1] as three touching maps of ratio 1/3: the net is the whole
    3^k grid (no near-duplicate endpoints), so its fh rung is Toeplitz,
    starts at the minorant, is certified, and matches the interval net of
    the same step."""
    fam = KernelFamily.fh(0.5)
    touching = CompactSet.ifs([1 / 3] * 3, [0, 1 / 3, 2 / 3])
    net = discretize(touching, 0.01)
    assert net.n == 3 ** 5 + 1
    kernels = []
    _record_kernels(monkeypatch, kernels)
    res = rung_min_energy(fam, 0.1, net, restarts=2)
    assert isinstance(kernels[0].values, ToeplitzKernel)
    assert res.start == "minorant" and res.Z_lower is not None
    interval = discretize(CompactSet.interval(*touching.bounds()), net.grid[1])
    assert interval.n == net.n and interval.grid[1] == net.grid[1]
    ref = rung_min_energy(fam, 0.1, interval, restarts=2)
    assert abs(res.value - ref.value) <= 1e-12 * ref.value


def test_rational_ifs_nets_use_their_grid(monkeypatch):
    """ifs([1/4]*3, [0, 3/8, 3/4]) has digits 0, 3/2 and 3, so its nets
    lie on the grid of step 1 / (2 4^k): N = 129, 513 and 2,049 grid
    points for n = 54, 162 and 486, each with 16 N <= n^2.  Their fh(1/2)
    rungs are Toeplitz and match the dense solve of `build_kernel`'s
    matrix from the same minorant start within 1e-9 relative."""
    fam = KernelFamily.fh(0.5)
    rational = CompactSet.ifs([0.25] * 3, [0, 0.375, 0.75])
    kernels = []
    _record_kernels(monkeypatch, kernels)
    for delta, n, N in ((0.02, 54, 129), (0.005, 162, 513), (0.001, 486, 2049)):
        net = discretize(rational, delta)
        t0, h, m = net.grid
        assert net.n == n and m[-1] + 1 == N and _kernel_bytes(n, N) <= _kernel_bytes(n)
        assert (t0, h) == (0.0, 1.0 / (N - 1)) and np.array_equal(net.points, t0 + m * h)
        kernels.clear()
        res = rung_min_energy(fam, 0.05, net)
        assert isinstance(kernels[0].values, ToeplitzKernel) and res.converged
        G = fam.convex_minorant(0.05, np.abs(net.points[:, None] - net.points))
        dense = min_energy(build_kernel(fam, 0.05, net), minorant=_minorant_solve(G))
        assert abs(res.value - dense.value) <= 1e-9 * dense.value


def test_sampled_exact_rungs_report_no_bound(monkeypatch):
    """A Monte Carlo `exact` rung's kernel factors, but a bound from it
    holds for its sample, not for kappa: the seed-1 rung's Z lies below
    the bound `min_energy` certifies for the seed-0 sample.  Both rungs
    report Z_lower and ratio null; a quadrature (Cauchy) rung keeps its
    bound."""
    net = discretize(CompactSet.interval(0, 1), 0.05)
    model = LevyModel.subordinator(LaplaceExponent.stable(0.5))
    kernels = []
    _record_kernels(monkeypatch, kernels)
    rungs = [rung_min_energy(KernelFamily.exact(model, seed=seed), 0.3, net)
             for seed in (0, 1)]
    sample_bound = min_energy(kernels[0]).Z_lower
    assert net.n == 21 and rungs[1].value < sample_bound <= rungs[0].value
    for res in rungs:
        assert res.converged and res.Z_lower is None
        assert res.to_json_dict()["Z_lower"] is None and res.to_json_dict()["ratio"] is None
    cauchy = KernelFamily.exact(LevyModel.isotropic_stable(1.0))
    assert KernelFamily.exact(model).sampled and not cauchy.sampled
    res = rung_min_energy(cauchy, 0.3, net)
    assert res.Z_lower is not None and res.Z_lower <= res.value


def test_exact_family_on_a_grid_subset_is_evaluated_at_used_steps(monkeypatch):
    """An `exact` family costs a rung no more evaluations on any layout
    than `build_kernel`'s one per distinct distance: on a grid subset it
    is evaluated once per step |m_i - m_j| the net uses, on a whole grid
    once per step, and on a dense net once per distinct distance.  The
    kernel is exactly symmetric and the same on a second call, both with
    a stub of the family's values, where the rung's Z is the dense
    route's, and with a Monte Carlo model's own, whose per-distance seeds
    are keyed on the distance's bits (so only on a dense net is the
    kernel `build_kernel`'s)."""
    original = KernelFamily._evaluate_exact
    evaluated, kernels = [], []

    def stub(self, eps, r):
        evaluated.append(r.size)
        return np.exp(-r / eps)

    def counted(self, eps, r):
        evaluated.append(r.size)
        return original(self, eps, r)

    def rung_twice(fam, eps, net):
        """The rung's result and evaluation count; its kernel must be
        symmetric, and a second call must repeat the count and kernel."""
        runs = []
        for _ in range(2):
            evaluated.clear()
            kernels.clear()
            res = rung_min_energy(fam, eps, net, restarts=2)
            A = kernels[0].values
            A = A.dense() if isinstance(A, ToeplitzKernel) else A
            assert np.array_equal(A, A.T)
            runs.append((res, sum(evaluated), A))
        assert runs[0][1] == runs[1][1] and np.array_equal(runs[0][2], runs[1][2])
        return runs[0][:2]

    _record_kernels(monkeypatch, kernels)
    monkeypatch.setattr(KernelFamily, "_evaluate_exact", stub)
    fam = KernelFamily.exact(LevyModel.isotropic_stable(1.5))
    # (net, grid size, steps used): steps 0..39 and 261..339 on two blocks;
    # every step on a ratio-1/3 Cantor net; on a block of 300 points and
    # two far ones, steps its first _ROW_BLOCK rows do not use; no grid
    # at ratio 1/4 or on random points
    far = np.r_[0:300, 2000, 5000]
    far_steps = np.unique(np.abs(far[:, None] - far)).size
    for net, N, used in ((_two_blocks(), 340, 40 + 79),
                         (discretize(CompactSet.cantor(), 3.0 ** -6), 730, 730),
                         (_grid_net(0.0, 1 / 5000, far), 5001, far_steps),
                         (_grid_net(0.0, 1 / 49, np.arange(50)), 50, 50),
                         (discretize(CompactSet.cantor(0.25), 4.0 ** -5), None, None),
                         (DeltaNet(np.sort(np.random.default_rng(6).uniform(0, 1, 60))),
                          None, None)):
        pts, grid = net.points, _grid_layout(net)
        if N is None:
            assert grid is None
        else:
            m = np.arange(N) if grid[2] is None else grid[2]
            assert grid[1] == N and np.unique(np.abs(m[:, None] - m)).size == used
        distinct = np.unique(np.abs(pts[:, None] - pts)).size
        res, evaluations = rung_twice(fam, 0.05, net)
        assert evaluations == (distinct if used is None else used) <= distinct
        dense = min_energy(build_kernel(fam, 0.05, net), restarts=2)
        assert res.converged and abs(res.value - dense.value) <= 1e-9 * dense.value
    first_rows = np.unique(np.abs(far[:_ROW_BLOCK, None] - far)).size
    assert first_rows < far_steps
    # a Monte Carlo kernel (one seeded sampler run per distance) on a
    # dense net, a whole grid and a grid subset of 17 points out of 18
    monkeypatch.setattr(KernelFamily, "_evaluate_exact", counted)
    fam = KernelFamily.exact(LevyModel.subordinator(LaplaceExponent.stable(0.5)))
    for net, layout, used in ((DeltaNet(np.array([0.0, 0.13, 0.5, 0.61])), np.ndarray, 7),
                              (_grid_net(0.0, 1 / 3, np.arange(4)), ToeplitzKernel, 4),
                              (_grid_net(0.0, 1 / 17, np.r_[0:8, 9:18]), ToeplitzKernel, 18)):
        pts = net.points
        distinct = np.unique(np.abs(pts[:, None] - pts)).size
        res, evaluations = rung_twice(fam, 0.3, net)
        assert isinstance(kernels[0].values, layout)
        assert evaluations == used <= distinct
        assert res.converged
        if layout is np.ndarray:
            assert np.array_equal(kernels[0].values,
                                  build_kernel(fam, 0.3, DeltaNet(pts)).values)


def test_grid_kernel_matches_dense_kernel_on_cantor_nets(c6_cantor):
    """On Cantor nets of ratio 1/3 and on two blocks of a grid (no Cantor
    net of ratio 1/4 uses its grid), the grid kernel's rows agree
    with `build_kernel`'s dense matrix (built on the net's own distances)
    within L times 4 ulps of the span, with L = s / eps for fh: each net
    point is t0 + m_i h rounded once (t0 = 0 here), and t_i, t_j, their
    difference and the grid distance |m_i - m_j| h are each within half
    an ulp of the span.  Its FFT products agree within that bound times
    |w|_1 plus 1e-13 relative; `dense` gathers the same rows.  Each C6
    Cantor rung's Z is within 1e-9 relative of the dense route's."""
    rng = np.random.default_rng(4)
    for depth in (5, 7, 10, None):
        net = (_two_blocks() if depth is None
               else discretize(CompactSet.cantor(), 3.0 ** -depth))
        pts, n = net.points, net.n
        grid = _grid_layout(net)
        h = net.grid[1]
        assert net.grid[0] == 0.0 and grid[2] is not None
        assert n == (80 if depth is None else 2 ** (depth + 1))
        for s, eps in ((0.5, 9 * h), (1.5, 10 * h)):
            fam = KernelFamily.fh(s)
            T = _assemble(lambda r: fam.evaluate(eps, r), pts, grid).values
            D = build_kernel(fam, eps, net).values
            bound = s / eps * 4 * np.spacing(pts[-1] - pts[0])
            rows = np.array([T[i] for i in range(n)])
            assert np.array_equal(T.dense(), rows)
            assert np.max(np.abs(rows - D)) <= bound
            for w in (rng.dirichlet(np.ones(n)), rng.standard_normal(n)):
                ref = D @ w
                assert (np.max(np.abs(T @ w - ref))
                        <= bound * np.abs(w).sum() + 1e-13 * np.max(np.abs(ref)))
    fam = KernelFamily.fh(1.5)
    rep = c6_cantor[0]
    for eps, mesh, rung in zip(rep.ladder.scales, rep.mesh_per_scale, rep.rungs):
        net = discretize(CompactSet.cantor(), mesh)
        G = _assemble(lambda r: fam.convex_minorant(eps, r), net.points, None).values
        dense = min_energy(build_kernel(fam, eps, net), restarts=2, seed=0,
                           minorant=_minorant_solve(G))
        assert rung["n"] == net.n and abs(rung["Z"] - dense.value) <= 1e-9 * dense.value
        assert abs(rung["Z_lower"] - dense.Z_lower) <= 1e-9 * dense.Z_lower


def test_min_energy_factors_toeplitz_kernel():
    """A ToeplitzKernel with a positive definite column (the exponential
    kernel) factors in `min_energy`, needs one start, and matches the
    closed form."""
    pts = np.linspace(0.0, 1.0, 200)
    col = np.exp(-7.0 * (pts - pts[0]))
    res = min_energy(KernelMatrix(ToeplitzKernel(col), pts), tol=1e-9)
    assert res.restarts_used == 1 and res.Z_lower is not None
    assert res.value / res.Z_lower <= 1.0 / (1.0 - 1e-9)
    exact = exp_kernel_min_energy(pts, 7.0).value
    assert abs(res.value - exact) <= 1e-8 * exact


def test_symmetry_scan_holds_row_blocks():
    # a symmetric 2,000-point matrix is scanned _ROW_BLOCK rows at a time:
    # one one-iteration solve traces less than an n x n boolean array
    n = 2000
    A = np.minimum(1.0, 0.01 / (np.abs(np.subtract.outer(np.arange(n), np.arange(n))) + 1.0))
    K = _km(A)
    tracemalloc.start()
    try:
        min_energy(K, max_iter=1, restarts=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n // 4


def test_min_energy_rejects_asymmetric_kernel():
    A = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3 + 1e-16, 1.0]])
    assert not np.array_equal(A, A.T)
    with pytest.raises(ValueError, match="symmetric"):
        min_energy(_km(A))


def _line_search(dKw: float, dKd: float, gmax: float) -> float:
    """Exact step for f(w + g d) = f + 2 g dKw + g^2 dKd on [0, gmax], an
    independent check of the step `_frank_wolfe` reads off its score."""
    if dKd > 0:
        return min(gmax, max(0.0, -dKw / dKd))
    # concave along d: descent means go to the boundary
    return gmax if 2 * gmax * dKw + gmax * gmax * dKd < 0 else 0.0


def _column_frank_wolfe(K, w0, tol, max_iter):
    """The pairwise loop on strided columns (rows of a `ToeplitzKernel`,
    symmetric by construction) and a boolean support mask, with the away
    vertex scored as in `_frank_wolfe` and its curvature computed afresh
    at every step (the same arithmetic, so near-ties resolve alike); the
    step and the decrease of f are the best score's, and a best score
    that is not positive stalls.  The production loop must reproduce it
    bit for bit."""
    toeplitz = isinstance(K, ToeplitzKernel)
    column = (lambda i: K[i]) if toeplitz else (lambda i: K[:, i])
    w = w0.copy()
    g = K @ w
    f = float(w @ g)
    gap = float("inf")
    diag = np.full(w.size, K.col[0]) if toeplitz else np.diag(K)
    dbuf = np.empty_like(g)
    for it in range(1, max_iter + 1):
        fw = int(np.argmin(g))
        gap = 2.0 * (f - g[fw])
        if gap <= tol * max(f, 1e-300):
            return w, f, gap, it - 1, "gap"
        curv = column(fw) * -2.0 + diag + column(fw)[fw]
        delta = g - g[fw]
        step = np.minimum(delta / np.maximum(curv, energy_min._WSS_TAU), w)
        score = (delta * 2.0 - curv * step) * step
        score[w <= 0.0] = -np.inf
        aw = int(np.argmax(score))
        decrease = float(score[aw])
        if not decrease > 0:
            return w, f, gap, it, "stall"
        gamma = float(step[aw])
        drop = gamma >= w[aw] * (1.0 - 1e-12)
        w[aw] = 0.0 if drop else w[aw] - gamma
        w[fw] += gamma
        np.subtract(column(fw), column(aw), out=dbuf)
        dbuf *= gamma
        g += dbuf
        f -= decrease
        if it % _RESYNC_EVERY == 0:
            np.clip(w, 0.0, None, out=w)
            w /= w.sum()
            g = K @ w
            f = float(w @ g)
    return w, f, gap, max_iter, "iters"


def test_frank_wolfe_bit_identical_to_column_reference():
    """Dense kernels, and `ToeplitzKernel`s on interval nets and on grid
    subsets (Cantor nets and two blocks of a grid), whose curvature rows `_frank_wolfe` reads from
    vectors built once per run."""
    rng = np.random.default_rng(5)
    kernels = []
    for n in (5, 17, 60, 150, 400):
        kernels.append(random_psd_kernel(rng, n).values)
        net = DeltaNet(np.sort(rng.uniform(0, 1, n)))
        kernels.append(build_kernel(KernelFamily.fh(float(rng.uniform(0.3, 1.5))),
                                    float(rng.uniform(0.02, 0.3)), net).values)
    for net in [_grid_net(0.0, 1 / (n - 1), np.arange(n)) for n in (9, 60, 301)] + [
            discretize(CompactSet.cantor(ratio), ratio ** depth)
            for ratio, depth in ((1 / 3, 5), (1 / 3, 7))] + [
            _two_blocks()]:
        fam = KernelFamily.fh(float(rng.uniform(0.3, 1.5)))
        T = _assemble(lambda r: fam.evaluate(0.01, r), net.points, _grid_layout(net)).values
        assert isinstance(T, ToeplitzKernel)
        kernels.append(T)
    most_iters = subset_iters = 0
    statuses, subset_statuses = set(), set()
    for K in kernels:
        n = K.shape[0]
        for w0 in (np.full(n, 1.0 / n), rng.dirichlet(np.ones(n))):
            for tol, max_iter in ((0.0, 3000), (1e-6, 40)):
                ref = _column_frank_wolfe(K, w0, tol, max_iter)
                got = _frank_wolfe(K, w0, tol, max_iter)
                assert np.array_equal(got[0], ref[0])
                assert got[1:] == ref[1:]
                most_iters = max(most_iters, got[3])
                statuses.add(got[4])
                if isinstance(K, ToeplitzKernel) and K.index is not None:
                    subset_iters = max(subset_iters, got[3])
                    subset_statuses.add(got[4])
    assert most_iters > _RESYNC_EVERY          # the resync path ran
    assert statuses == {"gap", "stall", "iters"}
    assert subset_iters > _RESYNC_EVERY and subset_statuses >= {"gap", "iters"}


def test_away_vertex_maximizes_second_order_decrease():
    """Point 2 has the highest potential, but the step from point 1 (at
    distance 0.01 from the Frank-Wolfe vertex 0) decreases the energy
    more; one step takes its mass from point 1."""
    K = np.array([[1.0, 0.99, 0.0], [0.99, 1.0, 0.0], [0.0, 0.0, 1.0]])
    w0 = np.array([0.1, 0.4, 0.5])
    g = K @ w0
    assert int(g.argmin()) == 0 and int(g.argmax()) == 2

    def decrease(aw):
        d = np.zeros(3)
        d[0], d[aw] = 1.0, -1.0
        dKw, dKd = float(d @ g), float(d @ K @ d)
        gamma = _line_search(dKw, dKd, float(w0[aw]))
        return -(2.0 * gamma * dKw + gamma * gamma * dKd)

    w, f, _, iters, status = _frank_wolfe(K, w0, 0.0, 1)
    assert (iters, status) == (1, "iters")
    assert w[2] == w0[2] and w[1] < w0[1] and w[0] > w0[0]
    assert float(w0 @ g) - float(w @ K @ w) == pytest.approx(decrease(1), rel=1e-9)
    assert decrease(1) >= decrease(2) > 0


def test_min_energy_max_iter_exceeded_carries_result():
    # an indefinite fh matrix: no own solve, and Frank-Wolfe needs 3 steps
    km = build_kernel(KernelFamily.fh(0.5), 0.3, DeltaNet(np.array([0.0, 0.3, 1.0])))
    res = min_energy(km, tol=1e-12, max_iter=1, restarts=4)
    assert isinstance(res, EnergyResult) and not res.converged
    assert res.status == "iters" and res.iterations == 1
    assert res.restarts_used == 1
    assert 0 < res.value <= 1.0


def test_min_energy_monotone_in_scale():
    net = discretize(CompactSet.interval(0, 1), 0.02)
    fh = [min_energy(build_kernel(KernelFamily.fh(0.8), s, net), restarts=2).value
          for s in (0.02, 0.05, 0.1, 0.3)]
    assert np.all(np.diff(fh) >= -1e-9)      # kernel grows with eps
    D = np.abs(net.points[:, None] - net.points[None, :])
    sub = [min_energy(_km(np.exp(-lam ** 0.5 * D), net.points)).value
           for lam in (2.0, 8.0, 32.0)]
    assert np.all(np.diff(sub) <= 1e-9)      # kernel shrinks with lam


def test_energy_bounds_sandwich():
    for _ in range(5):
        km = random_psd_kernel(RNG, 6)
        res = min_energy(km)
        assert km.values.min() - 1e-12 <= res.value <= 1.0


# ---------------------------------------------------------------------------
# exponential kernels: exact O(n) minimizer
# ---------------------------------------------------------------------------

def _exp_km(pts, a):
    return _km(np.exp(-a * np.abs(pts[:, None] - pts[None, :])), pts)


def _cantor_net(depth):
    return discretize(CompactSet.cantor(), 3.0 ** -depth * (1 + 1e-9)).points


def test_exp_kernel_closed_form_matches_frank_wolfe():
    rng = np.random.default_rng(11)
    nets = [(np.sort(rng.uniform(0, 1, n)), float(rng.uniform(0.5, 60.0)))
            for n in (2, 3, 5, 17, 60, 150, 300)]
    nets.append((_cantor_net(5), 30.0))
    for pts, a in nets:
        exact = exp_kernel_min_energy(pts, a)
        fw = min_energy(_exp_km(pts, a), tol=1e-10)
        assert fw.converged and fw.Z_lower is not None
        assert fw.value / fw.Z_lower <= 1.0 / (1.0 - 1e-10)
        assert abs(exact.value - fw.value) <= 1e-9 * fw.value
        assert exact.iterations == 0 and exact.restarts_used == 1
        assert exact.status == "gap" and exact.Z_lower is not None
        assert exact.value / exact.Z_lower <= 1.0 / (1.0 - DEFAULT_TOL)


def test_exp_kernel_potential_matches_dense_product():
    rng = np.random.default_rng(12)
    pts = np.sort(rng.uniform(0, 1, 40))
    w = rng.dirichlet(np.ones(40))
    dense = _exp_km(pts, 7.0).values @ w
    np.testing.assert_allclose(_exp_potential(pts, 7.0, w), dense,
                               rtol=1e-13)


def test_exp_kernel_edge_cases():
    assert exp_kernel_min_energy(np.array([0.4]), 5.0).value == 1.0
    # a = 0: the all-ones kernel, energy 1 for every measure
    assert abs(exp_kernel_min_energy(np.linspace(0, 1, 7), 0.0).value - 1) < 1e-15
    # coincident points carry one atom between them
    res = exp_kernel_min_energy(np.array([0.0, 0.5, 0.5, 1.0]), 3.0)
    ref = exp_kernel_min_energy(np.array([0.0, 0.5, 1.0]), 3.0)
    assert abs(res.value - ref.value) <= 1e-15
    with pytest.raises(ValueError):
        exp_kernel_min_energy(np.array([0.0, 1.0, 0.5]), 1.0)
    with pytest.raises(ValueError):
        exp_kernel_min_energy(np.array([0.0, 1.0]), -1.0)


def test_exp_kernel_gap_is_never_negative():
    # 2(w'Kw - min Kw) of the exact minimizer rounds below 0 on some nets;
    # the certificate clamps min Kw at w'Kw as min_energy does, so
    # Z - gap <= Z_lower <= Z
    rng = np.random.default_rng(0)
    for _ in range(2000):
        pts = np.sort(rng.uniform(0, 1, rng.integers(2, 50)))
        res = exp_kernel_min_energy(pts, 10.0 ** rng.uniform(-1, 2))
        assert res.duality_gap >= 0 and res.Z_lower <= res.value
        assert res.value - res.duality_gap <= res.Z_lower


def test_exp_kernel_certificate_rejects_perturbed_weights():
    pts = np.linspace(0, 1, 41)
    w = exp_kernel_min_energy(pts, 20.0).weights.w
    _exp_certificate(pts, 20.0, w, DEFAULT_TOL)
    bumped = w.copy()
    bumped[[0, 20]] += [-1e-3, 1e-3]
    with pytest.raises(CertificateFailed):
        _exp_certificate(pts, 20.0, bumped, DEFAULT_TOL)
    negative = w.copy()
    negative[[1, 2]] += [-w[1] - 1e-9, w[1] + 1e-9]
    with pytest.raises(CertificateFailed):
        _exp_certificate(pts, 20.0, negative, 1.0)


def test_gap_certificate_bounds_the_exp_minimum_from_any_vector():
    """(min_i (Gu)_i)^2 / u'Gu never exceeds the exact minimum
    1 / (1 + sum_i tanh(a h_i / 2)) of an exponential kernel G, computed
    here from the closed form, for seeded random u of either sign, and
    equals it at u = G^-1 1."""
    rng = np.random.default_rng(21)
    signed = 0                               # bounds from u with a negative entry
    for _ in range(200):
        n = int(rng.integers(2, 40))
        pts = np.sort(rng.uniform(0, 1, n))
        a = 10.0 ** rng.uniform(-1, 2)
        G = np.exp(-a * np.abs(pts[:, None] - pts))
        z_min = 1.0 / (1.0 + np.tanh(0.5 * a * np.diff(pts)).sum())
        for u in (rng.uniform(0, 1, n), rng.standard_normal(n),
                  rng.standard_normal(n) + 2.0):
            bound = _gap_certificate(u, G @ u)[2]
            assert bound is None or bound <= z_min
            signed += bound is not None and u.min() < 0
        v = np.linalg.solve(G, np.ones(n))
        assert abs(_gap_certificate(v, G @ v)[2] - z_min) <= 1e-12 * z_min
    assert signed >= 20


def test_mis_scaled_minorant_solve_keeps_its_bound(monkeypatch):
    """The bound does not change when u is scaled: a Levinson solve
    returning 0.9 v on the C7 rung at eps = 0.028 still gives
    Z_lower <= Z, equal to the exact solve's bound.  1/1'v would read
    0.406 there, above Z = 0.367."""
    net = discretize(CompactSet.interval(0, 1), 0.028 / 5)
    fam = KernelFamily.fh(0.5)
    exact = rung_min_energy(fam, 0.028, net)
    solve_toeplitz = energy_min.linalg.solve_toeplitz
    monkeypatch.setattr(energy_min.linalg, "solve_toeplitz",
                        lambda *args, **kw: 0.9 * solve_toeplitz(*args, **kw))
    res = rung_min_energy(fam, 0.028, net)
    assert res.Z_lower <= res.value
    assert abs(res.Z_lower - exact.Z_lower) <= 1e-12 * exact.Z_lower


def test_exp_kernel_cantor_nets_decrease_to_mesh_free_oracle():
    x = 50.0
    z_f = cantor_exp_kernel_min_energy(x)
    zs = np.array([exp_kernel_min_energy(_cantor_net(d), x).value
                   for d in range(3, 11)])
    assert np.all(zs >= z_f * (1 - 1e-9))
    assert np.all(np.diff(zs) <= 0)
    assert abs(zs[-1] - z_f) <= 5e-9 * z_f
    assert abs(zs[0] - z_f) > 1e-3 * z_f       # the coarse nets are visibly off


def test_exp_kernel_interval_nets_approach_continuous_minimum():
    x = 50.0
    errs = [abs(exp_kernel_min_energy(np.linspace(0, 1, m + 1), x).value
                - interval_exp_kernel_min_energy(x))
            for m in (10, 100, 1000, 10000)]
    assert np.all(np.diff(errs) < 0)        # error ~ x^3 Z^2 / (24 m^2)
    assert errs[-1] <= 1e-5 * interval_exp_kernel_min_energy(x)


# ---------------------------------------------------------------------------
# bruteforce oracle
# ---------------------------------------------------------------------------

def test_bruteforce_examples():
    assert abs(min_energy_bruteforce(_km([[1, 0.5], [0.5, 1]])) - 0.75) < 1e-12
    assert abs(min_energy_bruteforce(_km(np.eye(2))) - 0.5) < 1e-12


@pytest.mark.parametrize("n,R", [(1, 7), (2, 9), (3, 12), (4, 10), (5, 6)])
def test_bruteforce_equals_every_lattice_point(n, R):
    """The closed-form split of the last edge finds the same minimum as
    evaluating every lattice point, on PSD, indefinite and concave-edge kernels."""
    rng = np.random.default_rng(100 + n)
    lattice = np.array([c for c in np.ndindex(*(R + 1,) * n) if sum(c) == R],
                       dtype=float) / R
    psd = random_psd_kernel(rng, n).values
    indefinite = psd - 0.4 * np.eye(n)
    concave = np.ones((n, n))
    if n >= 2:
        concave[n - 2, n - 1] = concave[n - 1, n - 2] = 1.5   # d'A d < 0 on the last edge
    for A in (psd, indefinite, concave):
        want = float(np.einsum("ij,jk,ik->i", lattice, A, lattice).min())
        assert abs(min_energy_bruteforce(_km(A), resolution=1 / R) - want) <= 1e-14


@pytest.mark.parametrize("R,k", [(0, 1), (5, 1), (0, 3), (1, 4), (6, 3), (9, 5)])
def test_compositions_enumerates_each_lattice_row_once(R, k):
    rows = np.concatenate(list(energy_min._compositions(R, k)))
    assert rows.shape == (math.comb(R + k - 1, k - 1), k)
    assert np.all(rows >= 0) and np.all(rows.sum(axis=1) == R)
    assert len({tuple(r) for r in rows}) == rows.shape[0]


def test_compositions_split_on_leading_counts(monkeypatch):
    """Blocks capped below the lattice size split on their leading counts,
    together give the same rows, and leave the oracle's minimum unchanged."""
    km = random_psd_kernel(np.random.default_rng(3), 5)
    whole = {tuple(r) for r in np.concatenate(list(energy_min._compositions(12, 4)))}
    want = min_energy_bruteforce(km, resolution=1 / 12)
    monkeypatch.setattr(energy_min, "_ENUM_CHUNK_ROWS", 20)
    blocks = list(energy_min._compositions(12, 4))
    assert len(blocks) > 1 and max(b.shape[0] for b in blocks) <= 20
    rows = np.concatenate(blocks)
    assert rows.shape[0] == len(whole) and {tuple(r) for r in rows} == whole
    assert min_energy_bruteforce(km, resolution=1 / 12) == want


@pytest.mark.parametrize("resolution", [0.0, -0.1, 1.5, float("nan"), float("inf")])
def test_bruteforce_rejects_resolution_outside_unit_interval(resolution):
    # 1.5 would round to R = 1 and return 1.0 on eye(2), whose minimum is 0.5
    with pytest.raises(ValueError, match="resolution"):
        min_energy_bruteforce(_km(np.eye(2)), resolution=resolution)


def test_bruteforce_vs_fw_on_3x3_fh_kernel():
    net = DeltaNet(np.array([0.0, 0.5, 1.0]))
    km = build_kernel(KernelFamily.fh(1.0), 0.5, net)
    bf = min_energy_bruteforce(km, resolution=1 / 200)
    res = min_energy(km)
    assert abs(bf - res.value) <= 1e-3


def test_bruteforce_budget_and_size_guards():
    km = random_psd_kernel(RNG, 6)
    with pytest.raises(TooLarge):
        min_energy_bruteforce(km)               # 2.9e9 lattice points at 1/200
    big = _km(np.eye(9))
    with pytest.raises(TooLarge):
        min_energy_bruteforce(big, resolution=0.5)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_kkt_certificate_examples():
    km = _km([[1, 0.3], [0.3, 1]])
    ok, _ = kkt_certificate(km, SimplexWeights(np.array([0.5, 0.5]),
                                               km.points), tol=1e-9)
    assert ok
    ok, rep = kkt_certificate(_km(np.eye(2)),
                              SimplexWeights(np.array([1.0, 0.0]),
                                             np.array([0.0, 1.0])), tol=1e-6)
    assert not ok and not rep["lower_bound_ok"]


def test_kkt_holds_on_converged_outputs_fuzz():
    for _ in range(10):
        km = random_psd_kernel(RNG, int(RNG.integers(2, 7)))
        res = min_energy(km)
        ok, _ = kkt_certificate(km, res.weights, tol=1e-5)
        assert ok


@pytest.mark.parametrize("w", [[np.nan, 1.0], [0.5, np.nan, 0.5], [np.nan, np.nan]])
def test_simplex_weights_reject_nan(w):
    with pytest.raises(ValueError):
        SimplexWeights(np.array(w), np.linspace(0.0, 1.0, len(w)))


def test_simplex_weights_validation():
    with pytest.raises(ValueError):
        SimplexWeights(np.array([0.5, 0.6]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        SimplexWeights(np.array([-0.1, 1.1]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        SimplexWeights(np.array([1.0]), np.array([0.0, 1.0]))
