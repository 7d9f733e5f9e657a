"""Kernel assembly, Frank-Wolfe minimization, and its oracles."""

import math

import numpy as np
import pytest

from fracdim import energy_min
from fracdim.errors import CertificateFailed, NetTooLarge, TooLarge
from fracdim.energy_min import (_RESYNC_EVERY, DEFAULT_MAX_ITER,
                                DEFAULT_RESTARTS, DEFAULT_TOL, DENSE_NET_CAP,
                                EnergyResult, KernelMatrix, SimplexWeights,
                                ToeplitzKernel, _assemble, _convex_minorant,
                                _frank_wolfe, _grid_distances,
                                _minorant_solve,
                                build_kernel,
                                exp_kernel_certificate, exp_kernel_min_energy,
                                exp_kernel_potential, is_psd, kkt_certificate,
                                min_energy, min_energy_bruteforce,
                                rung_min_energy)
from fracdim.oracles import (cantor_exp_kernel_min_energy,
                             interval_exp_kernel_min_energy)
from fracdim.process_models import KernelFamily, LevyModel
from fracdim.profiles import fh_profile
from fracdim.set_models import CompactSet, DeltaNet, discretize
from fracdim.utils import substream
from fracdim.verify import _BF_RESOLUTION, random_psd_kernel

RNG = np.random.default_rng(7)


def _km(values, pts=None):
    values = np.asarray(values, dtype=float)
    pts = np.arange(values.shape[0], dtype=float) if pts is None else pts
    return KernelMatrix(values, pts)


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
    for fam in (KernelFamily.fh(0.7), KernelFamily.stable_sandwich(1.2, 1)):
        K = build_kernel(fam, 0.05, net).values
        assert np.all(np.diag(K) == 1.0)
        assert np.all((K >= 0) & (K <= 1))
        np.testing.assert_array_equal(K, K.T)


def test_build_kernel_net_cap():
    net = DeltaNet(np.linspace(0, 1, DENSE_NET_CAP + 2))
    with pytest.raises(NetTooLarge):
        build_kernel(KernelFamily.fh(1.0), 0.1, net)


def test_build_kernel_equals_full_matrix_evaluation():
    # row blocks give the same numbers as one elementwise evaluation of
    # the whole distance matrix, on nets spanning several blocks
    nets = [discretize(CompactSet.interval(0, 1), 0.0015),
            discretize(CompactSet.cantor(), 3.0 ** -8 * (1 + 1e-9))]
    for net in nets:
        assert net.points.size > 256
        D = np.abs(net.points[:, None] - net.points[None, :])
        for fam, scale in ((KernelFamily.fh(0.5), 0.01),
                           (KernelFamily.fh(1.5), 0.003),
                           (KernelFamily.stable_sandwich(1.3, 1), 0.02),
                           (KernelFamily.stable_sandwich(0.7, 2), 0.05)):
            K = build_kernel(fam, scale, net).values
            ref = np.clip(fam.evaluate(scale, D), 0.0, 1.0)
            np.fill_diagonal(ref, 1.0)
            assert np.array_equal(K, ref)
            assert np.array_equal(K, K.T)


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
    """Eight random PSD kernels and C2's 50 (seed 0): the probe passes, so
    Z_lower is the duality bound Z - gap, which never exceeds the lattice
    oracle, an upper bound on the minimum."""
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
        assert res.converged and res.Z_lower == res.value - res.duality_gap
        assert 0 < res.Z_lower <= bf + 1e-12
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
            res = min_energy(km, restarts=2, minorant=mass)
            assert res.start == "uniform" and res.value <= uniform + 1e-12
    with pytest.raises(ValueError, match="positive entry"):
        min_energy(km, minorant=np.full(net.points.size, -0.5))


def _minorant_v(fam, scale, pts):
    """v = G^-1 1 for the convex minorant on the rung's own route."""
    return _minorant_solve(_assemble(lambda r: _convex_minorant(fam, scale, r),
                                     pts, _grid_distances(pts)).values)


def test_fh_companion_solve_matches_dense_solve():
    """The convex minorant's solve (Toeplitz on the interval net, Cholesky
    on the others) against a dense solve of g written out in full; g lies
    between fh / R(s) and fh."""
    for net in _fh_test_nets():
        pts = net.points
        D = np.abs(pts[:, None] - pts)
        for fam, scale in ((KernelFamily.fh(0.5), 0.01), (KernelFamily.fh(1.5), 0.1),
                           (KernelFamily.stable_sandwich(1.3, 1), 0.02)):
            s, eps = fam.power_law(scale)
            r_star = eps * (1 + s) ** (1 / s)
            G = np.where(D <= r_star, 1 - s / ((1 + s) * r_star) * D,
                         (eps / np.maximum(D, r_star)) ** s)
            K = fam.evaluate(scale, D)
            R = 1 / (1 - s / (1 + s) * (1 + s) ** (-1 / s))
            assert np.all(G <= K) and np.all(K <= R * G * (1 + 1e-12))
            v = _minorant_v(fam, scale, pts)
            ref = np.linalg.solve(G, np.ones(pts.size))
            assert np.max(np.abs(v - ref)) <= 1e-9 * np.max(np.abs(ref))
    assert _minorant_v(KernelFamily.fh(1.0), 0.1, np.array([0.0, 0.0, 1.0])) is None


def test_only_kernels_without_a_minorant_are_probed(monkeypatch):
    """fh rungs hand their minorant solve to `min_energy` and are never
    probed, on the C7 ladder and on a Cantor ladder; an exact Cauchy rung
    and a caller's PSD matrix are probed, and carry Z_lower = Z - gap."""
    def forbidden(A):
        raise AssertionError("a power-law rung was probed")

    monkeypatch.setattr(energy_min, "is_psd", forbidden)
    eps = 0.028 * (1.0 / 3.0) ** np.arange(4)
    for rep in (fh_profile(CompactSet.interval(0, 1), 0.5, eps, mesh_ratio=5.0,
                           restarts=2, seed=0),
                fh_profile(CompactSet.cantor(), 1.5, 3.0 ** -np.arange(2, 6.0),
                           restarts=2, seed=0)):
        for rung in rep.rungs:
            assert rung["start"] == "minorant" and rung["Z_lower"] is not None
    probed = []

    def counted(A):
        probed.append(A.shape)
        return is_psd(A)

    monkeypatch.setattr(energy_min, "is_psd", counted)
    cauchy = rung_min_energy(KernelFamily.exact(LevyModel.isotropic_stable(1.0)),
                             0.2, discretize(CompactSet.interval(0, 1), 0.02))
    raw = min_energy(random_psd_kernel(np.random.default_rng(3), 6))
    assert len(probed) == 2
    for res in (cauchy, raw):
        assert res.start == "uniform"
        assert res.Z_lower == res.value - res.duality_gap


def test_minorant_with_a_nonpositive_entry_gives_no_certificate(monkeypatch):
    """v with a nonpositive entry still seeds the start, clipped at 0 and
    normalized, but certifies nothing."""
    net = discretize(CompactSet.cantor(), 3.0 ** -5)
    fam = KernelFamily.fh(1.5)
    v = _minorant_v(fam, 0.05, net.points)
    assert np.all(v > 0)
    v[[0, 5]] = (-v[0], 0.0)
    starts = []

    def recorded(K, w0, tol, max_iter):
        starts.append(w0.copy())
        return _frank_wolfe(K, w0, tol, max_iter)

    monkeypatch.setattr(energy_min, "_frank_wolfe", recorded)
    res = min_energy(build_kernel(fam, 0.05, net), minorant=v)
    assert res.start == "minorant" and res.Z_lower is None
    clipped = np.clip(v, 0.0, None)
    np.testing.assert_array_equal(starts[0], clipped / clipped.sum())


def test_minorant_must_be_finite_on_the_net_with_a_positive_entry():
    km = build_kernel(KernelFamily.fh(0.5), 0.1, discretize(CompactSet.interval(0, 1), 0.05))
    n = km.n
    nan, inf = np.ones(n), np.ones(n)
    nan[2], inf[3] = np.nan, np.inf
    for v in (np.ones(n + 1), np.ones((n, 1)), nan, inf, np.zeros(n), -np.ones(n)):
        with pytest.raises(ValueError, match="minorant"):
            min_energy(km, minorant=v)


def test_sandwich_rung_is_the_fh_rung_at_mapped_parameters():
    """stable_sandwich(alpha, d) at eps is fh(d/alpha) at eps^alpha: the
    same Z, Z_lower and start, on an interval net and a Cantor net."""
    for net in (discretize(CompactSet.interval(0, 1), 0.004),
                discretize(CompactSet.cantor(), 3.0 ** -6)):
        for alpha, d, eps in ((1.3, 1, 0.02), (0.7, 2, 0.05)):
            sw = rung_min_energy(KernelFamily.stable_sandwich(alpha, d), eps, net,
                                 restarts=2)
            fh = rung_min_energy(KernelFamily.fh(d / alpha), eps ** alpha, net,
                                 restarts=2)
            assert sw.start == "minorant" and sw.Z_lower is not None
            assert (sw.value, sw.Z_lower, sw.start) == (fh.value, fh.Z_lower, fh.start)


def test_net_too_large_raises_before_any_solve(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("solve ran on a net above the cap")

    monkeypatch.setattr(energy_min.linalg, "solve_toeplitz", unreachable)
    monkeypatch.setattr(energy_min.linalg, "cho_factor", unreachable)
    big = np.linspace(0, 1, DENSE_NET_CAP + 2)
    for pts in (big, big ** 2):
        with pytest.raises(NetTooLarge):
            rung_min_energy(KernelFamily.fh(0.5), 0.1, DeltaNet(pts))


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


def test_companion_start_matches_two_start_reference():
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
              (KernelFamily.stable_sandwich(1.3, 1), 0.02, 668),
              (KernelFamily.stable_sandwich(0.7, 2), 0.05, 400),
              (KernelFamily.exact(LevyModel.isotropic_stable(1.5)), 0.1, 41)]
    for fam, scale, n in cases:
        net = DeltaNet(np.linspace(0.0, 1.0, n))
        T = _assemble(lambda r: fam.evaluate(scale, r), net.points,
                      _grid_distances(net.points)).values
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
                           minorant=_minorant_v(fam, e, net.points))
        assert res.converged and dense.converged
        assert abs(res.value - dense.value) <= 1e-9 * dense.value


def test_equal_gap_rungs_build_no_dense_kernel(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return build_kernel(*args)

    monkeypatch.setattr(energy_min, "build_kernel", counted)
    net = discretize(CompactSet.interval(0, 1), 0.028 / 5)
    for fam in (KernelFamily.fh(0.5), KernelFamily.stable_sandwich(1.3, 1),
                KernelFamily.exact(LevyModel.isotropic_stable(1.5))):
        assert rung_min_energy(fam, 0.028, net, restarts=2).converged
    assert calls == []
    with pytest.raises(NetTooLarge):
        rung_min_energy(KernelFamily.fh(1.0), 0.1,
                        DeltaNet(np.linspace(0, 1, DENSE_NET_CAP + 2)))
    assert calls == []
    # Cantor nets are not equal-gap, and stay dense
    rung_min_energy(KernelFamily.fh(1.5), 3.0 ** -4,
                    discretize(CompactSet.cantor(), 3.0 ** -5), restarts=2)
    assert len(calls) == 1


def test_min_energy_probes_toeplitz_kernel():
    """A ToeplitzKernel with a positive definite column (the exponential
    kernel) passes the Cholesky probe, needs one start, and matches the
    closed form."""
    pts = np.linspace(0.0, 1.0, 200)
    col = np.exp(-7.0 * (pts - pts[0]))
    res = min_energy(KernelMatrix(ToeplitzKernel(col), pts), tol=1e-9)
    assert res.restarts_used == 1 and res.Z_lower is not None
    assert res.value / res.Z_lower <= 1.0 / (1.0 - 1e-9)
    exact = exp_kernel_min_energy(pts, 7.0).value
    assert abs(res.value - exact) <= 1e-8 * exact


def test_min_energy_rejects_asymmetric_kernel():
    A = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3 + 1e-16, 1.0]])
    assert not np.array_equal(A, A.T)
    with pytest.raises(ValueError, match="symmetric"):
        min_energy(_km(A))


def _line_search(dKw: float, dKd: float, gmax: float) -> float:
    """Exact step for f(w + g d) = f + 2 g dKw + g^2 dKd on [0, gmax]; the
    rule `_frank_wolfe` inlines."""
    if dKd > 0:
        return min(gmax, max(0.0, -dKw / dKd))
    # concave along d: descent means go to the boundary
    return gmax if 2 * gmax * dKw + gmax * gmax * dKd < 0 else 0.0


def _column_frank_wolfe(K, w0, tol, max_iter):
    """The pairwise loop on strided columns and a boolean support mask,
    with the away vertex scored as in `_frank_wolfe` (the same
    arithmetic, so near-ties resolve alike); the production loop must
    reproduce it bit for bit."""
    w = w0.copy()
    g = K @ w
    f = float(w @ g)
    gap = float("inf")
    diag = np.diag(K)
    dbuf = np.empty_like(g)
    for it in range(1, max_iter + 1):
        fw = int(np.argmin(g))
        gap = 2.0 * (f - g[fw])
        if gap <= tol * max(f, 1e-300):
            return w, f, gap, it - 1, "gap"
        curv = K[:, fw] * -2.0 + diag + K[fw, fw]
        delta = g - g[fw]
        step = np.minimum(delta / np.maximum(curv, energy_min._WSS_TAU), w)
        score = (delta * 2.0 - curv * step) * step
        score[w <= 0.0] = -np.inf
        aw = int(np.argmax(score))
        if aw == fw:
            return w, f, gap, it, "stall"
        dKw = float(g[fw] - g[aw])
        dKd = float(K[fw, fw] + K[aw, aw] - 2.0 * K[fw, aw])
        if dKw >= 0:
            return w, f, gap, it, "stall"
        gamma = _line_search(dKw, dKd, float(w[aw]))
        if gamma <= 0:
            return w, f, gap, it, "stall"
        drop = gamma >= w[aw] * (1.0 - 1e-12)
        w[aw] = 0.0 if drop else w[aw] - gamma
        w[fw] += gamma
        np.subtract(K[:, fw], K[:, aw], out=dbuf)
        dbuf *= gamma
        g += dbuf
        f += 2.0 * gamma * dKw + gamma * gamma * dKd
        if it % _RESYNC_EVERY == 0:
            np.clip(w, 0.0, None, out=w)
            w /= w.sum()
            g = K @ w
            f = float(w @ g)
    return w, f, gap, max_iter, "iters"


def test_frank_wolfe_bit_identical_to_column_reference():
    rng = np.random.default_rng(5)
    kernels = []
    for n in (5, 17, 60, 150, 400):
        kernels.append(random_psd_kernel(rng, n).values)
        net = DeltaNet(np.sort(rng.uniform(0, 1, n)))
        kernels.append(build_kernel(KernelFamily.fh(float(rng.uniform(0.3, 1.5))),
                                    float(rng.uniform(0.02, 0.3)), net).values)
    most_iters = 0
    statuses = set()
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
    assert most_iters > _RESYNC_EVERY          # the resync path ran
    assert statuses == {"gap", "stall", "iters"}


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
    pts = np.array([0.0, 0.3, 1.0])
    D = np.abs(pts[:, None] - pts[None, :])
    km = _km(np.exp(-3.0 * D), pts)
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
    np.testing.assert_allclose(exp_kernel_potential(pts, 7.0, w), dense,
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


def test_exp_kernel_certificate_rejects_perturbed_weights():
    pts = np.linspace(0, 1, 41)
    w = exp_kernel_min_energy(pts, 20.0).weights.w
    exp_kernel_certificate(pts, 20.0, w)
    bumped = w.copy()
    bumped[[0, 20]] += [-1e-3, 1e-3]
    with pytest.raises(CertificateFailed):
        exp_kernel_certificate(pts, 20.0, bumped)
    negative = w.copy()
    negative[[1, 2]] += [-w[1] - 1e-9, w[1] + 1e-9]
    with pytest.raises(CertificateFailed):
        exp_kernel_certificate(pts, 20.0, negative, tol=1.0)


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


def test_simplex_weights_validation():
    with pytest.raises(ValueError):
        SimplexWeights(np.array([0.5, 0.6]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        SimplexWeights(np.array([-0.1, 1.1]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        SimplexWeights(np.array([1.0]), np.array([0.0, 1.0]))
