"""Kernel assembly, Frank-Wolfe minimization, and its oracles."""

import numpy as np
import pytest

from fracdim import energy_min
from fracdim.errors import (CertificateFailed, MaxIterExceeded, NetTooLarge,
                            TooLarge)
from fracdim.energy_min import (_RESYNC_EVERY, DEFAULT_MAX_ITER,
                                DEFAULT_RESTARTS, DEFAULT_TOL, DENSE_NET_CAP,
                                EnergyResult, KernelMatrix, SimplexWeights,
                                _fh_companion_solve, _frank_wolfe,
                                _line_search, build_kernel,
                                exp_kernel_certificate, exp_kernel_min_energy,
                                exp_kernel_potential, is_psd, kkt_certificate,
                                min_energy, min_energy_bruteforce,
                                rung_min_energy)
from fracdim.oracles import (cantor_exp_kernel_min_energy,
                             interval_exp_kernel_min_energy)
from fracdim.process_models import KernelFamily, LaplaceExponent
from fracdim.set_models import CompactSet, DeltaNet, discretize
from fracdim.verify import random_psd_kernel

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

    K = build_kernel(KernelFamily.subordinator_exp(
        LaplaceExponent.compound_poisson_drift(0, 1, 1)), np.log(2), net)
    np.testing.assert_allclose(K.values, [[1, 0.5], [0.5, 1]])

    net3 = DeltaNet(np.array([0.0, 0.5, 1.0]))
    K = build_kernel(KernelFamily.fh(1.0), 0.5, net3)
    np.testing.assert_allclose(K.values, [[1, 1, 0.5], [1, 1, 1], [0.5, 1, 1]])


def test_build_kernel_invariants_random():
    net = discretize(CompactSet.interval(0, 1), 0.01)
    for fam in (KernelFamily.fh(0.7), KernelFamily.stable_sandwich(1.2, 1),
                KernelFamily.subordinator_exp(LaplaceExponent.stable(0.5))):
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
        net = DeltaNet(pts)
        lam = float(RNG.uniform(0.5, 50))
        K = build_kernel(KernelFamily.subordinator_exp(
            LaplaceExponent.stable(0.6)), lam, net)
        assert is_psd(K.values)


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
    for i in range(8):
        n = int(RNG.integers(2, 7))
        km = random_psd_kernel(RNG, n)
        res = min_energy(km)
        bf = min_energy_bruteforce(km, resolution=1 / 60 if n >= 5 else 1 / 100)
        assert abs(res.value - bf) <= 1e-3
        assert res.converged and not res.flagged_nonconvex
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
    assert res.flagged_nonconvex and res.restarts_used == len(statuses)
    assert len(statuses) == (1 if statuses[0] == "gap" else DEFAULT_RESTARTS)
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
            assert res.start in ("companion", "uniform")
            assert res.value <= uniform + 1e-12
            # a point mass (energy 1) loses to the uniform measure
            mass = np.zeros(net.points.size)
            mass[0] = 1.0
            res = min_energy(km, restarts=2, start=mass)
            assert res.start == "uniform" and res.value <= uniform + 1e-12
    with pytest.raises(ValueError, match="probability vector"):
        min_energy(km, start=np.full(net.points.size, 0.5))


def test_fh_companion_solve_matches_dense_solve():
    for net in _fh_test_nets():
        pts = net.points
        for s, eps in ((0.5, 0.01), (1.5, 0.1)):
            C = (1.0 + np.abs(pts[:, None] - pts) / eps) ** -s
            v = _fh_companion_solve(pts, s, eps)
            ref = np.linalg.solve(C, np.ones(pts.size))
            assert np.max(np.abs(v - ref)) <= 1e-9 * np.max(np.abs(ref))
    assert _fh_companion_solve(np.array([0.0, 0.0, 1.0]), 1.0, 0.1) is None


def test_min_energy_restarts_only_after_failed_first_run(monkeypatch):
    net = discretize(CompactSet.interval(0, 1), 0.028 / 5)
    fam = KernelFamily.fh(0.5)
    statuses = _counting_frank_wolfe(monkeypatch)
    res = rung_min_energy(fam, 0.028, net, restarts=4)
    assert statuses == ["gap"] and res.restarts_used == 1
    assert res.converged and res.flagged_nonconvex and res.start == "companion"
    statuses.clear()
    with pytest.raises(MaxIterExceeded) as ei:
        min_energy(build_kernel(fam, 0.028, net), max_iter=5, restarts=4)
    assert statuses == ["iters"] * 4
    assert ei.value.result.restarts_used == 4


def test_companion_start_matches_two_start_reference():
    """fh_profile rungs up to n = 537: one companion-started solve against
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
            assert res.start == "companion" and res.restarts_used == 1
            A = build_kernel(fam, e, net).values
            n = A.shape[0]
            w_dir = np.random.default_rng(k).dirichlet(np.ones(n))
            ref = min(_frank_wolfe(A, w0, DEFAULT_TOL, DEFAULT_MAX_ITER)[1]
                      for w0 in (np.full(n, 1.0 / n), w_dir))
            assert abs(res.value - ref) <= rel * ref


def test_min_energy_rejects_asymmetric_kernel():
    A = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3 + 1e-16, 1.0]])
    assert not np.array_equal(A, A.T)
    with pytest.raises(ValueError, match="symmetric"):
        min_energy(_km(A))


def _column_frank_wolfe(K, w0, tol, max_iter):
    """The pairwise loop as it read strided columns and a boolean support
    mask; the production loop must reproduce it bit for bit."""
    w = w0.copy()
    g = K @ w
    f = float(w @ g)
    gap = float("inf")
    dbuf = np.empty_like(g)
    masked = np.empty_like(g)
    for it in range(1, max_iter + 1):
        fw = int(np.argmin(g))
        gap = 2.0 * (f - g[fw])
        if gap <= tol * max(f, 1e-300):
            return w, f, gap, it - 1, "gap"
        np.copyto(masked, g)
        masked[w <= 0.0] = -np.inf
        aw = int(np.argmax(masked))
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


def test_min_energy_max_iter_exceeded_carries_result():
    pts = np.array([0.0, 0.3, 1.0])
    D = np.abs(pts[:, None] - pts[None, :])
    km = _km(np.exp(-3.0 * D), pts)
    with pytest.raises(MaxIterExceeded) as ei:
        min_energy(km, tol=1e-12, max_iter=1)
    res = ei.value.result
    assert isinstance(res, EnergyResult) and not res.converged
    assert 0 < res.value <= 1.0


def test_min_energy_monotone_in_scale():
    net = discretize(CompactSet.interval(0, 1), 0.02)
    fh = [min_energy(build_kernel(KernelFamily.fh(0.8), s, net), restarts=2).value
          for s in (0.02, 0.05, 0.1, 0.3)]
    assert np.all(np.diff(fh) >= -1e-9)      # kernel grows with eps
    sub = [min_energy(build_kernel(KernelFamily.subordinator_exp(
        LaplaceExponent.stable(0.5)), lam, net)).value
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
        assert fw.converged and not fw.flagged_nonconvex
        assert abs(exact.value - fw.value) <= 1e-9 * fw.value
        assert exact.iterations == 0 and exact.restarts_used == 1
        assert exact.converged and not exact.flagged_nonconvex


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
