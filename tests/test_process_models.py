"""Process descriptors, ball probabilities, and Cauchy-weighted energies."""

import numpy as np
import pytest
from scipy import integrate, special

from fracdim.errors import NonConvergedQuadrature
from fracdim.energy_min import SimplexWeights
from fracdim.process_models import (CharExponent, KernelFamily,
                                    LaplaceExponent, LevyModel,
                                    cauchy_weighted_energy,
                                    kappa_monte_carlo, kappa_stable_1d,
                                    one_sided_stable,
                                    symmetric_stable)

RNG = np.random.default_rng(20240817)


def _models():
    return [
        LevyModel.isotropic_stable(0.7, 1.0, 1),
        LevyModel.isotropic_stable(1.0, 2.0, 1),
        LevyModel.isotropic_stable(2.0, 1.0, 1),
        LevyModel.isotropic_stable(1.5, 1.0, 2),
        LevyModel.subordinator(LaplaceExponent.stable(0.4)),
        LevyModel.subordinator(LaplaceExponent.gamma(1.2, 0.8)),
        LevyModel.subordinator(LaplaceExponent.compound_poisson_drift(2.0, 0.5, 0.3)),
        LevyModel.subordinate_brownian(LaplaceExponent.stable(0.6), 2),
    ]


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------

def test_char_exponent_normalization_and_positivity():
    for m in _models():
        if m.psi is None:
            continue
        assert abs(m.psi(np.zeros(m.d))) < 1e-14
        for _ in range(50):
            z = RNG.normal(0, 3, m.d)
            val = m.psi(z)
            assert val.real >= -1e-12
            if m.kind != "subordinator":
                assert abs(val.imag) < 1e-12
                assert abs(m.psi(-z) - val) < 1e-12


def test_laplace_exponents_concave_nondecreasing():
    for phi in (LaplaceExponent.stable(0.3), LaplaceExponent.stable(0.8),
                LaplaceExponent.gamma(2.0, 0.5),
                LaplaceExponent.compound_poisson_drift(1.5, 2.0, 0.2)):
        assert phi(0.0) == 0.0
        for lam in (np.linspace(0.0, 5.0, 200), np.linspace(0.01, 80.0, 400)):
            v = phi(lam)
            assert np.all(np.diff(v) >= -1e-12)
            # concavity: second differences nonpositive on a uniform grid
            assert np.all(np.diff(v, 2) <= 1e-9)
        # and chord slopes nonincreasing on a log grid
        lam = np.logspace(-3, 3, 100)
        slopes = np.diff(phi(lam)) / np.diff(lam)
        assert np.all(np.diff(slopes) <= 1e-9)


def test_laplace_exponent_char_continuation_matches_transform():
    # E exp(i xi S(t)) from Monte Carlo against exp(-t Phi(-i xi))
    for phi in (LaplaceExponent.stable(0.5), LaplaceExponent.gamma(1.0, 1.0)):
        s = phi.sample_increments(np.ones(200_000), np.random.default_rng(3))
        psi = phi.char_exponent()
        for xi in (0.5, 1.0):
            emp = np.mean(np.exp(1j * xi * s))
            want = np.exp(-psi(xi))
            assert abs(emp - want) < 5e-3


# ---------------------------------------------------------------------------
# exact samplers
# ---------------------------------------------------------------------------

def test_symmetric_stable_characteristic_function():
    for alpha in (0.6, 1.0, 1.7, 2.0):
        x = symmetric_stable(np.random.default_rng(5), alpha, 300_000)
        for z in (0.5, 1.5):
            emp = np.mean(np.cos(z * x))
            assert abs(emp - np.exp(-abs(z) ** alpha)) < 5e-3


def test_one_sided_stable_laplace_transform():
    for beta in (0.3, 0.5, 0.8):
        s = one_sided_stable(np.random.default_rng(6), beta, 300_000)
        for lam in (0.5, 1.0, 2.0):
            emp = np.mean(np.exp(-lam * s))
            assert abs(emp - np.exp(-lam ** beta)) < 5e-3


# ---------------------------------------------------------------------------
# ball probabilities
# ---------------------------------------------------------------------------

def test_kappa_quadrature_against_closed_forms():
    assert kappa_stable_1d(2.0, 1.0, 0.37, 0.0) == 1.0
    got = kappa_stable_1d(2.0, 1.0, 1.0, 1.0)
    assert abs(got - special.erf(0.5)) < 1e-8
    got = kappa_stable_1d(1.0, 1.0, 1.0, 1.0)
    assert abs(got - 0.5) < 1e-8
    # generic parameters vs the Gaussian/Cauchy oracles at other scales
    assert abs(kappa_stable_1d(2.0, 0.5, 0.3, 2.0) -
               special.erf(0.3 / (2 * np.sqrt(0.5 * 2.0)))) < 1e-8
    assert abs(kappa_stable_1d(1.0, 2.0, 0.7, 0.4) -
               2 / np.pi * np.arctan(0.7 / 0.8)) < 1e-8


def test_kappa_quadrature_oscillatory_regime_matches_monte_carlo():
    got = kappa_stable_1d(0.5, 1.0, 0.01, 0.7)
    x = 0.7 ** 2 * symmetric_stable(np.random.default_rng(8), 0.5, 2_000_000)
    mc = np.mean(np.abs(x) <= 0.01)
    assert abs(got - mc) < 4e-4


def test_kappa_monotone_in_eps_continuous_in_t():
    for alpha in (0.8, 1.6):
        eps_grid = np.linspace(0.05, 2.0, 15)
        vals = [kappa_stable_1d(alpha, 1.0, e, 0.6) for e in eps_grid]
        assert np.all(np.diff(vals) >= -1e-10)
        t_grid = np.linspace(0.1, 2.0, 80)
        ks = np.array([kappa_stable_1d(alpha, 1.0, 0.5, t) for t in t_grid])
        assert np.max(np.abs(np.diff(ks))) < 0.05   # no jumps on a fine grid


def test_kappa_quadrature_rejects_overflowing_truncation():
    with pytest.raises(NonConvergedQuadrature):
        kappa_stable_1d(0.2, 1.0, 1e-6, 1e-250)


def test_kappa_monte_carlo_oracles():
    m = LevyModel.isotropic_stable(2.0, 1.0, 1)
    assert kappa_monte_carlo(m, 0.4, 0.0, 10_000, seed=1) == (1.0, 0.0)
    est, hw = kappa_monte_carlo(m, 1.0, 1.0, 1_000_000, seed=2)
    assert abs(est - special.erf(0.5)) <= 0.002 and hw < 0.002
    ms = LevyModel.subordinator(LaplaceExponent.stable(0.5))
    est, hw = kappa_monte_carlo(ms, 1.0, 1.0, 1_000_000, seed=2)
    assert abs(est - special.erfc(0.5)) <= 0.002

    # determinism and the d = 2 Gaussian product oracle
    assert kappa_monte_carlo(m, 0.7, 0.9, 50_000, seed=9) == \
        kappa_monte_carlo(m, 0.7, 0.9, 50_000, seed=9)
    m2 = LevyModel.isotropic_stable(2.0, 1.0, 2)
    est, _ = kappa_monte_carlo(m2, 1.0, 1.0, 400_000, seed=4)
    assert abs(est - special.erf(0.5) ** 2) < 0.004


def test_subordinated_stable_matches_direct_cms_in_1d():
    # d >= 2 sampling goes through Gaussian subordination; in d = 1 both
    # routes exist, so compare their ball probabilities
    alpha = 1.4
    direct = LevyModel.isotropic_stable(alpha, 1.0, 1)
    est_d, _ = kappa_monte_carlo(direct, 0.8, 0.5, 400_000, seed=11)
    rng = np.random.default_rng(12)
    clock = 0.5 ** (2 / alpha) * one_sided_stable(rng, alpha / 2, 400_000)
    x = np.sqrt(2 * clock) * rng.standard_normal(400_000)
    est_s = np.mean(np.abs(x) < 0.8)
    assert abs(est_d - est_s) < 0.004


# ---------------------------------------------------------------------------
# kernel families
# ---------------------------------------------------------------------------

def _kernel_at(family, scale, r):
    return family.evaluate(scale, np.array([r]))[0]


def test_kernel_eval_closed_forms():
    fh = KernelFamily.fh(0.5)
    assert abs(_kernel_at(fh, 0.1, 0.4) - 0.5) < 1e-14
    sub = KernelFamily.subordinator_exp(LaplaceExponent.stable(0.5))
    assert abs(_kernel_at(sub, 100.0, 0.2) - np.exp(-2.0)) < 1e-14
    sw = KernelFamily.stable_sandwich(0.5, 2)
    assert abs(_kernel_at(sw, 0.1, 0.4) - (0.1 / 0.4 ** 2) ** 2) < 1e-14
    for fam in (fh, sub, sw):
        assert _kernel_at(fam, 0.3, 0.0) == 1.0


def test_kernel_eval_bounds_and_monotonicity_fuzz():
    fams = [KernelFamily.fh(float(s)) for s in (0.3, 1.0, 2.5)]
    fams += [KernelFamily.stable_sandwich(a, 1) for a in (0.5, 1.8)]
    fams.append(KernelFamily.subordinator_exp(LaplaceExponent.gamma(1.0, 1.0)))
    r = np.sort(RNG.uniform(0, 5, 200))
    for fam in fams:
        for scale in (0.01, 0.5, 7.0):
            v = fam.evaluate(scale, r)
            assert np.all((v >= 0) & (v <= 1))
            assert np.all(np.diff(v) <= 1e-12)
            assert _kernel_at(fam, scale, 0.0) == 1.0


def test_exact_kernel_delegates_to_quadrature():
    m = LevyModel.isotropic_stable(1.0, 1.0, 1)
    fam = KernelFamily.exact(m)
    got = fam.evaluate(1.0, np.array([0.0, 1.0]))
    assert got[0] == 1.0
    assert abs(got[1] - 0.5) < 1e-8


def test_stable_sandwich_brackets_kappa_with_stable_constants():
    # fit A1, A2 = min/max of kappa/envelope on one grid; they must stay
    # finite, positive, and reproduce on a shifted grid (scale stability)
    for alpha in (0.8, 1.5):
        env = KernelFamily.stable_sandwich(alpha, 1)
        ratios = {}
        for tag, (tlo, thi, elo, ehi) in {
            "coarse": (-2.0, 0.0, -2.0, -0.5),
            "fine": (-3.0, -1.0, -3.0, -1.5),
        }.items():
            rr = []
            for t in np.logspace(tlo, thi, 8):
                for eps in np.logspace(elo, ehi, 8):
                    k = kappa_stable_1d(alpha, 1.0, eps, t)
                    rr.append(k / _kernel_at(env, eps, t))
            ratios[tag] = (min(rr), max(rr))
        for lo, hi in ratios.values():
            assert 0 < lo <= hi < np.inf
        spread = max(r[1] for r in ratios.values()) / min(r[0] for r in ratios.values())
        assert spread < 10.0


# ---------------------------------------------------------------------------
# Cauchy-weighted energies
# ---------------------------------------------------------------------------

def _psi_brownian():
    return CharExponent(lambda z: float(np.atleast_1d(z)[0]) ** 2)


def test_cauchy_weighted_energy_examples():
    single = SimplexWeights(np.array([1.0]), np.array([0.4]))
    assert abs(cauchy_weighted_energy(single, _psi_brownian(), 0.5) - 1.0) < 1e-9
    # two atoms under the Cauchy process: oracle is the stated 1-d quadrature
    psi_c = CharExponent(lambda z: abs(float(np.atleast_1d(z)[0])))
    two = SimplexWeights(np.array([0.5, 0.5]), np.array([0.0, 1.0]))
    oracle = integrate.quad(lambda z: 2 / np.pi * np.exp(-z) / (1 + z * z),
                            0, np.inf)[0]
    got = cauchy_weighted_energy(two, psi_c, 1.0)
    assert abs(got - (0.5 + 0.5 * oracle)) < 1e-6


def test_cauchy_weighted_energy_subordinator_identity():
    phi = LaplaceExponent.stable(0.5)
    psi = phi.char_exponent()
    rng = np.random.default_rng(77)
    for eps in (0.1, 0.01):
        pts = np.sort(rng.uniform(0, 1, 10))
        w = SimplexWeights.uniform(pts)
        lhs = cauchy_weighted_energy(w, psi, eps)
        D = np.abs(pts[:, None] - pts[None, :])
        rhs = float(w.w @ np.exp(-D * float(phi(1.0 / eps))) @ w.w)
        assert abs(lhs - rhs) < 1e-6


def test_kernel_energy_upper_bound_small_fuzz():
    rng = np.random.default_rng(5)
    psi1 = CharExponent(lambda z: abs(float(np.atleast_1d(z)[0])))
    for _ in range(5):
        m = int(rng.integers(2, 8))
        pts = np.sort(rng.uniform(0, 1, m))
        w = SimplexWeights(rng.dirichlet(np.ones(m)), pts)
        eps = float(rng.uniform(0.1, 0.6))
        D = np.abs(pts[:, None] - pts[None, :])
        uniq, inv = np.unique(D, return_inverse=True)
        kv = np.array([kappa_stable_1d(1.0, 1.0, eps, u) for u in uniq])
        lhs = float(w.w @ kv[inv].reshape(D.shape) @ w.w)
        rhs = 2 * np.pi * cauchy_weighted_energy(w, psi1, eps)
        assert lhs <= rhs + 1e-9
