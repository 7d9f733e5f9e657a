"""Process descriptors, ball probabilities, and Cauchy-weighted energies."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from fracdim import verify
from fracdim.errors import NonConvergedQuadrature
from fracdim.energy_min import SimplexWeights, build_kernel
from fracdim.process_models import (CAUCHY_QUAD_TOL, EPS_MIN, KernelFamily,
                                    LaplaceExponent, LevyModel,
                                    cauchy_weighted_energy,
                                    kappa_monte_carlo, kappa_stable_1d,
                                    one_sided_stable,
                                    symmetric_stable)
from fracdim import utils
from fracdim.utils import vector_quad

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
        assert abs(m.psi(0.0)) < 1e-14
        for xi in RNG.normal(0, 3, 50):
            val = complex(m.psi(xi))
            assert val.real >= -1e-12
            if m.kind != "subordinator":
                assert abs(val.imag) < 1e-12
                assert abs(m.psi(-xi) - val) < 1e-12


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
        s = phi.increment_sampler(np.ones(200_000))(np.random.default_rng(3))
        for xi in (0.5, 1.0):
            emp = np.mean(np.exp(1j * xi * s))
            want = np.exp(-phi.psi(xi))
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


def test_kappa_integration_warning_raises_under_default_filters():
    """With the warning filters at their defaults, as outside this test
    suite, a roundoff IntegrationWarning raises instead of letting the
    clipped value 1.0 through (1 - kappa is about 4.1e-4 here)."""
    with warnings.catch_warnings():
        warnings.resetwarnings()
        with pytest.raises(NonConvergedQuadrature, match="roundoff"):
            kappa_stable_1d(0.5, 1.0, 0.01, 5.15e-5)


def test_kappa_outside_unit_interval_raises_instead_of_clipping():
    """Here the quadrature's error estimate (1.7e-9) passes, but its
    value 2/pi * int is 1.0041 while the stable tail puts kappa near
    0.99996; a value that far above 1 raises instead of reading 1.0."""
    with warnings.catch_warnings():
        warnings.resetwarnings()
        with pytest.raises(NonConvergedQuadrature, match="outside"):
            kappa_stable_1d(0.5, 1.0, 0.5, 3.22e-5)


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


def test_brownian_increments_equal_broadcast_normal_draw():
    # the alpha = 2 sampler scales standard normals in place; it must draw
    # the same numbers as numpy's broadcast normal(0, scale) for one seed
    gaps = np.random.default_rng(2).uniform(0.0, 0.01, 1000)
    gaps[0] = 0.0
    for d in (1, 2):
        model = LevyModel.isotropic_stable(2.0, 0.7, d)
        got = model.increment_sampler(gaps)(np.random.default_rng(42))
        ref = np.random.default_rng(42).normal(
            0.0, np.sqrt(2.0 * 0.7 * gaps)[:, None], (gaps.size, d))
        assert got.shape == (gaps.size, d) and np.array_equal(got, ref)


def test_planar_stable_increments_are_subordinated_brownian_draws():
    # in d >= 2 the alpha-stable sampler is Brownian motion run at an
    # (alpha/2)-stable clock of rate c; it must draw what the closed form
    # sqrt(2 (c gaps)^(2/alpha) S) N(0, I_d) draws for one seed
    rng = np.random.default_rng(21)
    for case in range(40):
        alpha, c = rng.uniform(0.1, 1.99), rng.uniform(0.05, 5.0)
        d, seed = int(rng.integers(2, 5)), int(rng.integers(2 ** 31))
        gaps = rng.uniform(0.0, 0.1, int(rng.integers(1, 300)))
        gaps[0] = 0.0
        got = LevyModel.isotropic_stable(alpha, c, d).increment_sampler(gaps)(
            np.random.default_rng(seed))
        ref_rng = np.random.default_rng(seed)
        clock = (c * gaps) ** (2.0 / alpha) * one_sided_stable(ref_rng, alpha / 2.0,
                                                               gaps.size)
        ref = np.sqrt(2.0 * clock)[:, None] * ref_rng.standard_normal((gaps.size, d))
        assert got.shape == (gaps.size, d) and np.array_equal(got, ref), case


def test_increment_sampler_rejects_bad_gaps():
    for model in _models():
        for bad in (-1e-9, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                model.increment_sampler(np.array([0.0, 0.1, bad]))
        assert model.increment_sampler(np.zeros(3))(RNG).shape == (3, model.d)


def test_kappa_monte_carlo_pinned_values():
    # two batches (200,000 + 50,000 draws); values of the per-call sampler
    # these replaced, so a sampler built once per batch draws the same
    got = [kappa_monte_carlo(m, 0.5, 0.3, 250_000, seed=7)
           for m in (LevyModel.isotropic_stable(0.8, 1.0, 1),
                     LevyModel.isotropic_stable(1.5, 1.0, 2))]
    assert got == [(0.684412, 0.0018218185313426249),
                   (0.344492, 0.0018627931645282978)]


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
    # the stable envelope min(1, eps / r^(1/alpha))^d at alpha = 1/2, d = 2
    # is fh(d / alpha) at eps^alpha
    env = KernelFamily.fh(4.0)
    assert abs(_kernel_at(env, 0.1 ** 0.5, 0.4) - (0.1 / 0.4 ** 2) ** 2) < 1e-14
    for fam in (fh, env):
        assert _kernel_at(fam, 0.3, 0.0) == 1.0


def test_kernel_eval_bounds_and_monotonicity_fuzz():
    scales = (0.01, 0.5, 7.0)
    cases = [(KernelFamily.fh(float(s)), scales) for s in (0.3, 1.0, 2.5)]
    # stable envelopes at alpha = 0.5 and 1.8: fh(1/alpha) at eps^alpha
    cases += [(KernelFamily.fh(1 / a), [e ** a for e in scales]) for a in (0.5, 1.8)]
    r = np.sort(RNG.uniform(0, 5, 200))
    for fam, fam_scales in cases:
        for scale in fam_scales:
            v = fam.evaluate(scale, r)
            assert np.all((v >= 0) & (v <= 1))
            assert np.all(np.diff(v) <= 1e-12)
            assert _kernel_at(fam, scale, 0.0) == 1.0


def test_power_law_is_one_within_eps_and_needs_a_normal_eps():
    """(eps / max(r, eps))^s is exactly 1 for r <= eps; eps below the
    least normal float, infinite or not a number raises ValueError from
    every power-law entry point, without a RuntimeWarning."""
    fh = KernelFamily.fh(0.5)
    for fam, scale in ((fh, 0.3), (fh, 0.3 ** 2), (fh, EPS_MIN)):
        eps = fam.power_law(scale)[1]
        r = np.array([0.0, eps / 2, eps, 2 * eps])
        assert fam.evaluate(scale, r).tolist()[:3] == [1.0, 1.0, 1.0]
        g = fam.convex_minorant(scale, r)
        assert g[0] == 1.0 and np.all((g > 0) & (g <= 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fam, scale in ((fh, 1e-320), (fh, math.inf), (fh, math.nan), (fh, -0.1)):
            for call in (lambda: fam.power_law(scale),
                         lambda: fam.evaluate(scale, np.array([0.0, 1.0])),
                         lambda: fam.convex_minorant(scale, np.array([0.0, 1.0]))):
                with pytest.raises(ValueError):
                    call()


def test_exact_kernel_delegates_to_quadrature():
    m = LevyModel.isotropic_stable(1.0, 1.0, 1)
    fam = KernelFamily.exact(m)
    got = fam.evaluate(1.0, np.array([0.0, 1.0]))
    assert got[0] == 1.0
    assert abs(got[1] - 0.5) < 1e-8


def test_stable_sandwich_brackets_kappa_with_stable_constants():
    # fit A1, A2 = min/max of kappa/envelope on one grid; they must stay
    # finite, positive, and reproduce on a shifted grid (scale stability)
    # the envelope min(1, eps / r^(1/alpha)) is fh(1/alpha) at eps^alpha:
    # why a stable image's profile is read at s = d/alpha
    for alpha in (0.8, 1.5):
        env = KernelFamily.fh(1 / alpha)
        ratios = {}
        for tag, (tlo, thi, elo, ehi) in {
            "coarse": (-2.0, 0.0, -2.0, -0.5),
            "fine": (-3.0, -1.0, -3.0, -1.5),
        }.items():
            rr = []
            for t in np.logspace(tlo, thi, 8):
                for eps in np.logspace(elo, ehi, 8):
                    k = kappa_stable_1d(alpha, 1.0, eps, t)
                    rr.append(k / _kernel_at(env, eps ** alpha, t))
            ratios[tag] = (min(rr), max(rr))
        for lo, hi in ratios.values():
            assert 0 < lo <= hi < np.inf
        spread = max(r[1] for r in ratios.values()) / min(r[0] for r in ratios.values())
        assert spread < 10.0


# ---------------------------------------------------------------------------
# Cauchy-weighted energies
# ---------------------------------------------------------------------------

def test_cauchy_weighted_energy_examples():
    single = SimplexWeights(np.array([1.0]), np.array([0.4]))
    assert abs(cauchy_weighted_energy(single, np.square, 0.5) - 1.0) < 1e-9
    # two atoms under the Cauchy process: oracle is the stated 1-d quadrature
    two = SimplexWeights(np.array([0.5, 0.5]), np.array([0.0, 1.0]))
    oracle = integrate.quad(lambda z: 2 / np.pi * np.exp(-z) / (1 + z * z),
                            0, np.inf)[0]
    got = cauchy_weighted_energy(two, np.abs, 1.0)
    assert abs(got - (0.5 + 0.5 * oracle)) < 1e-6


def test_cauchy_weighted_energy_merges_coincident_atoms():
    # a zero gap contributes the factor 1, as if the atoms were one
    split = SimplexWeights(np.array([0.3, 0.2, 0.5]), np.array([0.0, 0.0, 0.7]))
    merged = SimplexWeights(np.array([0.5, 0.5]), np.array([0.0, 0.7]))
    for psi in (np.abs, LaplaceExponent.stable(0.5).psi):
        got = cauchy_weighted_energy(split, psi, 0.2)
        assert abs(got - cauchy_weighted_energy(merged, psi, 0.2)) < 1e-12


def test_cauchy_weighted_energy_rejects_undamped_exponent():
    # psi(xi) = i xi is a pure drift: the integrand oscillates without decay
    two = SimplexWeights(np.array([0.5, 0.5]), np.array([0.0, 1.0]))
    with pytest.raises(NonConvergedQuadrature):
        cauchy_weighted_energy(two, lambda xi: 1j * xi, 0.1)


@pytest.mark.parametrize("eps", [0.0, -0.5, float("nan"), float("inf")])
def test_cauchy_weighted_energy_rejects_nonpositive_eps(eps):
    two = SimplexWeights(np.array([0.5, 0.5]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="eps"):
        cauchy_weighted_energy(two, np.abs, eps)


@pytest.mark.parametrize("make, name", [
    (lambda x: LaplaceExponent.gamma(x, 1.0), "gamma subordinator a"),
    (lambda x: LaplaceExponent.gamma(1.0, x), "gamma subordinator b"),
    (lambda x: LaplaceExponent.compound_poisson_drift(x, 1.0, 0.1), "compound Poisson rate"),
    (lambda x: LaplaceExponent.compound_poisson_drift(1.0, x, 0.1),
     "compound Poisson jump_mean"),
    (lambda x: LaplaceExponent.compound_poisson_drift(0.0, x, 0.1),
     "compound Poisson jump_mean"),
    (lambda x: LaplaceExponent.compound_poisson_drift(1.0, 0.5, x), "drift"),
], ids=["gamma-a", "gamma-b", "cpd-rate", "cpd-jump-mean", "drift-jump-mean", "cpd-drift"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_laplace_exponent_rejects_non_finite_parameters(make, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        make(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_kappa_rejects_non_finite_arguments(bad):
    """eps, c and t must be finite (eps, c > 0, t >= 0) before any
    quadrature or sampling runs, and so must an exact kernel's scale."""
    model = LevyModel.isotropic_stable(1.0)
    with pytest.raises(ValueError, match="^scale must be finite"):
        KernelFamily.exact(model).evaluate(bad, np.array([0.0, 0.5]))
    for args, name in (((bad, 0.5), "eps"), ((0.1, bad), "t")):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            kappa_monte_carlo(model, *args, n=1000, seed=0)
    for args, name in (((bad, 0.1, 0.5), "c"), ((1.0, bad, 0.5), "eps"),
                       ((1.0, 0.1, bad), "t")):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            kappa_stable_1d(1.0, *args)


def _full_range_energy(weights, psi, eps):
    """Reference: the factor quadrature over the whole range (-pi/2, pi/2)
    of theta, with no symmetry assumed."""
    pts, w = weights.points, weights.w
    i, j = np.triu_indices(len(pts), k=1)
    gaps = np.abs(pts[i] - pts[j])
    vals, err = integrate.quad_vec(
        lambda theta: np.exp(-gaps * psi(np.tan(theta) / eps)).real / np.pi,
        -np.pi / 2, np.pi / 2, epsabs=CAUCHY_QUAD_TOL / 4,
        epsrel=CAUCHY_QUAD_TOL / 4, limit=400, norm="max")
    if not err <= CAUCHY_QUAD_TOL:
        raise NonConvergedQuadrature(f"reference error {err:.2e}")
    return float(w @ w + 2.0 * (w[i] * w[j]) @ vals)


@pytest.mark.parametrize("name,psi,tol", [
    # the stable 1/2 exponent has a root singularity at xi = 0, so the two
    # adaptive quadratures refine it differently and meet only to ~1e-11
    ("C10 stable 1/2", LaplaceExponent.stable(0.5).psi, 2e-11),
    ("C11 |xi|", np.abs, 1e-12),
    ("C11 |xi|^2", np.square, 1e-12),
    # no drift: a drift's factor oscillates without decay in z, and the
    # quadrature raises on either range (see the undamped-exponent test)
    ("compound Poisson", LaplaceExponent.compound_poisson_drift(2.0, 0.5, 0.0).psi, 1e-12),
])
def test_cauchy_half_range_matches_full_range(name, psi, tol):
    """psi(-xi) = conj psi(xi) makes the integrand even, so integrating
    [0, pi/2] with weight 2/pi gives the whole-range energy."""
    rng = np.random.default_rng(11)
    for _ in range(3):
        pts = np.sort(rng.uniform(0, 1, 10))
        w = SimplexWeights(rng.dirichlet(np.ones(10)), pts)
        for eps in (0.5, 0.1, 0.01):
            got = cauchy_weighted_energy(w, psi, eps)
            assert abs(got - _full_range_energy(w, psi, eps)) <= tol, (name, eps)


def test_cauchy_weighted_energy_subordinator_identity():
    phi = LaplaceExponent.stable(0.5)
    rng = np.random.default_rng(77)
    for eps in (0.1, 0.01):
        pts = np.sort(rng.uniform(0, 1, 10))
        w = SimplexWeights.uniform(pts)
        lhs = cauchy_weighted_energy(w, phi.psi, eps)
        D = np.abs(pts[:, None] - pts[None, :])
        rhs = float(w.w @ np.exp(-D * float(phi(1.0 / eps))) @ w.w)
        assert abs(lhs - rhs) < 1e-6


def test_cauchy_weighted_energy_raises_on_a_drift():
    """A drift leaves the Cauchy factor oscillating without decay as
    theta -> pi/2, so the quadrature misses its error target."""
    phi = LaplaceExponent.compound_poisson_drift(2.0, 0.5, 0.3)
    w = SimplexWeights.uniform(np.sort(np.random.default_rng(3).uniform(0, 1, 10)))
    for eps in (0.5, 0.01):
        with pytest.raises(NonConvergedQuadrature, match="exceeds"):
            cauchy_weighted_energy(w, phi.psi, eps)


def test_c11_kernel_comes_from_the_exact_family(monkeypatch):
    """C11 builds its kappa matrices with `build_kernel` on the exact
    family, entry for entry the per-distance quadrature."""
    built = []

    def recorded(family, eps, net):
        km = build_kernel(family, eps, net)
        built.append((family, eps, km))
        return km

    monkeypatch.setattr(verify, "build_kernel", recorded)
    assert verify.check_energy_upper_bound(0).passed
    assert len(built) == 20
    for family, eps, km in built:
        assert family.kind == "exact"
        alpha = family.model.params["alpha"]
        want = [[kappa_stable_1d(alpha, 1.0, eps, abs(a - b)) for b in km.points]
                for a in km.points]
        np.testing.assert_array_equal(km.values, want)


def test_kernel_energy_upper_bound_small_fuzz():
    rng = np.random.default_rng(5)
    for _ in range(5):
        m = int(rng.integers(2, 8))
        pts = np.sort(rng.uniform(0, 1, m))
        w = SimplexWeights(rng.dirichlet(np.ones(m)), pts)
        eps = float(rng.uniform(0.1, 0.6))
        D = np.abs(pts[:, None] - pts[None, :])
        uniq, inv = np.unique(D, return_inverse=True)
        kv = np.array([kappa_stable_1d(1.0, 1.0, eps, u) for u in uniq])
        lhs = float(w.w @ kv[inv].reshape(D.shape) @ w.w)
        rhs = 2 * np.pi * cauchy_weighted_energy(w, np.abs, eps)
        assert lhs <= rhs + 1e-9


# ---------------------------------------------------------------------------
# vector quadrature
# ---------------------------------------------------------------------------

def _counted(f, calls):
    def g(x):
        calls.append(x.size)
        return f(x)
    return g


def _c10_factors(eps):
    """C10's factor integrand over theta in [0, pi/2] for the 45 gaps of
    10 random points, and its closed form exp(-u Phi(1/eps)), Phi(x) = x^(1/2)."""
    phi = LaplaceExponent.stable(0.5)
    pts = np.random.default_rng(10).uniform(0, 1, 10)
    gaps = np.abs(np.subtract.outer(pts, pts))[np.triu_indices(10, k=1)]
    return (lambda theta: np.exp(-gaps * phi.psi(np.tan(theta[:, None]) / eps)).real * (2 / np.pi),
            np.exp(-gaps * float(phi(1 / eps))))


@pytest.mark.parametrize("eps", [0.5, 0.1, 0.01])
@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_vector_quad_error_bounds_c10_closed_form(eps, tol):
    """The returned error bounds the true error of every factor, and one
    integral takes at most 26 integrand calls (quad_vec: 1,239 to 1,365
    on these factors at C10's old target)."""
    f, exact = _c10_factors(eps)
    calls = []
    vals, err = vector_quad(_counted(f, calls), 0.0, np.pi / 2, tol)
    assert err < tol and np.abs(vals - exact).max() <= err
    assert len(calls) <= 26


@pytest.mark.parametrize("lam, tol, converged", [
    (10.0, 1e-9, True), (10.0, 1e-12, True), (1e4, 1e-9, True), (1e8, 1e-6, True),
    (1e4, 1e-12, False), (1e8, 1e-9, False),    # the interval limit ends these
])
def test_vector_quad_error_bounds_theta_power_law(lam, tol, converged):
    """int_1^lam x^(-beta/s) dx, the theta integrand of Phi(x) = x^beta, in
    x (theta_index itself substitutes log x): converged or not, the
    returned error bounds the true one, in at most 26 calls."""
    p = np.array([0.3, 0.5 / 0.7, 1.0, 1.6, 2.5])     # beta / s
    exact = np.where(p == 1, np.log(lam), (lam ** (1 - p) - 1) / np.where(p == 1, 1, 1 - p))
    calls = []
    vals, err = vector_quad(_counted(lambda x: x[:, None] ** -p, calls), 1.0, lam, tol)
    assert (err < tol) == converged and np.abs(vals - exact).max() <= err
    assert len(calls) <= 26


def test_vector_quad_ends_unconverged_on_a_nan_or_the_round_limit(monkeypatch):
    """A NaN error ends the quadrature unconverged with the last finite
    summed error (NaN when the first round has none); so does the round
    limit, after QUAD_MAX_ROUNDS + 1 calls."""
    calls = []
    first = lambda x: np.sqrt(x) if len(calls) == 1 else np.full_like(x, np.nan)
    vals, err = vector_quad(_counted(first, calls), 0.0, 1.0, 1e-12)
    assert len(calls) == 2 and err == vector_quad(np.sqrt, 0.0, 1.0, 1.0)[1] > 1e-12
    assert np.isnan(vector_quad(lambda x: np.full_like(x, np.nan), 0.0, 1.0, 1.0)[1])
    monkeypatch.setattr(utils, "QUAD_MAX_ROUNDS", 5)
    calls = []
    vals, err = vector_quad(_counted(np.log, calls), 0.0, 1.0, 1e-12)
    assert len(calls) == 6 and np.isfinite(err) and err >= 1e-12


def test_vector_quad_calls_in_blocks(monkeypatch):
    """A round whose nodes hold more than QUAD_BLOCK_VALUES values is
    evaluated in blocks of whole intervals, to the same integral."""
    f, _ = _c10_factors(0.1)
    want = vector_quad(f, 0.0, np.pi / 2, 1e-9)
    monkeypatch.setattr(utils, "QUAD_BLOCK_VALUES", 3 * 21 * 45)
    calls = []
    vals, err = vector_quad(_counted(f, calls), 0.0, np.pi / 2, 1e-9)
    assert max(calls) == 3 * 21 and len(calls) > 26
    np.testing.assert_allclose(vals, want[0], rtol=0, atol=1e-15)
    assert abs(err - want[1]) <= 1e-15
