"""Levy-process descriptors and the small-ball kernel family.

A process enters the numerics through two doors: its characteristic
exponent Psi, normalized by E exp(i z . X(t)) = exp(-t Psi(z)), and (for
subordinators) its Laplace exponent Phi with E exp(-lam S(t)) =
exp(-t Phi(lam)).  The central object downstream is the kernel family

    kappa_eps(t) = P{ X(t) in B(0, eps) },      B = open l-inf ball,

evaluated here by 1-d Fourier inversion, by Monte Carlo, or replaced by
one of the closed-form comparison kernels (power-law profile kernel,
stable envelope, subordinator exponential kernel).

Exact samplers only: symmetric stable variates via the
Chambers-Mallows-Stuck transform, one-sided stable via Kanter's form of
the same transform, gamma subordinators via gamma variates, so increments
carry no discretization bias at any fixed gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import integrate

from .errors import NonConvergedQuadrature
from .utils import substream

# quadrature contracts
KAPPA_QUAD_TOL = 1e-8          # error target for ball-probability inversion
TRUNC_LOG = 36.85              # exp(-x) < 1e-16 beyond x = TRUNC_LOG
CAUCHY_QUAD_TOL = 1e-6         # error target for Cauchy-weighted energies
KAPPA_MC_SAMPLES = 200_000     # Monte Carlo draws per exact-kernel distance


# ---------------------------------------------------------------------------
# exact variate generators
# ---------------------------------------------------------------------------

def symmetric_stable(rng: np.random.Generator, alpha: float, size) -> np.ndarray:
    """Standard symmetric alpha-stable variates, E exp(izX) = exp(-|z|^alpha).

    Chambers-Mallows-Stuck transform; alpha = 1 degenerates to tan(V)
    (standard Cauchy) and alpha = 2 to N(0, 2).
    """
    if not 0 < alpha <= 2:
        raise ValueError("alpha must be in (0, 2]")
    if alpha == 2.0:
        return rng.normal(0.0, math.sqrt(2.0), size)
    v = rng.uniform(-np.pi / 2, np.pi / 2, size)
    if abs(alpha - 1.0) < 1e-12:
        return np.tan(v)
    w = rng.standard_exponential(size)
    return (np.sin(alpha * v) / np.cos(v) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * v) / w) ** ((1.0 - alpha) / alpha))


def one_sided_stable(rng: np.random.Generator, beta: float, size) -> np.ndarray:
    """Positive beta-stable variates with E exp(-lam S) = exp(-lam^beta).

    Kanter's specialization of the Chambers-Mallows-Stuck transform,
    valid for beta in (0, 1).
    """
    if not 0 < beta < 1:
        raise ValueError("beta must be in (0, 1)")
    th = np.pi * rng.uniform(0.0, 1.0, size)
    w = rng.standard_exponential(size)
    a = (np.sin(beta * th) ** beta * np.sin((1.0 - beta) * th) ** (1.0 - beta)
         / np.sin(th)) ** (1.0 / (1.0 - beta))
    return (a / w) ** ((1.0 - beta) / beta)


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------

@dataclass
class CharExponent:
    """Characteristic exponent Psi with E exp(i z . X(t)) = exp(-t Psi(z)).

    `fn` maps a real z (scalar for d = 1, length-d vector otherwise) to a
    complex value.
    """

    fn: Callable[[np.ndarray], complex]
    d: int = 1

    def __call__(self, z) -> complex:
        z = np.asarray(z, dtype=float)
        if self.d == 1:
            return complex(self.fn(float(z.ravel()[0]) if z.ndim else float(z)))
        return complex(self.fn(z))


@dataclass
class LaplaceExponent:
    """Laplace exponent Phi of a subordinator, E exp(-lam S(t)) = exp(-t Phi(lam)).

    Construct through the family classmethods; each carries its
    characteristic exponent and an exact increment sampler.
    """

    family: str
    params: dict
    fn: Callable[[np.ndarray], np.ndarray]
    _char_fn: Callable = field(repr=False)
    _sampler: Callable = field(repr=False)

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        if np.any(lam < 0):
            raise ValueError("Laplace exponent is defined for lam >= 0")
        return self.fn(lam)

    @classmethod
    def stable(cls, beta: float) -> "LaplaceExponent":
        """Phi(lam) = lam**beta, the stable subordinator of index beta."""
        if not 0 < beta < 1:
            raise ValueError("stable subordinator index must be in (0, 1)")

        def char(xi):
            xi = float(xi)
            # analytic continuation (-i xi)^beta, principal branch
            return abs(xi) ** beta * np.exp(-1j * beta * np.pi / 2 * np.sign(xi))

        def sample(gaps, rng):
            gaps = np.asarray(gaps, dtype=float)
            return gaps ** (1.0 / beta) * one_sided_stable(rng, beta, gaps.shape)

        return cls("stable", {"beta": beta}, lambda l: np.asarray(l) ** beta,
                   _char_fn=char, _sampler=sample)

    @classmethod
    def gamma(cls, a: float, b: float) -> "LaplaceExponent":
        """Phi(lam) = a*log(1 + lam/b); S(t) ~ Gamma(shape a*t, rate b)."""
        if a <= 0 or b <= 0:
            raise ValueError("gamma subordinator needs a, b > 0")

        def char(xi):
            return a * np.log(1.0 - 1j * float(xi) / b)

        def sample(gaps, rng):
            gaps = np.asarray(gaps, dtype=float)
            return rng.gamma(shape=a * gaps, scale=1.0 / b)

        return cls("gamma", {"a": a, "b": b},
                   lambda l: a * np.log1p(np.asarray(l) / b),
                   _char_fn=char, _sampler=sample)

    @classmethod
    def compound_poisson_drift(cls, rate: float, jump_mean: float,
                               drift: float) -> "LaplaceExponent":
        """Drift plus compound Poisson with Exp(jump_mean) jumps.

        Phi(lam) = drift*lam + rate*(1 - 1/(1 + jump_mean*lam)).  Pure
        drift (rate = 0) gives Phi(lam) = drift*lam.
        """
        if rate < 0 or drift < 0 or (rate > 0 and jump_mean <= 0):
            raise ValueError("need rate, drift >= 0 and jump_mean > 0 when jumping")

        def phi(lam):
            lam = np.asarray(lam, dtype=float)
            jumps = rate * jump_mean * lam / (1.0 + jump_mean * lam) if rate > 0 else 0.0
            return drift * lam + jumps

        def char(xi):
            xi = float(xi)
            jumps = rate * (1.0 - 1.0 / (1.0 - 1j * jump_mean * xi)) if rate > 0 else 0.0
            return -1j * drift * xi + jumps

        def sample(gaps, rng):
            gaps = np.asarray(gaps, dtype=float)
            out = drift * gaps
            if rate > 0:
                n = rng.poisson(rate * gaps)
                # Gamma with integer shape n = sum of n Exp(jump_mean) jumps
                out = out + rng.gamma(shape=n, scale=jump_mean)
            return out

        return cls("compound_poisson_drift",
                   {"rate": rate, "jump_mean": jump_mean, "drift": drift},
                   phi, _char_fn=char, _sampler=sample)

    def sample_increments(self, gaps, rng) -> np.ndarray:
        return self._sampler(gaps, rng)

    def char_exponent(self) -> CharExponent:
        """Psi(xi) = Phi(-i xi) by analytic continuation."""
        return CharExponent(self._char_fn, d=1)

    def to_config(self) -> dict:
        return {"family": self.family, "params": dict(sorted(self.params.items()))}


# ---------------------------------------------------------------------------
# process models
# ---------------------------------------------------------------------------

@dataclass
class LevyModel:
    """A Levy process with enough structure to evaluate and sample.

    kinds: "isotropic_stable" (index alpha in (0,2], scale c, dimension d),
    "subordinator" (a LaplaceExponent), "subordinate_brownian" (Brownian
    motion run at an independent subordinator clock, Psi(z) = Phi(|z|^2)).
    """

    kind: str
    d: int
    psi: CharExponent
    params: dict = field(default_factory=dict)
    phi: Optional[LaplaceExponent] = None

    @classmethod
    def isotropic_stable(cls, alpha: float, c: float = 1.0, d: int = 1) -> "LevyModel":
        if not 0 < alpha <= 2:
            raise ValueError("alpha must be in (0, 2]")
        if c <= 0 or d < 1:
            raise ValueError("need scale c > 0 and dimension d >= 1")

        def psi(z):
            return c * np.linalg.norm(np.atleast_1d(z)) ** alpha

        return cls("isotropic_stable", d, CharExponent(psi, d=d),
                   params={"alpha": alpha, "c": c})

    @classmethod
    def subordinator(cls, phi: LaplaceExponent) -> "LevyModel":
        return cls("subordinator", 1, phi.char_exponent(), params={}, phi=phi)

    @classmethod
    def subordinate_brownian(cls, phi: LaplaceExponent, d: int) -> "LevyModel":
        def psi(z):
            return complex(phi(np.linalg.norm(np.atleast_1d(z)) ** 2))

        return cls("subordinate_brownian", d, CharExponent(psi, d=d),
                   params={}, phi=phi)

    def sample_increments(self, gaps, rng) -> np.ndarray:
        """Exact increments over time gaps; returns shape (len(gaps), d)."""
        gaps = np.asarray(gaps, dtype=float)
        m = gaps.shape[0]
        if self.kind == "isotropic_stable":
            alpha, c = self.params["alpha"], self.params["c"]
            if alpha == 2.0:
                return rng.normal(0.0, np.sqrt(2.0 * c * gaps)[:, None], (m, self.d))
            if self.d == 1:
                x = (c * gaps) ** (1.0 / alpha) * symmetric_stable(rng, alpha, m)
                return x[:, None]
            # Gaussian subordination: X(t) = B(2 T(ct)), T an (alpha/2)-subordinator
            clock = (c * gaps) ** (2.0 / alpha) * one_sided_stable(rng, alpha / 2.0, m)
            return np.sqrt(2.0 * clock)[:, None] * rng.standard_normal((m, self.d))
        if self.kind == "subordinator":
            return self.phi.sample_increments(gaps, rng)[:, None]
        if self.kind == "subordinate_brownian":
            clock = self.phi.sample_increments(gaps, rng)
            return np.sqrt(2.0 * clock)[:, None] * rng.standard_normal((m, self.d))
        raise ValueError(f"unknown model kind {self.kind!r}")

    def typical_inverse_scale(self, r: float) -> float:
        """Gap h with h * |Psi(e/r)| = 1: the time over which the process
        typically moves about r (modulus, so pure drift works).  Used by
        mesh rules."""
        e = np.zeros(self.d)
        e[0] = 1.0 / r
        mag = abs(self.psi(e))
        if mag <= 0:
            raise ValueError("degenerate exponent; cannot derive a mesh scale")
        return 1.0 / mag

    def to_config(self) -> dict:
        cfg = {"kind": self.kind, "d": self.d}
        for k, v in self.params.items():
            cfg["scale" if k == "c" else k] = float(v)
        if self.phi is not None:
            cfg["phi"] = self.phi.to_config()
        return cfg


# ---------------------------------------------------------------------------
# kappa evaluation
# ---------------------------------------------------------------------------

def kappa_stable_1d(alpha: float, c: float, eps: float, t: float) -> float:
    """P{|X(t)| <= eps} for a 1-d symmetric stable process, Psi(z) = c|z|^alpha.

    Fourier inversion: (2/pi) * int_0^inf sin(eps z)/z * exp(-t c z^alpha) dz,
    truncated where the damping factor falls below 1e-16.  The oscillatory
    tail is handled with a sin-weighted rule.
    """
    if not 0 < alpha <= 2:
        raise ValueError("alpha must be in (0, 2]")
    if c <= 0 or eps <= 0 or t < 0:
        raise ValueError("need c > 0, eps > 0, t >= 0")
    if t == 0.0:
        return 1.0
    log_zmax = math.log(TRUNC_LOG / (t * c)) / alpha
    if log_zmax > 690.0:        # truncation point would overflow a double
        raise NonConvergedQuadrature(
            f"truncation point exp({log_zmax:.0f}) out of range; "
            "parameters too extreme for the inversion integral")
    zmax = math.exp(log_zmax)

    def integrand(z):
        return np.sin(eps * z) / z * np.exp(-t * c * z ** alpha)

    try:
        if eps * zmax <= 40.0:
            val, err = integrate.quad(integrand, 0.0, zmax, limit=300,
                                      epsabs=KAPPA_QUAD_TOL / 4, epsrel=1e-10)
        else:
            cut = 2.0 * np.pi / eps
            v1, e1 = integrate.quad(integrand, 0.0, cut, limit=300,
                                    epsabs=KAPPA_QUAD_TOL / 4, epsrel=1e-10)
            v2, e2 = integrate.quad(lambda z: np.exp(-t * c * z ** alpha) / z,
                                    cut, zmax, weight="sin", wvar=eps,
                                    limit=800, epsabs=KAPPA_QUAD_TOL / 4)
            val, err = v1 + v2, e1 + e2
    except Exception as exc:  # quadrature blow-up on extreme parameters
        raise NonConvergedQuadrature(str(exc)) from exc
    if not np.isfinite(val) or err > KAPPA_QUAD_TOL:
        raise NonConvergedQuadrature(
            f"ball-probability quadrature error {err:.2e} exceeds {KAPPA_QUAD_TOL:.0e}")
    return float(min(1.0, max(0.0, 2.0 / np.pi * val)))


def kappa_monte_carlo(model: LevyModel, eps: float, t: float, n: int,
                      seed: int) -> tuple[float, float]:
    """Empirical P{X(t) in B(0, eps)} with a 95% normal half-width.

    Deterministic given `seed`; samples are drawn in batches so large n
    stays memory-flat.
    """
    if eps <= 0 or t < 0:
        raise ValueError("need eps > 0, t >= 0")
    if n < 1000:
        raise ValueError("n must be at least 1000")
    if t == 0.0:
        return 1.0, 0.0
    rng = substream(seed, 0)
    hits = 0
    done = 0
    batch = 200_000
    while done < n:
        m = min(batch, n - done)
        x = model.sample_increments(np.full(m, t), rng)
        hits += int(np.count_nonzero(np.max(np.abs(x), axis=1) < eps))
        done += m
    p = hits / n
    return p, 1.96 * math.sqrt(p * (1.0 - p) / n)


# ---------------------------------------------------------------------------
# kernel families
# ---------------------------------------------------------------------------

@dataclass
class KernelFamily:
    """One of the comparison kernels K_scale(r), all mapping into [0, 1].

    kinds and scale semantics:
      "fh"        min(1, (scale/r)**s)            scale = eps
      "sandwich"  min(1, scale/r**(1/alpha))**d   scale = eps
      "subexp"    exp(-r * Phi(scale))            scale = lam = 1/eps
      "exact"     kappa_scale(r) of a LevyModel   scale = eps
    """

    kind: str
    params: dict = field(default_factory=dict)
    model: Optional[LevyModel] = None
    phi: Optional[LaplaceExponent] = None
    seed: int = 0

    @classmethod
    def fh(cls, s: float) -> "KernelFamily":
        """Power-law profile kernel (the Falconer-Howroyd family)."""
        if s <= 0:
            raise ValueError("profile parameter s must be > 0")
        return cls("fh", {"s": s})

    @classmethod
    def stable_sandwich(cls, alpha: float, d: int = 1) -> "KernelFamily":
        """Envelope kernel min(1, eps/r**(1/alpha))**d bracketing stable kappa."""
        if not 0 < alpha <= 2 or d < 1:
            raise ValueError("need alpha in (0, 2] and d >= 1")
        return cls("sandwich", {"alpha": alpha, "d": d})

    @classmethod
    def subordinator_exp(cls, phi: LaplaceExponent) -> "KernelFamily":
        """exp(-|t-s| Phi(lam)); scale parameter is the frequency lam."""
        return cls("subexp", {}, phi=phi)

    @classmethod
    def exact(cls, model: LevyModel, seed: int = 0) -> "KernelFamily":
        """The model's own small-ball kernel.

        1-d symmetric stable models use quadrature; anything else falls
        back to seeded Monte Carlo (l-inf balls in d > 1 do not factor).
        """
        return cls("exact", {}, model=model, seed=seed)

    def evaluate(self, scale: float, r) -> np.ndarray:
        """Vectorized K_scale(r) for r >= 0."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(r < 0):
            raise ValueError("distances must be nonnegative")
        if self.kind == "fh":
            s = self.params["s"]
            vals = np.ones_like(r)
            far = r > scale                      # power stays <= 1, no overflow
            vals[far] = (scale / r[far]) ** s
            return vals
        if self.kind == "sandwich":
            alpha, d = self.params["alpha"], self.params["d"]
            vals = np.ones_like(r)
            far = r > scale ** alpha
            vals[far] = (scale / r[far] ** (1.0 / alpha)) ** d
            return vals
        if self.kind == "subexp":
            return np.exp(-r * float(self.phi(scale)))
        if self.kind == "exact":
            return self._evaluate_exact(scale, r)
        raise ValueError(f"unknown kernel kind {self.kind!r}")

    def _evaluate_exact(self, eps: float, r: np.ndarray) -> np.ndarray:
        model = self.model
        out = np.empty(r.shape, dtype=float)
        flat = r.ravel()
        res = np.empty(flat.shape, dtype=float)
        use_quad = model.kind == "isotropic_stable" and model.d == 1
        for i, t in enumerate(flat):
            if t == 0.0:
                res[i] = 1.0
            elif use_quad:
                res[i] = kappa_stable_1d(model.params["alpha"], model.params["c"],
                                         eps, t)
            else:
                # per-distance substream keyed on the float bits keeps the
                # matrix deterministic and symmetric
                key = int(np.float64(t).view(np.uint64) ^ np.float64(eps).view(np.uint64))
                val, _ = kappa_monte_carlo(model, eps, t, KAPPA_MC_SAMPLES,
                                           seed=self.seed ^ key)
                res[i] = val
        out.ravel()[:] = res
        return out


# ---------------------------------------------------------------------------
# Cauchy-weighted energies
# ---------------------------------------------------------------------------

def _pair_weights(weights):
    """Condense a discrete measure to (unique distances > 0, paired mass).

    Off-diagonal mass is doubled so that, paired with the real part of the
    one-sided integrand, it accounts for both (i, j) orders.
    """
    pts = np.asarray(weights.points, dtype=float)
    w = np.asarray(weights.w, dtype=float)
    i, j = np.triu_indices(len(pts), k=1)
    dist = np.abs(pts[i] - pts[j])
    mass = 2.0 * w[i] * w[j]
    diag = float(np.sum(w * w))
    if dist.size:
        uniq, inv = np.unique(dist, return_inverse=True)
        agg = np.zeros(uniq.shape)
        np.add.at(agg, inv, mass)
        zero = uniq == 0.0
        diag += float(agg[zero].sum())
        return uniq[~zero], agg[~zero], diag
    return dist, mass, diag


def cauchy_weighted_energy(weights, psi: CharExponent, eps: float,
                           tol: float = CAUCHY_QUAD_TOL) -> float:
    """int f_C(z) * E_nu(z/eps) dz with f_C the standard Cauchy density on R.

    Computed pairwise: for each distinct gap u the factor
    int f_C(z) Re exp(-u Psi(z/eps)) dz is integrated once, then
    recombined with the paired mass.  Total quadrature error stays below
    `tol` because the pair masses sum to at most 1.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    dists, mass, diag = _pair_weights(weights)
    total = diag
    worst = 0.0
    half_pi = np.pi / 2.0
    for u, m in zip(dists, mass):
        # z = tan(theta) absorbs the Cauchy weight exactly; the integrand
        # is then smooth and bounded on a compact interval
        def integrand(theta, u=u):
            return np.exp(-u * psi(np.tan(theta) / eps)).real / np.pi

        val, err = integrate.quad(integrand, -half_pi, half_pi, limit=400,
                                  epsabs=tol / 4, epsrel=tol / 4)
        worst = max(worst, err)
        total += m * val
    if worst > tol:
        raise NonConvergedQuadrature(
            f"Cauchy-weighted quadrature error {worst:.2e} exceeds {tol:.0e}")
    return float(total)

