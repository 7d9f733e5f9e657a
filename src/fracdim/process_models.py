"""Levy-process descriptors and the small-ball kernel family.

A process enters the numerics through two doors: its characteristic
exponent Psi, normalized by E exp(i z . X(t)) = exp(-t Psi(z)) and radial
(Psi(z) = psi(|z|), as every model is isotropic or 1-d), and (for
subordinators) its Laplace exponent Phi with E exp(-lam S(t)) =
exp(-t Phi(lam)).  The central object downstream is the kernel family

    kappa_eps(t) = P{ X(t) in B(0, eps) },      B = open l-inf ball,

evaluated here by 1-d Fourier inversion, by Monte Carlo, or replaced by
one of the closed-form comparison kernels (power-law profile kernel,
stable envelope).

Exact samplers only: symmetric stable variates via the
Chambers-Mallows-Stuck transform, one-sided stable via Kanter's form of
the same transform, gamma subordinators via gamma variates, so increments
carry no discretization bias at any fixed gap.  A model's sampler is
built once for a fixed array of gaps (`LevyModel.increment_sampler`),
which computes the per-gap scale factors, and then draws once per path.
"""

from __future__ import annotations

import math
import warnings
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
class LaplaceExponent:
    """Laplace exponent Phi of a subordinator, E exp(-lam S(t)) = exp(-t Phi(lam)).

    Construct through the family classmethods.  Each carries the
    characteristic exponent psi(xi) = Phi(-i xi) by analytic continuation
    (scalar or array xi) and, like `LevyModel`, an exact sampler
    increment_sampler(gaps) -> draw(rng) of increments over a float array
    of time gaps, whose per-gap factors it computes once.
    """

    family: str
    params: dict
    fn: Callable[[np.ndarray], np.ndarray]
    psi: Callable = field(repr=False)
    increment_sampler: Callable = field(repr=False)

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

        def psi(xi):
            # analytic continuation (-i xi)^beta, principal branch
            return np.abs(xi) ** beta * np.exp(-1j * beta * np.pi / 2 * np.sign(xi))

        def sampler(gaps):
            scale = gaps ** (1.0 / beta)
            return lambda rng: scale * one_sided_stable(rng, beta, scale.shape)

        return cls("stable", {"beta": beta}, lambda l: l ** beta, psi=psi,
                   increment_sampler=sampler)

    @classmethod
    def gamma(cls, a: float, b: float) -> "LaplaceExponent":
        """Phi(lam) = a*log(1 + lam/b); S(t) ~ Gamma(shape a*t, rate b)."""
        if a <= 0 or b <= 0:
            raise ValueError("gamma subordinator needs a, b > 0")

        def sampler(gaps):
            shape = a * gaps
            return lambda rng: rng.gamma(shape=shape, scale=1.0 / b)

        return cls("gamma", {"a": a, "b": b}, lambda l: a * np.log1p(l / b),
                   psi=lambda xi: a * np.log(1.0 - 1j * xi / b),
                   increment_sampler=sampler)

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
            jumps = rate * jump_mean * lam / (1.0 + jump_mean * lam) if rate > 0 else 0.0
            return drift * lam + jumps

        def psi(xi):
            jumps = rate * (1.0 - 1.0 / (1.0 - 1j * jump_mean * xi)) if rate > 0 else 0.0
            return -1j * drift * xi + jumps

        def sampler(gaps):
            moved = drift * gaps
            if rate == 0:
                return lambda rng: moved.copy()
            mean_jumps = rate * gaps
            # Gamma with integer shape n = sum of n Exp(jump_mean) jumps
            return lambda rng: moved + rng.gamma(shape=rng.poisson(mean_jumps),
                                                 scale=jump_mean)

        return cls("compound_poisson_drift",
                   {"rate": rate, "jump_mean": jump_mean, "drift": drift},
                   phi, psi=psi, increment_sampler=sampler)

    def to_config(self) -> dict:
        return {"family": self.family, "params": dict(sorted(self.params.items()))}


# ---------------------------------------------------------------------------
# process models
# ---------------------------------------------------------------------------

@dataclass
class LevyModel:
    """A Levy process with enough structure to evaluate and sample.

    `psi` is the radial exponent: Psi(z) = psi(|z|), scalar or array |z|.
    kinds: "isotropic_stable" (index alpha in (0,2], scale c, dimension d,
    psi(r) = c r^alpha), "subordinator" (a LaplaceExponent, psi = phi.psi),
    "subordinate_brownian" (Brownian motion run at an independent
    subordinator clock, psi(r) = Phi(r^2)).
    """

    kind: str
    d: int
    psi: Callable
    params: dict = field(default_factory=dict)
    phi: Optional[LaplaceExponent] = None

    @classmethod
    def isotropic_stable(cls, alpha: float, c: float = 1.0, d: int = 1) -> "LevyModel":
        if not 0 < alpha <= 2:
            raise ValueError("alpha must be in (0, 2]")
        if c <= 0 or d < 1:
            raise ValueError("need scale c > 0 and dimension d >= 1")
        return cls("isotropic_stable", d, lambda r: c * np.abs(r) ** alpha,
                   params={"alpha": alpha, "c": c})

    @classmethod
    def subordinator(cls, phi: LaplaceExponent) -> "LevyModel":
        return cls("subordinator", 1, phi.psi, phi=phi)

    @classmethod
    def subordinate_brownian(cls, phi: LaplaceExponent, d: int) -> "LevyModel":
        if d < 1:
            raise ValueError("need dimension d >= 1")
        return cls("subordinate_brownian", d, lambda r: phi(np.square(r)), phi=phi)

    def increment_sampler(self, gaps) -> Callable[[np.random.Generator], np.ndarray]:
        """Exact sampler of increments over fixed time gaps.

        The per-gap factors are computed here, once; the returned
        draw(rng) gives a fresh (len(gaps), d) array of independent
        increments per call.  Raises ValueError unless every gap is
        finite and >= 0.
        """
        gaps = np.asarray(gaps, dtype=float)
        if not np.all(np.isfinite(gaps) & (gaps >= 0)):
            raise ValueError("time gaps must be finite and nonnegative")
        m, d = gaps.shape[0], self.d
        if self.kind == "isotropic_stable":
            alpha, c = self.params["alpha"], self.params["c"]
            if alpha == 2.0:
                scale = 2.0 * c * gaps
                np.sqrt(scale, out=scale)

                def draw(rng):
                    z = rng.standard_normal((m, d))
                    z *= scale[:, None]
                    return z
            elif d == 1:
                scale = (c * gaps) ** (1.0 / alpha)

                def draw(rng):
                    return (scale * symmetric_stable(rng, alpha, m))[:, None]
            else:
                # Gaussian subordination: X(t) = B(2 T(ct)), T an (alpha/2)-subordinator
                scale = (c * gaps) ** (2.0 / alpha)

                def draw(rng):
                    clock = scale * one_sided_stable(rng, alpha / 2.0, m)
                    return np.sqrt(2.0 * clock)[:, None] * rng.standard_normal((m, d))
        elif self.kind == "subordinator":
            clock = self.phi.increment_sampler(gaps)

            def draw(rng):
                inc = clock(rng)
                assert np.all(inc >= 0), "subordinator increment negative"
                return inc[:, None]
        elif self.kind == "subordinate_brownian":
            clock = self.phi.increment_sampler(gaps)

            def draw(rng):
                return np.sqrt(2.0 * clock(rng))[:, None] * rng.standard_normal((m, d))
        else:
            raise ValueError(f"unknown model kind {self.kind!r}")
        return draw

    def typical_inverse_scale(self, r: float) -> float:
        """Gap h with h * |psi(1/r)| = 1: the time over which the process
        typically moves about r (modulus, so pure drift works).  Used by
        mesh rules."""
        mag = float(abs(self.psi(1.0 / r)))
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
    tail is handled with a sin-weighted rule.  An IntegrationWarning
    raises NonConvergedQuadrature under any warning filter, and so does a
    value outside [0, 1] by more than KAPPA_QUAD_TOL (the quadrature's
    own error estimate can pass while its value is wrong); a value within
    that margin is clipped to [0, 1].
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
        with warnings.catch_warnings():
            warnings.simplefilter("error", integrate.IntegrationWarning)
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
    kappa = 2.0 / np.pi * val
    if not -KAPPA_QUAD_TOL <= kappa <= 1.0 + KAPPA_QUAD_TOL:
        raise NonConvergedQuadrature(
            f"ball-probability quadrature gave {kappa:.6g}, outside [0, 1] "
            f"by more than {KAPPA_QUAD_TOL:.0e}")
    return float(min(1.0, max(0.0, kappa)))


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
        x = model.increment_sampler(np.full(m, t))(rng)
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

    kinds and scale semantics (`power_law` gives the fh pair (s, eps)):
      "fh"        min(1, (scale/r)**s)            scale = eps
      "sandwich"  min(1, scale/r**(1/alpha))**d   = fh at (d/alpha, scale**alpha)
      "exact"     kappa_scale(r) of a LevyModel   scale = eps
    A power law lies between g and R(s) g, g its greatest convex minorant
    (`energy_min`), R(s) = 1 / (1 - (s/(1+s)) (1+s)^(-1/s)).
    """

    kind: str
    params: dict = field(default_factory=dict)
    model: Optional[LevyModel] = None
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
    def exact(cls, model: LevyModel, seed: int = 0) -> "KernelFamily":
        """The model's own small-ball kernel.

        1-d symmetric stable models use quadrature; anything else falls
        back to seeded Monte Carlo (l-inf balls in d > 1 do not factor).
        """
        return cls("exact", {}, model=model, seed=seed)

    def power_law(self, scale: float) -> tuple[float, float] | None:
        """(s, eps) with K_scale(r) = min(1, (eps/r)**s), or None for
        kernels that are not power laws."""
        if self.kind == "fh":
            return self.params["s"], scale
        if self.kind == "sandwich":
            alpha = self.params["alpha"]
            return self.params["d"] / alpha, scale ** alpha
        return None

    def evaluate(self, scale: float, r) -> np.ndarray:
        """Vectorized K_scale(r) for r >= 0."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(r < 0):
            raise ValueError("distances must be nonnegative")
        power = self.power_law(scale)
        if power is not None:
            s, eps = power
            vals = np.ones_like(r)
            far = r > eps                        # power stays <= 1, no overflow
            vals[far] = (eps / r[far]) ** s
            return vals
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

def cauchy_weighted_energy(weights, psi: Callable, eps: float) -> float:
    """int f_C(z) * E_nu(z/eps) dz with f_C the standard Cauchy density on R.

    Computed pairwise: the factor int f_C(z) Re exp(-u psi(z/eps)) dz of
    every gap u = |t_i - t_j|, i < j, comes from one vector quadrature
    whose worst factor error stays below `CAUCHY_QUAD_TOL`; so does the
    total error, because the pair masses sum to at most 1.  `psi` takes
    arrays and must satisfy psi(-xi) = conj psi(xi), as the exponent of
    every real-valued process does; the integrand is then even in z and
    only z >= 0 is integrated.  A drift makes the factor oscillate
    without decay as theta -> pi/2, so it raises NonConvergedQuadrature:
    for `compound_poisson_drift(2, 0.5, 0.3)` on 10 random points the
    error estimates are 4.6e-5, 2.1e-4 and 2.6e-3 at eps = 0.5, 0.1 and
    0.01.  Every subordinator has the closed form w' exp(-D Phi(1/eps)) w,
    D_ij = |t_i - t_j| (C10's identity).
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    pts, w = weights.points, weights.w
    i, j = np.triu_indices(len(pts), k=1)
    if not i.size:
        return float(w @ w)
    gaps = np.abs(pts[i] - pts[j])

    # z = tan(theta) absorbs the Cauchy weight exactly; the integrand
    # is then smooth and bounded on a compact interval
    vals, err = integrate.quad_vec(
        lambda theta: np.exp(-gaps * psi(np.tan(theta) / eps)).real * (2.0 / np.pi),
        0.0, np.pi / 2, epsabs=CAUCHY_QUAD_TOL / 4,
        epsrel=CAUCHY_QUAD_TOL / 4, limit=400, norm="max")
    if not err <= CAUCHY_QUAD_TOL:
        raise NonConvergedQuadrature(f"Cauchy-weighted quadrature error "
                                     f"{err:.2e} exceeds {CAUCHY_QUAD_TOL:.0e}")
    return float(w @ w + 2.0 * (w[i] * w[j]) @ vals)
