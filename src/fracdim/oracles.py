"""Independent reference values used to cross-check the estimators.

Everything here is a closed form or an exhaustive computation that does
not share code with the estimator it checks: Gaussian/Cauchy ball
probabilities, the half-stable subordinator law, the exact uniform-measure
and minimum energies of an interval and the minimum energy of the Cantor
set under the exponential kernel, lattice capacities,
and a dynamic-programming exact maximum-separated-subset count.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special


def gaussian_ball(c: float, eps: float, t: float) -> float:
    """P{|X(t)| <= eps} for Psi(z) = c z^2 (variance 2ct)."""
    if t == 0:
        return 1.0
    return float(special.erf(eps / (2.0 * math.sqrt(c * t))))


def cauchy_ball(c: float, eps: float, t: float) -> float:
    """P{|X(t)| <= eps} for Psi(z) = c|z| (Cauchy with scale ct)."""
    if t == 0:
        return 1.0
    return float(2.0 / math.pi * math.atan(eps / (c * t)))


def half_stable_subordinator_cdf(x: float, t: float = 1.0) -> float:
    """P{S(t) <= x} for the 1/2-stable subordinator, Phi(lam) = sqrt(lam).

    S(t) has the one-sided density with explicit CDF erfc(t / (2 sqrt(x))).
    """
    if x <= 0:
        return 0.0
    return float(special.erfc(t / (2.0 * math.sqrt(x))))


def two_point_min_energy(k: float) -> float:
    """min over the simplex of w'[[1,k],[k,1]]w = (1+k)/2 at w = (1/2,1/2)."""
    return (1.0 + k) / 2.0


def interval_capacity(r: float, length: float = 1.0) -> int:
    """K(r) of a (finely sampled) interval: floor(length/r) + 1."""
    return int(math.floor(length / r + 1e-12)) + 1


def cantor_triadic_capacity(k: int) -> int:
    """K(3^-k) of the middle-third Cantor set: both endpoints of each of
    the 2^k depth-k cylinders are pairwise >= 3^-k apart."""
    return 2 ** (k + 1)


def interval_exp_kernel_energy(x: float) -> float:
    """Uniform-measure energy of [0,1] under exp(-x|t-s|):
    2 (x - 1 + exp(-x)) / x^2."""
    if x == 0:
        return 1.0
    return 2.0 * (x - 1.0 + math.exp(-x)) / x ** 2


def interval_exp_kernel_min_energy(x: float) -> float:
    """Continuous minimum energy of [0,1] under exp(-x|t-s|): 2/(x+2).

    The equilibrium measure (two endpoint atoms plus a uniform interior
    part) has constant potential 2/(x+2), which is therefore the value.
    """
    return 2.0 / (x + 2.0)


def cantor_exp_kernel_min_energy(x: float) -> float:
    """Continuous minimum energy of the middle-third Cantor set C under
    exp(-x|t-s|): 1 / (1 + sum_{k>=1} 2^{k-1} tanh(x 3^{-k} / 2)).

    On sorted points with gaps h_i the discrete minimum is
    1 / (1 + sum_i tanh(x h_i / 2)) (the kernel's inverse is tridiagonal
    and its minimizer nonnegative).  The endpoints of the 2^d depth-d
    cylinders have as gaps the 2^{k-1} removed intervals of length 3^{-k},
    k <= d, and the 2^d cylinders of length 3^{-d}, so
    Z_d = 1 / (1 + sum_{k<=d} 2^{k-1} tanh(x 3^{-k}/2) + 2^d tanh(x 3^{-d}/2)).
    Refining d -> d + 1 turns each cylinder term tanh(y) into
    3 tanh(y/3) >= tanh(y) (tanh is subadditive on [0, inf)), so Z_d
    decreases, and 2^d tanh(x 3^{-d}/2) <= x (2/3)^d / 2 -> 0 gives the
    limit above.  The nets are dense in C and the kernel is continuous,
    so the limit is the minimum over all probability measures on C.
    The series is summed over 100 levels; the tail it drops is below
    x (2/3)^100 / 2 < 1.3e-18 x.
    """
    k = np.arange(1, 101, dtype=float)
    return float(1.0 / (1.0 + np.sum(2.0 ** (k - 1) * np.tanh(x * 3.0 ** -k / 2.0))))


def theta_power_law(beta: float, s: float) -> float:
    """theta for Phi(lam) = lam^beta: max(0, 1 - beta/s)."""
    return max(0.0, 1.0 - beta / s)


def fh_interval_uniform_energy(s: float, eps: float) -> float:
    """Uniform-measure energy of [0,1] under min(1, (eps/r)^s), closed form
    for s in {1/2, 3/2} and generic s != 1 via the antiderivative."""
    if s == 1.0:
        # int has a log term: 2[eps - eps^2/2 + eps(log(1/eps) - (1 - eps))]
        return 2.0 * (eps - eps ** 2 / 2.0 + eps * (math.log(1.0 / eps) - (1.0 - eps)))
    # 2 int_0^eps (1-r) dr + 2 eps^s int_eps^1 (1-r) r^-s dr
    a = eps - eps ** 2 / 2.0
    i1 = (1.0 - eps ** (1.0 - s)) / (1.0 - s)
    i2 = (1.0 - eps ** (2.0 - s)) / (2.0 - s)
    return 2.0 * (a + eps ** s * (i1 - i2))


def max_separated_1d(points, r: float) -> int:
    """Exact maximum r-separated subset of 1-d points by dynamic
    programming over the sorted order (independent of the greedy sweep;
    same relative roundoff slack on the separation test)."""
    x = np.sort(np.asarray(points, dtype=float))
    r = r * (1.0 - 1e-9)
    n = x.size
    best = np.ones(n, dtype=int)
    for i in range(n):
        feas = np.nonzero(x[i] - x[:i] >= r)[0]
        if feas.size:
            best[i] = 1 + best[feas].max()
    return int(best.max())


NAMED_ORACLES = {
    "gaussian-ball": gaussian_ball,
    "cauchy-ball": cauchy_ball,
    "half-stable-cdf": half_stable_subordinator_cdf,
    "two-point-energy": two_point_min_energy,
    "interval-capacity": interval_capacity,
    "cantor-capacity": cantor_triadic_capacity,
    "interval-exp-energy": interval_exp_kernel_energy,
    "interval-exp-min-energy": interval_exp_kernel_min_energy,
    "cantor-exp-min-energy": cantor_exp_kernel_min_energy,
    "theta-power": theta_power_law,
    "fh-interval-energy": fh_interval_uniform_energy,
}
