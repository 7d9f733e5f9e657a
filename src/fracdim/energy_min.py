"""Minimum kernel energies over discrete probability measures.

The discrete surrogate of the minimum-energy problem is

    Z = min { w' K w : w >= 0, sum w = 1 },    K_ij = K_scale(|t_i - t_j|).

Exponential kernels exp(-a|t_i - t_j|) have an exact O(n) minimizer
(`exp_kernel_min_energy`): the kernel is a Markov covariance, so no
matrix is formed and no iteration runs.  Every other kernel is assembled
densely and solved by Frank-Wolfe over the simplex (with away steps, so
positive semidefinite kernels converge linearly instead of zigzagging).
The linear minimization oracle over the simplex is a coordinate argmin,
ties broken at the lowest index, and the duality gap
2(w'Kw - min_i (Kw)_i) comes for free; for PSD kernels it certifies
global optimality.  Kernels that fail a Cholesky probe are minimized from
up to `restarts` starts, the later ones seeded Dirichlet draws that run
only when the first start does not meet the gap test, and the best
stationary point is returned, flagged.

The power-law (Falconer-Howroyd) kernel min(1, (eps/r)^s) is indefinite,
but its Polya companion c(r) = (1 + r/eps)^(-s) is positive definite
and lies between 2^(-s) fh and fh.  `rung_min_energy` solves the
companion exactly (Levinson on equal-gap nets, Cholesky otherwise),
starts the fh solve at its minimizer and reports its minimum Z_c as a
lower bound: Z_c <= Z_fh <= 2^s Z_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .errors import CertificateFailed, MaxIterExceeded, NetTooLarge, TooLarge
from .process_models import KernelFamily
from .set_models import DeltaNet

DENSE_NET_CAP = 5000
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 200_000
DEFAULT_RESTARTS = 4
ENUM_BUDGET = 200_000_000      # lattice points an exhaustive search may visit
_ENUM_CHUNK_ROWS = 2_000_000   # lattice points evaluated per block
_EQUAL_GAP_RTOL = 1e-12        # equal-gap test of the Toeplitz companion solve
PSD_JITTER = 1e-10             # diagonal shift of the Cholesky probe
_RESYNC_EVERY = 512            # refresh the cached gradient this often
_ROW_BLOCK = 256               # kernel rows assembled per evaluation
_SUM_TOL = 1e-12


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------

@dataclass
class SimplexWeights:
    """A discrete probability measure on net points."""

    w: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        if self.w.shape != self.points.shape:
            raise ValueError("weights and points length mismatch")
        if np.any(self.w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(self.w.sum() - 1.0) > _SUM_TOL:
            raise ValueError(f"weights sum to {self.w.sum()!r}, not 1")

    @classmethod
    def uniform(cls, points) -> "SimplexWeights":
        points = np.asarray(points, dtype=float)
        return cls(np.full(points.size, 1.0 / points.size), points)


@dataclass
class KernelMatrix:
    """Dense kernel matrix over a net, diagonal identically 1.

    `values` must be exactly symmetric (A == A.T elementwise, as
    `build_kernel` writes it): the Frank-Wolfe update reads rows where it
    means columns, and `min_energy` raises ValueError otherwise.
    """

    values: np.ndarray
    points: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]


PSD_PROBE_CAP = 1024           # factorization probe only below this size


@dataclass
class EnergyResult:
    value: float
    weights: SimplexWeights
    duality_gap: float
    iterations: int
    restarts_used: int = 1
    flagged_nonconvex: bool = False
    converged: bool = True
    start: str | None = None         # first Frank-Wolfe start; None if no iteration ran
    Z_lower: float | None = None     # certified lower bound on the minimum, if known

    def to_json_dict(self) -> dict:
        """Solver diagnostics of one rung, free of timings."""
        return {
            "n": int(self.weights.w.size),
            "Z": self.value,
            "Z_lower": self.Z_lower,
            "duality_gap": self.duality_gap,
            "iterations": self.iterations,
            "restarts_used": self.restarts_used,
            "start": self.start,
            "converged": self.converged,
            "flagged_nonconvex": self.flagged_nonconvex,
        }


# ---------------------------------------------------------------------------
# kernel assembly
# ---------------------------------------------------------------------------

def build_kernel(family: KernelFamily, scale: float, net: DeltaNet) -> KernelMatrix:
    """Assemble K_ij = K_scale(|t_i - t_j|) over a net.

    K is written in blocks of _ROW_BLOCK rows, each one elementwise
    evaluation of the family on |t_block - t|; K_ji comes from the same
    distance as K_ij, so K is exactly symmetric.  Quadrature and Monte
    Carlo ("exact") kernels instead evaluate the condensed upper triangle
    with repeated distances collapsed first, which matters on regular
    grids.
    """
    pts = net.points
    n = pts.size
    if n > DENSE_NET_CAP:
        raise NetTooLarge(f"net has {n} points, dense cap is {DENSE_NET_CAP}")
    if family.kind == "exact":
        iu, ju = np.triu_indices(n, k=1)
        uniq, inv = np.unique(np.abs(pts[iu] - pts[ju]), return_inverse=True)
        vals = (family.evaluate(scale, uniq) if uniq.size else np.empty(0))[inv]
        K = np.eye(n)
        K[iu, ju] = vals
        K[ju, iu] = vals
    else:
        K = np.empty((n, n))
        for i in range(0, n, _ROW_BLOCK):
            K[i:i + _ROW_BLOCK] = family.evaluate(
                scale, np.abs(pts[i:i + _ROW_BLOCK, None] - pts))
    np.clip(K, 0.0, 1.0, out=K)
    np.fill_diagonal(K, 1.0)
    return KernelMatrix(values=K, points=pts.copy())


def is_psd(K: np.ndarray) -> bool:
    """Cholesky probe (with PSD_JITTER) for positive semidefiniteness.

    The jitter admits semidefinite matrices such as nearly-low-rank
    exponential kernels; genuinely indefinite kernels fail fast at the
    first negative leading minor.
    """
    A = np.asarray(K, dtype=float)
    try:
        np.linalg.cholesky(A + PSD_JITTER * np.eye(A.shape[0]))
        return True
    except np.linalg.LinAlgError:
        return False


# ---------------------------------------------------------------------------
# Frank-Wolfe minimization
# ---------------------------------------------------------------------------

def _line_search(dKw: float, dKd: float, gmax: float) -> float:
    """Exact step for f(w + g d) = f + 2 g dKw + g^2 dKd on [0, gmax]."""
    if dKd > 0:
        return min(gmax, max(0.0, -dKw / dKd))
    # concave along d: descent means go to the boundary
    return gmax if 2 * gmax * dKw + gmax * gmax * dKd < 0 else 0.0


def _frank_wolfe(K: np.ndarray, w0: np.ndarray, tol: float, max_iter: int):
    """Frank-Wolfe with pairwise steps from w0.

    Each step moves mass from the worst active vertex (argmax of the
    potential on the support) straight to the Frank-Wolfe vertex
    (argmin of the potential, lowest index on ties), with exact line
    search along that segment; this is the pairwise variant, which
    converges linearly on simplex quadratics where the classical
    toward-vertex iteration zigzags.  The exit test is the classical
    Frank-Wolfe duality gap 2(w'Kw - min_i (Kw)_i) <= tol * w'Kw.

    Returns (w, f, gap, iterations, status) with status one of "gap"
    (convergence test met), "stall" (no movable descent direction; a
    stationary point of a nonconvex kernel), "iters" (budget exhausted).
    Directions are two-sparse, so the cached potential updates in O(n)
    per step with periodic resyncs against drift.  The update reads the
    contiguous rows K[fw] - K[aw] in place of the columns, so K must be
    exactly symmetric (`min_energy` checks).  The support is tracked by
    a penalty vector, 0 on w > 0 and -inf off it, so the away vertex is
    argmax(g + pen); a step changes pen only at the two coordinates it
    touches, and each resync rebuilds it from w.
    """
    w = w0.copy()
    g = K @ w
    f = float(w @ g)
    gap = float("inf")
    dbuf = np.empty_like(g)
    masked = np.empty_like(g)
    pen = np.where(w > 0.0, 0.0, -np.inf)
    for it in range(1, max_iter + 1):
        fw = int(np.argmin(g))                   # lowest index on ties
        gap = 2.0 * (f - g[fw])
        if gap <= tol * max(f, 1e-300):
            return w, f, gap, it - 1, "gap"
        np.add(g, pen, out=masked)
        aw = int(np.argmax(masked))
        if aw == fw:
            return w, f, gap, it, "stall"
        # pairwise direction d = e_fw - e_aw, feasible for gamma <= w_aw
        dKw = float(g[fw] - g[aw])
        dKd = float(K[fw, fw] + K[aw, aw] - 2.0 * K[fw, aw])
        if dKw >= 0:
            return w, f, gap, it, "stall"
        gamma = _line_search(dKw, dKd, float(w[aw]))
        if gamma <= 0:
            return w, f, gap, it, "stall"
        drop = gamma >= w[aw] * (1.0 - 1e-12)
        if drop:
            w[aw] = 0.0
            pen[aw] = -np.inf
        else:
            w[aw] -= gamma
        w[fw] += gamma
        pen[fw] = 0.0
        np.subtract(K[fw], K[aw], out=dbuf)
        dbuf *= gamma
        g += dbuf
        f += 2.0 * gamma * dKw + gamma * gamma * dKd
        if it % _RESYNC_EVERY == 0:              # control incremental drift
            np.clip(w, 0.0, None, out=w)
            w /= w.sum()
            g = K @ w
            f = float(w @ g)
            pen = np.where(w > 0.0, 0.0, -np.inf)
    return w, f, gap, max_iter, "iters"


def min_energy(K: KernelMatrix, tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER,
               restarts: int = DEFAULT_RESTARTS, seed: int = 0,
               start=None) -> EnergyResult:
    """Minimum energy Z over the probability simplex, with certificate.

    The first Frank-Wolfe run starts from whichever of `start` (a
    probability vector on the net, optional) and the uniform measure has
    the lower energy, so the returned Z never exceeds the uniform
    measure's energy; the result's `start` says which ("given" or
    "uniform").  Kernels that pass the Cholesky probe (run up to
    PSD_PROBE_CAP points) need that single run: the exit test
    duality_gap <= tol * Z certifies global optimality.  On other
    kernels `restarts` is the most starts made: when the first run does
    not end with the gap test met, restarts - 1 seeded Dirichlet starts
    follow, and the best stationary point is returned with
    `flagged_nonconvex` set.  Exponential kernels need no solve at all;
    see `exp_kernel_min_energy`.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")
    A = K.values
    n = A.shape[0]
    if not np.array_equal(A, A.T):
        raise ValueError("kernel matrix is not exactly symmetric")
    # probe only at modest sizes; large unprobed kernels are treated as
    # possibly nonconvex (restarts + flag), which is the honest default
    psd = n <= PSD_PROBE_CAP and is_psd(A)
    w0, label = np.full(n, 1.0 / n), "uniform"
    if start is not None:
        start = np.asarray(start, dtype=float)
        if (start.shape != (n,) or np.any(start < 0)
                or abs(start.sum() - 1.0) > _SUM_TOL):
            raise ValueError("start must be a probability vector on the net")
        if float(start @ (A @ start)) < float(w0 @ (A @ w0)):
            w0, label = start, "given"
    runs = [_frank_wolfe(A, w0, tol, max_iter)]
    if not psd and runs[0][4] != "gap":
        rng = np.random.default_rng(seed)
        runs += [_frank_wolfe(A, rng.dirichlet(np.ones(n)), tol, max_iter)
                 for _ in range(restarts - 1)]
    w, f, _, iters, status = min(runs, key=lambda run: run[1])
    w = np.clip(w, 0.0, None)
    w /= w.sum()
    pot = A @ w
    f = float(w @ pot)
    gap = 2.0 * (f - float(pot.min()))
    result = EnergyResult(value=f, weights=SimplexWeights(w, K.points),
                          duality_gap=gap, iterations=iters,
                          restarts_used=len(runs),
                          flagged_nonconvex=not psd,
                          converged=status == "gap", start=label)
    if all(run[4] == "iters" for run in runs):
        raise MaxIterExceeded(
            f"no start met gap <= {tol:g} * Z within {max_iter} iterations",
            result=result)
    return result


# ---------------------------------------------------------------------------
# exponential kernels: exact minimizer in O(n)
# ---------------------------------------------------------------------------

def _sorted_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or pts.size == 0:
        raise ValueError("need a nonempty 1-d array of points")
    if np.any(np.diff(pts) < 0):
        raise ValueError("points must be sorted")
    return pts


def exp_kernel_potential(points, a: float, w) -> np.ndarray:
    """Potential (Kw)_i for K_ij = exp(-a|t_i - t_j|) on sorted points, in O(n).

    With rho_i = exp(-a (t_{i+1} - t_i)), the one-sided sums
    F_i = sum_{j <= i} K_ij w_j and B_i = sum_{j >= i} K_ij w_j obey
    F_i = w_i + rho_{i-1} F_{i-1} and B_i = w_i + rho_i B_{i+1}, so
    Kw = F + B - w without forming K.
    """
    pts = _sorted_points(points)
    rho = np.exp(-a * np.diff(pts)).tolist()
    wl = np.asarray(w, dtype=float).tolist()
    n = len(wl)
    fwd = wl[:]
    bwd = wl[:]
    for i in range(1, n):
        fwd[i] += rho[i - 1] * fwd[i - 1]
    for i in range(n - 2, -1, -1):
        bwd[i] += rho[i] * bwd[i + 1]
    return np.array(fwd) + np.array(bwd) - np.array(wl)


def exp_kernel_certificate(points, a: float, w,
                           tol: float = DEFAULT_TOL) -> EnergyResult:
    """Certify a candidate minimizer w of the exponential kernel's energy.

    Computes the potential with `exp_kernel_potential` and the duality
    gap 2(w'Kw - min_i (Kw)_i), which bounds w'Kw - Z from above because
    the kernel is positive semidefinite.  Raises CertificateFailed when a
    weight is negative or the gap exceeds tol * w'Kw.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    pts = _sorted_points(points)
    w = np.asarray(w, dtype=float)
    if np.any(w < 0):
        raise CertificateFailed(f"negative weight {float(w.min())!r}")
    pot = exp_kernel_potential(pts, a, w)
    f = float(w @ pot)
    gap = 2.0 * (f - float(pot.min()))
    if not gap <= tol * f:
        raise CertificateFailed(
            f"duality gap {gap:.3e} exceeds {tol:g} * Z = {tol * f:.3e} "
            f"on {pts.size} points")
    return EnergyResult(value=f, weights=SimplexWeights(w, pts),
                        duality_gap=gap, iterations=0)


def exp_kernel_min_energy(points, a: float,
                          tol: float = DEFAULT_TOL) -> EnergyResult:
    """Exact minimum energy of K_ij = exp(-a|t_i - t_j|), a >= 0, on sorted
    points, in O(n) time and memory.

    K is the covariance of the Markov chain X_1 ~ N(0, 1),
    X_{i+1} = rho_i X_i + sqrt(1 - rho_i^2) xi_i with rho_i =
    exp(-a h_i) over the gaps h_i, so K^-1 is tridiagonal:
    x'K^-1 x = x_1^2 + sum_i (x_{i+1} - rho_i x_i)^2 / (1 - rho_i^2).
    Half its gradient at x = 1 is v = K^-1 1, with
    v_i = (tau_{i-1} + tau_i) / 2, tau_i = (1 - rho_i)/(1 + rho_i) =
    tanh(a h_i / 2) and tau_0 = tau_n = 1 at the ends.  Every v_i >= 0,
    so w = v / sum(v) is the minimizer over the simplex as well as over
    the hyperplane sum w = 1, and Z = 1 / (1 + sum_i tanh(a h_i / 2)).
    Coincident points (h_i = 0) split one atom and leave Z unchanged.

    The returned w is certified by `exp_kernel_certificate`, which does
    not use this formula; the result reports 0 iterations and one start.
    """
    if not (math.isfinite(a) and a >= 0):
        raise ValueError(f"kernel rate must be finite and >= 0, got {a!r}")
    pts = _sorted_points(points)
    tau = np.concatenate(([1.0], np.tanh(0.5 * a * np.diff(pts)), [1.0]))
    v = 0.5 * (tau[:-1] + tau[1:])
    return exp_kernel_certificate(pts, a, v / v.sum(), tol)


def _fh_companion_solve(points, s: float, eps: float):
    """v = C^-1 1 for the Polya companion C_ij = (1 + |t_i - t_j|/eps)^(-s)
    of the power-law kernel on sorted points, or None when the solve
    fails.

    c(r) = (1 + r/eps)^(-s) is convex, decreasing and tends to 0, so by
    Polya's criterion C is positive definite on distinct points, and
    2^(-s) fh <= c <= fh elementwise.  On a net whose points lie within
    _EQUAL_GAP_RTOL * span of t_0 + k h (interval nets: measured within
    1.3e-16 on [0, 1]), C is built from the exact distances k h and
    solved as a symmetric Toeplitz system by Levinson recursion in O(n)
    memory; its entries then differ from those at the net's own
    distances by at most s * 2e-12 * span / eps relative.  Other nets
    are assembled densely and Cholesky-factored in place.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.size
    span = pts[-1] - pts[0]
    dist = span / max(n - 1, 1) * np.arange(n)
    try:
        if n > 2 and np.max(np.abs(pts - pts[0] - dist)) <= _EQUAL_GAP_RTOL * span:
            v = linalg.solve_toeplitz((1.0 + dist / eps) ** -s, np.ones(n),
                                      check_finite=False)
        else:
            C = pts[:, None] - pts
            np.abs(C, out=C)
            C /= eps
            C += 1.0
            np.power(C, -s, out=C)
            v = linalg.cho_solve(linalg.cho_factor(C, overwrite_a=True,
                                                   check_finite=False),
                                 np.ones(n), check_finite=False)
    except np.linalg.LinAlgError:
        return None
    return v if np.all(np.isfinite(v)) else None


def rung_min_energy(family: KernelFamily, scale: float, net: DeltaNet,
                    tol: float = DEFAULT_TOL, **solver_kw) -> EnergyResult:
    """Minimum energy of one family at one scale over a net.

    Exponential kernels go to `exp_kernel_min_energy` (no matrix, no net
    cap); every other family is assembled densely and passed to
    `min_energy` with `solver_kw` (restarts, seed, max_iter).

    Power-law (`fh`) rungs first solve the Polya companion exactly
    (`_fh_companion_solve`).  Clipped at 0 and normalized, v = C^-1 1 is
    the `start` of the Frank-Wolfe solve (reported as "companion" when
    it beats the uniform measure); if the solve fails the uniform start
    is used.  When every v_i > 0, w = v / 1'v is the companion's
    minimizer over the simplex, and Z_lower = 1/1'v <= Z_fh because
    c <= fh; since Z_fh <= w'Kw <= 2^s Z_lower, the result then also
    satisfies Z <= 2^s Z_lower.  Z_lower is None otherwise.  The bound
    holds up to rounding and the Toeplitz tolerance stated in
    `_fh_companion_solve`.
    """
    if family.kind == "subexp":
        return exp_kernel_min_energy(net.points, float(family.phi(scale)), tol)
    if family.kind != "fh":
        return min_energy(build_kernel(family, scale, net), tol=tol, **solver_kw)
    v = _fh_companion_solve(net.points, family.params["s"], scale)
    start = z_lower = None
    if v is not None:
        if np.all(v > 0):
            z_lower = 1.0 / float(v.sum())
        v = np.clip(v, 0.0, None)
        start = v / v.sum()
    res = min_energy(build_kernel(family, scale, net), tol=tol, start=start,
                     **solver_kw)
    if res.start == "given":
        res.start = "companion"
    res.Z_lower = z_lower
    return res


# ---------------------------------------------------------------------------
# independent oracle: exhaustive lattice search
# ---------------------------------------------------------------------------

def _composition_count(total: int, parts: int) -> int:
    return math.comb(total + parts - 1, parts - 1)


def _compositions_chunks(total: int, parts: int):
    """Yield integer arrays whose rows are compositions of `total` into
    `parts` nonnegative parts, in chunks of about _ENUM_CHUNK_ROWS rows.

    Suffix blocks of up to 3 parts are memoized per call; deeper levels are
    streamed so memory stays proportional to the chunk size.
    """
    cache: dict[tuple[int, int], np.ndarray] = {}

    def suffix(tot: int, pts: int) -> np.ndarray:
        if pts == 1:
            return np.array([[tot]], dtype=np.int32)
        key = (tot, pts)
        got = cache.get(key)
        if got is not None:
            return got
        pieces = []
        for first in range(tot, -1, -1):
            rest = suffix(tot - first, pts - 1)
            block = np.empty((rest.shape[0], pts), dtype=np.int32)
            block[:, 0] = first
            block[:, 1:] = rest
            pieces.append(block)
        out = np.concatenate(pieces)
        if pts <= 3:                     # deeper levels would hold GBs at R ~ 200
            cache[key] = out
        return out

    if parts == 1:
        yield np.array([[total]], dtype=np.int32)
        return
    buf: list[np.ndarray] = []
    rows = 0
    for first in range(total, -1, -1):
        rest = suffix(total - first, parts - 1)
        block = np.empty((rest.shape[0], parts), dtype=np.int32)
        block[:, 0] = first
        block[:, 1:] = rest
        buf.append(block)
        rows += block.shape[0]
        if rows >= _ENUM_CHUNK_ROWS:
            yield np.concatenate(buf)
            buf, rows = [], 0
    if buf:
        yield np.concatenate(buf)


def min_energy_bruteforce(K: KernelMatrix,
                          resolution: float = 1.0 / 200.0) -> float:
    """Exhaustive minimum of w'Kw over the lattice simplex {m/R : sum m = R}.

    Independent of the Frank-Wolfe path.  With entries in [0, 1] the value
    is within Lipschitz * resolution of the lattice-free minimum (and much
    closer in practice, since the objective is flat at a minimizer).
    Raises TooLarge when the lattice exceeds ENUM_BUDGET points.

    The first n - 2 counts and the mass t left for the last two points are
    enumerated; the split (x, t - x) of that mass is a quadratic in x, whose
    integer minimum over [0, t] lies at floor or floor + 1 of its vertex when
    it is convex and at an end of the edge otherwise.  So two points per
    edge are evaluated instead of t + 1, and the minimum is the same.
    """
    A = K.values
    n = A.shape[0]
    if n > 8:
        raise TooLarge("bruteforce oracle is limited to n <= 8")
    R = int(round(1.0 / resolution))
    if R < 1:
        raise ValueError("resolution must be in (0, 1]")
    count = _composition_count(R, n)
    if count > ENUM_BUDGET:
        raise TooLarge(f"{count} lattice points exceed budget {ENUM_BUDGET}; "
                       "pass a coarser resolution")
    if n == 1:
        return float(A[0, 0])
    d_pot = A[:, n - 2] - A[:, n - 1]            # A d with d = e_{n-2} - e_{n-1}
    curv = float(d_pot[n - 2] - d_pot[n - 1])    # d'A d
    best = np.inf
    for block in _compositions_chunks(R, n - 1):
        t = block[:, -1].astype(float)
        M = np.zeros((block.shape[0], n))
        M[:, :n - 2] = block[:, :-1]
        if curv > 0.0:
            # m = (prefix, 0, t): Q(m + x d) = Q(m) + 2x d'A m + x^2 d'A d
            slope = M[:, :n - 2] @ d_pot[:n - 2] + t * d_pot[n - 1]
            x = np.floor(-slope / curv)
            splits = (np.clip(x, 0.0, t), np.clip(x + 1.0, 0.0, t))
        else:
            splits = (np.zeros_like(t), t)
        for x in splits:
            M[:, n - 2] = x
            M[:, n - 1] = t - x
            W = M / R
            m = float(np.einsum("ij,jk,ik->i", W, A, W).min())
            if m < best:
                best = m
    return best


# ---------------------------------------------------------------------------
# optimality certificate
# ---------------------------------------------------------------------------

def kkt_certificate(K: KernelMatrix, weights: SimplexWeights,
                    tol: float = 1e-6) -> tuple[bool, dict]:
    """Equilibrium-potential check at w: the potential (Kw)_i must be >=
    w'Kw - tol everywhere and equal to it (within tol) on the support."""
    A = K.values
    w = weights.w
    pot = A @ w
    z = float(w @ pot)
    support = w > 1e-10
    lower_ok = bool(np.all(pot >= z - tol))
    support_ok = bool(np.all(np.abs(pot[support] - z) <= tol))
    report = {
        "energy": z,
        "min_potential": float(pot.min()),
        "max_support_deviation": float(np.abs(pot[support] - z).max()),
        "support_size": int(support.sum()),
        "lower_bound_ok": lower_ok,
        "support_equality_ok": support_ok,
    }
    return lower_ok and support_ok, report

