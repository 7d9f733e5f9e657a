"""Minimum kernel energies over discrete probability measures.

The discrete surrogate of the minimum-energy problem is

    Z = min { w' K w : w >= 0, sum w = 1 },    K_ij = K_scale(|t_i - t_j|).

Exponential kernels exp(-a|t_i - t_j|) have an exact O(n) minimizer
(`exp_kernel_min_energy`): the kernel is a Markov covariance, so no
matrix is formed and no iteration runs.  Every other kernel is solved by
pairwise Frank-Wolfe over the simplex (mass moves from an away vertex on
the support to the Frank-Wolfe vertex, so positive semidefinite kernels
converge linearly instead of zigzagging), on a `ToeplitzKernel` on
equal-gap nets and a dense matrix otherwise.  The linear minimization
oracle over the simplex is a coordinate argmin, ties broken at the
lowest index, and the duality gap 2(w'Kw - min_i (Kw)_i) comes for free.
The away vertex is the support point whose step lowers w'Kw most, as in
SVM-dual solvers (Fan, Chen and Lin 2005).
A solve always returns, with the status of its best run: "gap" (the
test gap <= tol * w'Kw met), "stall" (no descent step left, which on a
PSD kernel cannot happen while the gap exceeds tol, so the kernel is
nonconvex there) or "iters" (budget spent).  Only a stall is followed
by seeded Dirichlet restarts.  `min_energy` alone sets each result's
one certificate Z_lower <= Z, or None: a positive definite minorant's
minimum when the caller hands in its solve, else, on a kernel that
passes a Cholesky probe, the duality bound 2 min_i (Kw)_i - w'Kw.

The power-law (Falconer-Howroyd) kernel fh(r) = min(1, (eps/r)^s) is
indefinite; sandwich kernels are fh at (d/alpha, eps^alpha).  Its
greatest convex minorant g (1 - m r up to r* = eps (1+s)^(1/s), with
m = s / ((1+s) r*), fh beyond) is positive definite by Polya's criterion,
and g <= fh <= R(s) g, R(s) = 1 / (1 - (s/(1+s)) (1+s)^(-1/s)) (1.174 at
s = 1/2, 1.483 at s = 3/2).  `rung_min_energy` solves g exactly and hands
the solve to `min_energy`, which starts at g's minimizer and reports its
minimum as Z_lower <= Z <= R(s) Z_lower; these rungs are not probed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft, linalg

from .errors import CertificateFailed, NetTooLarge, TooLarge
from .process_models import KernelFamily
from .set_models import DeltaNet

DENSE_NET_CAP = 5000
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 200_000
DEFAULT_RESTARTS = 4
ENUM_BUDGET = 200_000_000      # lattice points an exhaustive search may visit
_ENUM_CHUNK_ROWS = 1 << 18     # bounds the rows held per enumerated block
_EQUAL_GAP_RTOL = 1e-12        # equal-gap test of the Toeplitz paths
PSD_JITTER = 1e-10             # diagonal shift of the Cholesky probe
PSD_PROBE_CAP = 1024           # factorization probe only below this size
_RESYNC_EVERY = 512            # refresh the cached gradient this often
_ROW_BLOCK = 256               # kernel rows assembled per evaluation
_SUM_TOL = 1e-12
_WSS_TAU = 1e-12               # curvature floor of the away-vertex score (LIBSVM's tau)


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


class ToeplitzKernel:
    """Symmetric Toeplitz kernel T_ij = col[|i - j|], held as one vector.

    Row i is the view full[n-1-i : 2n-1-i] of the (2n-1)-vector
    full = (col[n-1], ..., col[1], col[0], ..., col[n-1]).  T @ w is the
    head of a circulant product: T embeds in a circulant of a fast FFT
    length L >= 2n - 1, whose spectrum is transformed once here.  Rows,
    products, `shape` and the diagonal col[0] are all that `_frank_wolfe`
    reads of a kernel.  No n x n array is formed.
    """

    def __init__(self, col: np.ndarray):
        n = col.size
        self.col = col
        self.shape = (n, n)
        self._full = np.concatenate((col[:0:-1], col))
        self._fft_len = fft.next_fast_len(2 * n - 1, real=True)
        circulant = np.concatenate((col, np.zeros(self._fft_len - 2 * n + 1), col[:0:-1]))
        self._spectrum = fft.rfft(circulant)

    def __getitem__(self, i: int) -> np.ndarray:
        n = self.col.size
        return self._full[n - 1 - i:2 * n - 1 - i]

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        L = self._fft_len
        return fft.irfft(self._spectrum * fft.rfft(w, L), L)[:self.col.size]


@dataclass
class KernelMatrix:
    """Kernel matrix over a net, diagonal identically 1.

    `values` is a dense array (`build_kernel`) or, on equal-gap nets, a
    `ToeplitzKernel` (symmetric by construction).  A dense `values` must
    be exactly symmetric (A == A.T elementwise, as `build_kernel` writes
    it): the Frank-Wolfe update reads rows where it means columns, and
    `min_energy` raises ValueError otherwise.
    """

    values: np.ndarray | ToeplitzKernel
    points: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass
class EnergyResult:
    value: float
    weights: SimplexWeights
    duality_gap: float
    iterations: int
    restarts_used: int = 1
    status: str = "gap"              # how the best run ended: "gap", "stall" or "iters"
    start: str | None = None         # "minorant" or "uniform"; None if no iteration ran
    Z_lower: float | None = None     # certified lower bound on the minimum, if known

    @property
    def converged(self) -> bool:
        return self.status == "gap"

    def to_json_dict(self) -> dict:
        """Solver diagnostics of one rung, free of timings."""
        return {
            "n": int(self.weights.w.size),
            "Z": self.value,
            "Z_lower": self.Z_lower,
            "ratio": None if self.Z_lower is None else self.value / self.Z_lower,
            "duality_gap": self.duality_gap,
            "iterations": self.iterations,
            "restarts_used": self.restarts_used,
            "start": self.start,
            "converged": self.converged,
            "status": self.status,
        }


def _duality_bound(f: float, gap: float) -> float | None:
    """Z >= w'Kw - gap on a PSD kernel (convexity: Z >= f + min_v
    grad'(v - w) over the simplex); None unless positive."""
    return f - gap if f - gap > 0 else None


# ---------------------------------------------------------------------------
# kernel assembly
# ---------------------------------------------------------------------------

def build_kernel(family: KernelFamily, scale: float, net: DeltaNet) -> KernelMatrix:
    """Assemble K_ij = K_scale(|t_i - t_j|) densely over a net (`_assemble`).

    Quadrature and Monte Carlo ("exact") kernels are evaluated once per
    distinct distance of the net and looked up, which matters on regular
    and self-similar nets.
    """
    pts = net.points
    if pts.size > DENSE_NET_CAP:
        raise NetTooLarge(f"net has {pts.size} points, dense cap is {DENSE_NET_CAP}")
    kernel = lambda r: family.evaluate(scale, r)
    if family.kind == "exact":
        uniq = np.unique(np.abs(pts[:, None] - pts))
        table = family.evaluate(scale, uniq)
        kernel = lambda r: table[np.searchsorted(uniq, r)]
    return _assemble(kernel, pts, None)


def _assemble(kernel, pts: np.ndarray, dist) -> KernelMatrix:
    """K_ij = kernel(|t_i - t_j|), clipped to [0, 1] with unit diagonal: a
    `ToeplitzKernel` of kernel(dist) given the distances k h of an
    equal-gap net (`_grid_distances`), else dense, written in blocks of
    _ROW_BLOCK rows; K_ji comes from the same distance as K_ij, so K is
    exactly symmetric."""
    if dist is not None:
        col = np.clip(kernel(dist), 0.0, 1.0)
        col[0] = 1.0
        return KernelMatrix(ToeplitzKernel(col), pts.copy())
    K = np.empty((pts.size, pts.size))
    for i in range(0, pts.size, _ROW_BLOCK):
        K[i:i + _ROW_BLOCK] = kernel(np.abs(pts[i:i + _ROW_BLOCK, None] - pts))
    np.clip(K, 0.0, 1.0, out=K)
    np.fill_diagonal(K, 1.0)
    return KernelMatrix(K, pts.copy())


def is_psd(K: np.ndarray) -> bool:
    """Cholesky probe (with PSD_JITTER) for positive semidefiniteness.

    The jitter admits semidefinite matrices such as nearly-low-rank
    exponential kernels; genuinely indefinite kernels fail fast at the
    first negative leading minor.
    """
    A = np.array(K, dtype=float)
    A.flat[::A.shape[0] + 1] += PSD_JITTER
    try:
        np.linalg.cholesky(A)
        return True
    except np.linalg.LinAlgError:
        return False


# ---------------------------------------------------------------------------
# Frank-Wolfe minimization
# ---------------------------------------------------------------------------

def _frank_wolfe(K, w0: np.ndarray, tol: float, max_iter: int):
    """Frank-Wolfe with pairwise steps from w0.

    Each step moves mass from an away vertex aw on the support straight
    to the Frank-Wolfe vertex fw (argmin of the potential g, lowest index
    on ties), with exact line search along that segment; this is the
    pairwise variant, which converges linearly on simplex quadratics
    where the classical toward-vertex iteration zigzags.  The exit test
    is the classical Frank-Wolfe duality gap 2(w'Kw - min_i (Kw)_i) <=
    tol * w'Kw.

    aw maximizes the decrease of its own step (second-order working-set
    selection; Fan, Chen and Lin, JMLR 6, 2005), lowest index on ties:
    with delta_i = g_i - g_fw and c_i = K_ii + K_fw,fw - 2 K_fw,i, the
    step gamma_i = min(w_i, delta_i / max(c_i, tau)) lowers w'Kw by
    gamma_i (2 delta_i - gamma_i c_i).  LIBSVM's WSS2 drops the cap w_i;
    on fh kernels that empties the points within eps of fw (c_i <= 0)
    first, and left the C6 interval rungs at stationary points 0.4%
    higher.  Off the support the cap is 0, so those points score 0 like
    fw, with no mask, and a best score of 0 stalls below.

    Returns (w, f, gap, iterations, status) with status one of "gap"
    (convergence test met), "stall" (no movable descent direction; a
    stationary point of a nonconvex kernel), "iters" (budget exhausted).
    Directions are two-sparse, so the cached potential updates in O(n)
    per step with periodic resyncs against drift, and the scores cost
    O(n) from the row K[fw].  K is read only through rows K[i], the
    product K @ w, K.shape and its diagonal (col[0] of a
    `ToeplitzKernel`), so a dense array and a `ToeplitzKernel` both
    serve.  The update reads the contiguous rows K[fw] - K[aw] in place
    of the columns, so K must be exactly symmetric (`min_energy` checks
    dense arrays).
    """
    w = w0.copy()
    g = K @ w
    f = float(w @ g)
    gap = float("inf")
    diag = K.col.item(0) if isinstance(K, ToeplitzKernel) else K.diagonal()
    dbuf = np.empty_like(g)
    step = np.empty_like(g)
    score = np.empty_like(g)
    for it in range(1, max_iter + 1):
        fw = int(g.argmin())                     # lowest index on ties
        g_fw = g.item(fw)
        gap = 2.0 * (f - g_fw)
        if gap <= tol * max(f, 1e-300):
            return w, f, gap, it - 1, "gap"
        row_fw = K[fw]
        k_fwfw = row_fw.item(fw)
        np.multiply(row_fw, -2.0, out=dbuf)      # curvature c_i
        dbuf += diag
        dbuf += k_fwfw
        np.subtract(g, g_fw, out=score)          # delta_i
        np.maximum(dbuf, _WSS_TAU, out=step)
        np.divide(score, step, out=step)
        np.minimum(step, w, out=step)            # gamma_i
        dbuf *= step
        score *= 2.0
        score -= dbuf
        score *= step                            # gamma_i (2 delta_i - gamma_i c_i)
        aw = int(score.argmax())                 # lowest index on ties
        if aw == fw:
            return w, f, gap, it, "stall"
        # pairwise direction d = e_fw - e_aw, feasible for gamma <= w_aw
        dKw = g_fw - g.item(aw)
        if dKw >= 0:
            return w, f, gap, it, "stall"
        row_aw = K[aw]
        dKd = k_fwfw + row_aw.item(aw) - 2.0 * row_fw.item(aw)
        wa = w.item(aw)
        # exact line search on [0, wa]; along a concave direction,
        # descent means going to the boundary
        if dKd > 0:
            gamma = min(wa, max(0.0, -dKw / dKd))
        else:
            gamma = wa if 2 * wa * dKw + wa * wa * dKd < 0 else 0.0
        if gamma <= 0:
            return w, f, gap, it, "stall"
        if gamma >= wa * (1.0 - 1e-12):
            w[aw] = 0.0
        else:
            w[aw] -= gamma
        w[fw] += gamma
        np.subtract(row_fw, row_aw, out=dbuf)
        dbuf *= gamma
        g += dbuf
        f += 2.0 * gamma * dKw + gamma * gamma * dKd
        if it % _RESYNC_EVERY == 0:              # control incremental drift
            np.clip(w, 0.0, None, out=w)
            w /= w.sum()
            g = K @ w
            f = float(w @ g)
    return w, f, gap, max_iter, "iters"


def min_energy(K: KernelMatrix, tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER,
               restarts: int = DEFAULT_RESTARTS, seed: int = 0,
               minorant=None) -> EnergyResult:
    """Minimum energy Z over the probability simplex, with certificate.

    `minorant`, if given, is v = G^-1 1 for a positive definite G <= K
    (entrywise) on the net, as `_minorant_solve` returns it.  Then the
    first Frank-Wolfe run starts at v+/1'v+ (`start` "minorant") if that
    beats the uniform measure, so Z never exceeds the uniform energy;
    Z_lower = 1/1'v if every v_i > 0; and no probe runs.  Otherwise a
    kernel that passes the Cholesky probe (up to PSD_PROBE_CAP points)
    gets Z_lower = Z - gap when positive.  Z_lower is None otherwise.
    `restarts` is the most runs made: only a first run ending with
    "stall" is followed by restarts - 1 seeded Dirichlet starts, and the
    lowest-energy run is returned with its status.  Exponential kernels
    need no solve; see `exp_kernel_min_energy`.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")
    A = K.values
    n = A.shape[0]
    toeplitz = isinstance(A, ToeplitzKernel)
    if not toeplitz and not np.array_equal(A, A.T):
        raise ValueError("kernel matrix is not exactly symmetric")
    w0, label = np.full(n, 1.0 / n), "uniform"
    if minorant is None:
        psd = n <= PSD_PROBE_CAP and is_psd(linalg.toeplitz(A.col) if toeplitz else A)
    else:
        v = np.asarray(minorant, dtype=float)
        if v.shape != (n,) or not np.all(np.isfinite(v)) or not np.any(v > 0):
            raise ValueError("minorant must be finite on the net, with a positive entry")
        start = np.clip(v, 0.0, None)
        start /= start.sum()
        if float(start @ (A @ start)) < float(w0 @ (A @ w0)):
            w0, label = start, "minorant"
    runs = [_frank_wolfe(A, w0, tol, max_iter)]
    if runs[0][4] == "stall":
        rng = np.random.default_rng(seed)
        runs += [_frank_wolfe(A, rng.dirichlet(np.ones(n)), tol, max_iter)
                 for _ in range(restarts - 1)]
    w, f, _, iters, status = min(runs, key=lambda run: run[1])
    w = np.clip(w, 0.0, None)
    w /= w.sum()
    pot = A @ w
    f = float(w @ pot)
    gap = 2.0 * (f - float(pot.min()))
    if minorant is None:
        z_lower = _duality_bound(f, gap) if psd else None
    else:
        z_lower = 1.0 / float(v.sum()) if np.all(v > 0) else None
    return EnergyResult(value=f, weights=SimplexWeights(w, K.points),
                        duality_gap=gap, iterations=iters,
                        restarts_used=len(runs), status=status, start=label,
                        Z_lower=z_lower)


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
    the kernel is positive semidefinite, and reports w'Kw - gap as
    Z_lower.  Raises CertificateFailed when a weight is negative or the
    gap exceeds tol * w'Kw.
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
                        duality_gap=gap, iterations=0,
                        Z_lower=_duality_bound(f, gap))


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


def _grid_distances(points) -> np.ndarray | None:
    """Distances k h, k = 0..n-1, of an equal-gap net, or None.

    A net of n > 2 sorted points counts as equal-gap when every point
    lies within _EQUAL_GAP_RTOL * span of t_0 + k h, h = span / (n - 1)
    (interval nets: measured within 1.3e-16 on [0, 1]).  A kernel built
    from these exact distances is Toeplitz.  Its entries differ from
    those at the net's own distances by at most L * 2e-12 * span for a
    kernel with Lipschitz constant L in the distance (fh: s * 2e-12 *
    span / eps relative); on interval nets of [0, 1] the measured fh
    difference is below 3e-14.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.size
    if n <= 2:
        return None
    span = pts[-1] - pts[0]
    dist = span / (n - 1) * np.arange(n)
    if np.max(np.abs(pts - pts[0] - dist)) <= _EQUAL_GAP_RTOL * span:
        return dist
    return None


def _convex_minorant(family: KernelFamily, scale: float, r) -> np.ndarray:
    """g(r), the greatest convex minorant of a power-law kernel on r >= 0
    (module docstring); the power law is evaluated only at r > eps."""
    s, eps = family.power_law(scale)
    r_star = eps * (1.0 + s) ** (1.0 / s)
    g = family.evaluate(scale, r)
    near = r <= r_star
    g[near] = 1.0 - s / ((1.0 + s) * r_star) * r[near]
    return g


def _minorant_solve(G) -> np.ndarray | None:
    """v = G^-1 1 for a positive definite `ToeplitzKernel` (Levinson, O(n)
    memory) or dense G (Cholesky in place on G.T, the same matrix in
    Fortran order), or None when the solve fails."""
    ones = np.ones(G.shape[0])
    try:
        if isinstance(G, ToeplitzKernel):
            v = linalg.solve_toeplitz(G.col, ones, check_finite=False)
        else:
            v = linalg.cho_solve(linalg.cho_factor(G.T, overwrite_a=True,
                                                   check_finite=False),
                                 ones, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    return v if np.all(np.isfinite(v)) else None


def rung_min_energy(family: KernelFamily, scale: float, net: DeltaNet,
                    tol: float = DEFAULT_TOL, **solver_kw) -> EnergyResult:
    """Minimum energy of one family at one scale over a net, passing
    `solver_kw` (restarts, seed, max_iter) to `min_energy`.

    Nets above DENSE_NET_CAP points raise NetTooLarge before any solve.
    Each kernel is Toeplitz on equal-gap nets (`_grid_distances`) and
    dense otherwise.  Power-law rungs first solve their convex minorant g
    (1 - m r up to r* = eps (1+s)^(1/s), the power law beyond) exactly,
    free it, and hand v = G^-1 1 to `min_energy` as its `minorant`: when
    every v_i > 0, Z_lower = 1/1'v satisfies Z_lower <= Z <= R(s) Z_lower
    up to rounding.  Other rungs, and a minorant solve that fails, are
    probed like a caller's matrix.
    """
    pts = net.points
    if pts.size > DENSE_NET_CAP:
        raise NetTooLarge(f"net has {pts.size} points, dense cap is {DENSE_NET_CAP}")
    dist = _grid_distances(pts)
    v = None
    if family.power_law(scale) is not None:
        v = _minorant_solve(_assemble(lambda r: _convex_minorant(family, scale, r),
                                      pts, dist).values)
    K = (build_kernel(family, scale, net) if dist is None
         else _assemble(lambda r: family.evaluate(scale, r), pts, dist))
    return min_energy(K, tol=tol, minorant=v, **solver_kw)


# ---------------------------------------------------------------------------
# independent oracle: exhaustive lattice search
# ---------------------------------------------------------------------------

def _composition_count(total: int, parts: int) -> int:
    return math.comb(total + parts - 1, parts - 1)


def _compositions(total: int, parts: int, prefix: tuple = ()):
    """Yield integer blocks whose rows are the compositions of `total` into
    `parts` nonnegative parts, each row once, every row led by `prefix`.

    A block is built level by level: each row with r mass left becomes
    r + 1 rows taking 0..r of it.  Leading counts are split off only while
    the block would exceed _ENUM_CHUNK_ROWS rows.
    """
    if parts > 1 and _composition_count(total, parts) > _ENUM_CHUNK_ROWS:
        for first in range(total + 1):
            yield from _compositions(total - first, parts - 1, prefix + (first,))
        return
    cols: list[np.ndarray] = []
    left = np.array([total])
    for _ in range(parts - 1):
        reps = left + 1
        take = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        cols = [np.repeat(c, reps) for c in cols] + [take]
        left = np.repeat(left, reps) - take
    block = np.empty((left.size, len(prefix) + parts), dtype=left.dtype)
    block[:, :len(prefix)] = prefix
    for k, c in enumerate(cols + [left], start=len(prefix)):
        block[:, k] = c
    yield block


def min_energy_bruteforce(K: KernelMatrix,
                          resolution: float = 1.0 / 200.0) -> float:
    """Exhaustive minimum of w'Kw over the lattice simplex {m/R : sum m = R}.

    Independent of the Frank-Wolfe path.  With entries in [0, 1] the value
    is within Lipschitz * resolution of the lattice-free minimum (and much
    closer in practice, since the objective is flat at a minimizer).
    Raises ValueError unless 0 < resolution <= 1, and TooLarge when the
    lattice exceeds ENUM_BUDGET points.

    The first n - 2 counts and the mass t left for the last two points are
    enumerated as m = (prefix, 0, t), and each block of them costs one
    product AM = M A: Q(m) = m'Am is the row-wise dot of AM and M, and
    d'Am = AM[:, n-2] - AM[:, n-1] with d = e_{n-2} - e_{n-1}.  The split
    (x, t - x) of the last mass is then the closed form
    Q(m + x d) = Q(m) + x (2 d'Am + x d'Ad), whose integer minimum over
    [0, t] lies at floor or floor + 1 of its vertex when d'Ad > 0 and at an
    end of the edge otherwise.  So two points per edge are evaluated
    instead of t + 1, the minimum is the same, and it is divided by R^2
    once.
    """
    if not 0 < resolution <= 1:
        raise ValueError(f"resolution must be in (0, 1], got {resolution}")
    A = K.values
    n = A.shape[0]
    if n > 8:
        raise TooLarge("bruteforce oracle is limited to n <= 8")
    R = int(round(1.0 / resolution))
    count = _composition_count(R, n)
    if count > ENUM_BUDGET:
        raise TooLarge(f"{count} lattice points exceed budget {ENUM_BUDGET}; "
                       "pass a coarser resolution")
    if n == 1:
        return float(A[0, 0])
    curv = float(A[n - 2, n - 2] - 2.0 * A[n - 2, n - 1] + A[n - 1, n - 1])  # d'A d
    best = np.inf
    for block in _compositions(R, n - 1):
        M = np.zeros((block.shape[0], n))
        M[:, :n - 2] = block[:, :-1]
        M[:, n - 1] = block[:, -1]
        t = M[:, n - 1]
        AM = M @ A
        q = np.einsum("ij,ij->i", AM, M)
        slope = AM[:, n - 2] - AM[:, n - 1]
        if curv > 0.0:
            x = np.floor(-slope / curv)
            splits = (np.clip(x, 0.0, t), np.clip(x + 1.0, 0.0, t))
        else:
            splits = (0.0, t)
        for x in splits:
            best = min(best, float((q + x * (2.0 * slope + x * curv)).min()))
    return best / (R * R)


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

