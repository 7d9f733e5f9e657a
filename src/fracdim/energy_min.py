"""Minimum kernel energies over discrete probability measures.

The discrete surrogate of the minimum-energy problem is

    Z = min { w' K w : w >= 0, sum w = 1 },    K_ij = K_scale(|t_i - t_j|).

Exponential kernels exp(-a|t_i - t_j|) have an exact O(n) minimizer
(`exp_kernel_min_energy`): the kernel is a Markov covariance, so no
matrix is formed and no iteration runs.  Every other kernel is solved by
pairwise Frank-Wolfe over the simplex (mass moves from an away vertex on
the support to the Frank-Wolfe vertex, so positive semidefinite kernels
converge linearly instead of zigzagging).  A net whose set gives it an
equal-step grid (`DeltaNet.grid`: interval nets, and IFS nets with
digits) gets a `ToeplitzKernel`: one vector of the kernel's values on
the grid, whose rows are slices or gathers and whose products are FFTs,
so no n x n kernel is formed.  Other nets, and grids too sparse in net
points to save memory (`_grid_layout`), are dense.  `_frank_wolfe`
states its oracle, away-vertex score and the status a run ends with
("gap", "stall" or "iters"); a solve always returns, and only a stall
is followed by seeded restarts.  `min_energy` alone sets each result's
one certificate Z_lower <= Z, or None (`_gap_certificate`), from a
minorant the caller hands in or from a kernel that factors, and so is
its own minorant (`_minorant_solve`, the one Cholesky routine).

Kernel values come from `KernelFamily` alone.  `rung_min_energy` starts
a power-law rung at the minimizer of its convex minorant g <= K <=
R(s) g, which certifies Z_lower <= Z <= R(s) Z_lower, or a self-similar
ladder's rung at the previous rung's weights (`_warm_start`).  A rung
raises NetTooLarge before it allocates the bytes it states above
MEMORY_BUDGET (`_assemble`, `exp_kernel_min_energy`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft, linalg
from scipy.linalg import blas

from .errors import CertificateFailed, NetTooLarge, TooLarge
from .process_models import KernelFamily
from .set_models import DeltaNet
from .utils import check_budget

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 200_000
DEFAULT_RESTARTS = 4
ENUM_BUDGET = 200_000_000      # lattice points an exhaustive search may visit
_ENUM_CHUNK_ROWS = 1 << 18     # bounds the rows held per enumerated block
_GRID_FLOATS = 16              # floats per grid point a grid rung holds (traced: 5-13.4)
_NET_FLOATS = 10               # and per net point (whole grids trace 25.1 in all)
PSD_PROBE_CAP = 1024           # bounds time, not memory: largest kernel factored with no minorant
_PCG_BLOCK = 1024              # bounds time, not memory: largest block block PCG factors
_PCG_MAX_ITER = 50
_PCG_RTOL = 1e-13              # max |1 - Gv| at which block PCG stops
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
        if not np.all(self.w >= 0):              # a NaN weight fails too
            raise ValueError("weights must be nonnegative")
        if not abs(self.w.sum() - 1.0) <= _SUM_TOL:
            raise ValueError(f"weights sum to {self.w.sum()!r}, not 1")

    @classmethod
    def uniform(cls, points) -> "SimplexWeights":
        points = np.asarray(points, dtype=float)
        return cls(np.full(points.size, 1.0 / points.size), points)


class ToeplitzKernel:
    """Kernel K_ij = col[|m_i - m_j|] of net points t_0 + m_i h on an
    equal-step grid of N points, held as one vector.

    full = (col[N-1], ..., col[1], col[0], ..., col[N-1]) holds every value
    the kernel takes, and row i is full[N-1-m_i+m], read through
    `select(i)`: a view full[n-1-i : 2n-1-i] when the net is the whole
    grid (`index` None, a symmetric Toeplitz matrix), else a gather.
    K @ w scatters w onto the grid and takes the head of a circulant
    product: the grid's Toeplitz matrix embeds in a circulant of a fast
    FFT length L >= 2N - 1, whose spectrum is transformed once here.
    Rows, products, `shape` and the diagonal col[0] are all that
    `_frank_wolfe` reads of a kernel.  K_ij and K_ji are the same entry
    of `full`, so K is exactly symmetric, and no n x n array is formed
    except by `dense`.
    """

    def __init__(self, col: np.ndarray, index: np.ndarray | None = None):
        N = col.size
        self.index = index
        n = N if index is None else index.size
        self.shape = (n, n)
        self.full = np.concatenate((col[:0:-1], col))
        self.col = self.full[N - 1:]
        self._base = N - 1 + (np.arange(N) if index is None else index)
        self._fft_len = fft.next_fast_len(2 * N - 1, real=True)
        circulant = np.concatenate((col, np.zeros(self._fft_len - 2 * N + 1), col[:0:-1]))
        self._spectrum = fft.rfft(circulant)

    def select(self, i: int):
        """Where row i lies in a (2N-1)-vector laid out like `full`: a
        slice on a whole grid, else an index array."""
        if self.index is None:
            N = self.col.size
            return slice(N - 1 - i, 2 * N - 1 - i)
        return self._base - self.index.item(i)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.full[self.select(i)]

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        L = self._fft_len
        if self.index is None:
            return fft.irfft(self._spectrum * fft.rfft(w, L), L)[:self.col.size]
        u = np.zeros(L)
        u[self.index] = w
        return fft.irfft(self._spectrum * fft.rfft(u), L)[self.index]

    def dense(self, size: int | None = None) -> np.ndarray:
        """The leading size x size block (the n x n matrix by default),
        gathered row by row into it, so that no block of indices or
        values is held beside it; NetTooLarge above MEMORY_BUDGET."""
        n = self.shape[0] if size is None else size
        check_budget(f"gathered {n} x {n} kernel", 8 * n * n, NetTooLarge)
        base = self._base[:n]
        m = base - (self.col.size - 1)
        A = np.empty((n, n))
        idx = np.empty(n, dtype=np.intp)
        for i in range(n):
            np.subtract(base, m.item(i), out=idx)
            np.take(self.full, idx, out=A[i])
        return A


@dataclass
class KernelMatrix:
    """Kernel matrix over a net.

    `values` is a dense array or, on nets that record an equal-step
    grid (`_grid_layout`), a `ToeplitzKernel` (symmetric by
    construction, so never scanned); `_assemble` lays out both.  A
    caller's dense array is used as given: Frank-Wolfe reads its
    diagonal, and it must be exactly symmetric (A == A.T elementwise, as
    `_assemble` writes it), since the update reads rows where it means
    columns;
    `min_energy` scans it and raises ValueError otherwise.
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
    start: str | None = None         # "uniform", "minorant" or "warm"; None if no iteration ran
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


def _gap_certificate(u: np.ndarray, Gu: np.ndarray):
    """(f, gap, bound) for any vector u and its product Gu with a PSD G:
    f = u'Gu, gap = 2(f - m) with m = min_i (Gu)_i clamped at f (the
    duality gap when u is on the simplex), and bound = m (m / f) if
    m > 0, else None.  For w on the simplex w'Gu >= m, so for t > 0
    0 <= (w - tu)'G(w - tu) <= w'Gw - 2tm + t^2 f; t = m/f gives
    w'Gw >= m^2 / f, a bound on the minimum of any K >= G entrywise
    that needs no exact solve.  Any 0 < m' <= m bounds too, so the
    clamp keeps it valid, and keeps it <= f on the simplex, where
    m <= f but for rounding.  While m <= f the bound does not change
    when u is scaled; at u = G^-1 1 that holds when G's minimum is at
    most 1 (every kernel here is 1 at distance 0), and the bound is
    1/1'u.  On the simplex it is f - gap + (f - m)^2 / f."""
    f = float(u @ Gu)
    m = min(f, float(Gu.min()))              # NaN in f propagates
    return f, 2.0 * (f - m), (m * (m / f) if m > 0 else None)


# ---------------------------------------------------------------------------
# kernel assembly
# ---------------------------------------------------------------------------

def build_kernel(family: KernelFamily, scale: float, net: DeltaNet) -> KernelMatrix:
    """K_ij = K_scale(|t_i - t_j|) as a dense matrix over a net: `_assemble`
    with no grid, so one budget check and one distinct-distance rule hold
    here as on a rung.  The dense reference of the grid route; no rung
    calls it."""
    return _assemble(lambda r: family.evaluate(scale, r), net.points, None,
                     distinct=family.kind == "exact")


def _distinct_gaps(x: np.ndarray) -> np.ndarray:
    """The sorted distinct |x_i - x_j|, gathered _ROW_BLOCK rows at a time
    so that no n x n array is held."""
    gaps = np.empty(0, dtype=x.dtype)
    for i in range(0, x.size, _ROW_BLOCK):
        gaps = np.union1d(gaps, np.abs(x[i:i + _ROW_BLOCK, None] - x))
    return gaps


def _kernel_bytes(n: int, N: int | None = None) -> int:
    """Bytes of a kernel on n points: dense, or on a grid of N points."""
    return 8 * n * n if N is None else 8 * _GRID_FLOATS * N


def _assemble(kernel, pts: np.ndarray, grid, distinct: bool = False) -> KernelMatrix:
    """K_ij = kernel(|t_i - t_j|) over a net, laid out as the kernel
    returns it: given the layout (h, N, m) of the grid a net records
    (`_grid_layout`), a `ToeplitzKernel` of kernel(k h), k < N, so no
    n x n array is formed; else dense, written in blocks of _ROW_BLOCK
    rows.  Either way K_ji and K_ij share a distance: K is exactly symmetric.

    NetTooLarge, before the kernel is called, when the rung would hold
    more than MEMORY_BUDGET (traced): `_kernel_bytes`; per point, three
    blocks of _ROW_BLOCK rows in assembly on a dense net, else
    _NET_FLOATS of the solve's vectors; and 8 k^2 for the largest matrix
    factored beside it, k = b on a grid subset block PCG solves
    (`_pcg_block`), n on another or on up to PSD_PROBE_CAP points, else 0.

    With `distinct` (quadrature and Monte Carlo families) the kernel is
    called once, on the sorted distinct distances the net uses
    (`_distinct_gaps`): of the grid index on a grid subset, whose unused
    steps are 0 and never read, and of the points on a dense net, whose
    entries are looked up.  A whole grid uses every step as it is."""
    n, index = pts.size, grid and grid[2]
    side = n * (n <= PSD_PROBE_CAP) if index is None else (_pcg_block(index) or n)
    held = _kernel_bytes(n, grid and grid[1]) + 8 * side ** 2
    held += 8 * n * (3 * _ROW_BLOCK if grid is None else _NET_FLOATS)
    check_budget(f"{'grid' if grid else 'dense'} rung on {n} points", held, NetTooLarge)
    if grid is not None:
        h, N, index = grid
        dist = h * np.arange(N)
        if distinct and index is not None:
            steps = _distinct_gaps(index)
            col = np.zeros(N)
            col[steps] = kernel(dist[steps])
        else:
            col = kernel(dist)
        return KernelMatrix(ToeplitzKernel(col, index), pts)
    if distinct:
        uniq = _distinct_gaps(pts)
        table = kernel(uniq)
        kernel = lambda r: table[np.searchsorted(uniq, r)]
    K = np.empty((pts.size, pts.size))
    for i in range(0, pts.size, _ROW_BLOCK):
        K[i:i + _ROW_BLOCK] = kernel(np.abs(pts[i:i + _ROW_BLOCK, None] - pts))
    return KernelMatrix(K, pts)


def is_psd(K: np.ndarray) -> bool:
    """Whether K is positive definite: `_minorant_solve` factors a copy."""
    return _minorant_solve(np.array(K, dtype=float)) is not None


# ---------------------------------------------------------------------------
# Frank-Wolfe minimization
# ---------------------------------------------------------------------------

def _frank_wolfe(K, w0: np.ndarray, tol: float, max_iter: int):
    """Frank-Wolfe with pairwise steps from w0.

    Each step moves mass from an away vertex aw on the support straight
    to the Frank-Wolfe vertex fw (argmin of the potential g, lowest index
    on ties); this is the pairwise variant, which converges linearly on
    simplex quadratics where the classical toward-vertex iteration
    zigzags.  The exit test is the classical Frank-Wolfe duality gap
    2(w'Kw - min_i (Kw)_i) <= tol * w'Kw.

    aw maximizes the decrease of its own step (second-order working-set
    selection; Fan, Chen and Lin, JMLR 6, 2005), lowest index on ties:
    with delta_i = g_i - g_fw and c_i = K_ii + K_fw,fw - 2 K_fw,i, the
    step gamma_i = min(w_i, delta_i / max(c_i, tau)) lowers w'Kw by
    exactly gamma_i (2 delta_i - gamma_i c_i).  That score is the line
    search: the loop moves gamma_aw (the exact minimizer on [0, w_aw]
    wherever c_aw > tau) and lowers f by the best score.  LIBSVM's WSS2
    drops the cap w_i; on fh kernels that empties the points within eps
    of fw (c_i <= 0) first, and left the C6 interval rungs at stationary
    points 0.4% higher.  Off the support the cap is 0, so those points
    score 0 like fw, with no mask.  One test stalls: a best score that
    is not positive (NaN included), which holds exactly when aw = fw,
    delta_aw = 0 or the step is empty.

    Returns (w, f, gap, iterations, status) with status one of "gap"
    (convergence test met), "stall" (no movable descent direction; a
    stationary point of a nonconvex kernel), "iters" (budget exhausted).
    Directions are two-sparse, so the cached potential updates in O(n)
    per step with periodic resyncs against drift, and the scores cost
    O(n) from the row K[fw].  K is read only through rows K[i], the
    product K @ w, K.shape and its diagonal, so a dense array and a
    `ToeplitzKernel` both serve.  On a `ToeplitzKernel` the diagonal is
    col[0] = K_fw,fw, so c_i is row fw of the one vector
    (-2 full + col[0]) + col[0], built once per run with its floor
    max(c, tau) and read like K[fw] (`select`), with the arithmetic of
    the per-step curvature of a dense K.  The update reads the rows
    K[fw] - K[aw] in place of the columns, so K must be exactly
    symmetric (`min_energy` checks dense arrays).
    """
    w = w0.copy()
    g = K @ w
    f = float(w @ g)
    gap = float("inf")
    toeplitz = isinstance(K, ToeplitzKernel)
    if toeplitz:
        k00 = K.col.item(0)
        curv_all = K.full * -2.0
        curv_all += k00
        curv_all += k00
        floor_all = np.maximum(curv_all, _WSS_TAU)
    else:
        diag = K.diagonal()
        curv = np.empty_like(g)
        floor = np.empty_like(g)
    dbuf = np.empty_like(g)
    step = np.empty_like(g)
    score = np.empty_like(g)
    for it in range(1, max_iter + 1):
        fw = int(g.argmin())                     # lowest index on ties
        g_fw = g.item(fw)
        gap = 2.0 * (f - g_fw)
        if gap <= tol * max(f, 1e-300):
            return w, f, gap, it - 1, "gap"
        if toeplitz:
            sel = K.select(fw)
            row_fw, curv, floor = K.full[sel], curv_all[sel], floor_all[sel]
        else:
            row_fw = K[fw]
            np.multiply(row_fw, -2.0, out=curv)  # curvature c_i
            curv += diag
            curv += row_fw.item(fw)
            np.maximum(curv, _WSS_TAU, out=floor)
        np.subtract(g, g_fw, out=score)          # delta_i
        np.divide(score, floor, out=step)
        np.minimum(step, w, out=step)            # gamma_i
        np.multiply(curv, step, out=dbuf)
        score *= 2.0
        score -= dbuf
        score *= step                            # gamma_i (2 delta_i - gamma_i c_i)
        aw = int(score.argmax())                 # lowest index on ties
        decrease = score.item(aw)
        if not decrease > 0:                     # a NaN score stalls too
            return w, f, gap, it, "stall"
        # pairwise step gamma along d = e_fw - e_aw, feasible for gamma <= w_aw
        gamma = step.item(aw)
        if gamma >= w.item(aw) * (1.0 - 1e-12):
            w[aw] = 0.0
        else:
            w[aw] -= gamma
        w[fw] += gamma
        np.subtract(row_fw, K[aw], out=dbuf)
        dbuf *= gamma
        g += dbuf
        f -= decrease
        if it % _RESYNC_EVERY == 0:              # control incremental drift
            w /= w.sum()
            g = K @ w
            f = float(w @ g)
    return w, f, gap, max_iter, "iters"


def min_energy(K: KernelMatrix, tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER,
               restarts: int = DEFAULT_RESTARTS, seed: int = 0,
               minorant=None, warm=None) -> EnergyResult:
    """Minimum energy Z over the probability simplex, with certificate.

    `minorant`, if given, is (v, Gv) for a positive semidefinite G <= K
    (entrywise) on the net, as `_minorant_solve` returns it, and
    Z_lower is `_gap_certificate`'s bound from it, however inexact v
    is.  Else K, up to PSD_PROBE_CAP points, is its own if Cholesky of
    its dense matrix (never Levinson, which tests no definiteness)
    gives v = K^-1 1, and Z_lower is the bound from (w, Kw) at the
    returned w.  Either way the first run starts at v+/1'v+ (`start`
    "minorant") if that beats the uniform measure, so Z never exceeds
    the uniform energy.  Z_lower is None otherwise.  `warm`, if given, is
    one more first start on the net (nonnegative, normalized here),
    reported as "warm" when its energy is the lowest of the three; ties
    go to uniform, then minorant.
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
    if not toeplitz and not all(np.array_equal(A[i:i + _ROW_BLOCK], A[:, i:i + _ROW_BLOCK].T)
                                for i in range(0, n, _ROW_BLOCK)):
        raise ValueError("kernel matrix is not exactly symmetric")
    if minorant is None:                     # K is its own, if it factors
        own = (_minorant_solve(A.dense() if toeplitz else np.array(A, dtype=float))
               if n <= PSD_PROBE_CAP else None)
        v = None if own is None else own[0]
    else:
        v, gv = (np.asarray(x, dtype=float) for x in minorant)
        if not (v.shape == gv.shape == (n,) and np.all(np.isfinite(v))
                and np.all(np.isfinite(gv)) and np.any(v > 0)):
            raise ValueError("minorant must be (v, Gv), finite on the net, with a positive entry")
    starts = [(np.full(n, 1.0 / n), "uniform")]
    if v is not None and np.any(v > 0):
        starts.append((np.clip(v, 0.0, None), "minorant"))
    if warm is not None:
        warm = np.array(warm, dtype=float)
        if not (warm.shape == (n,) and np.all(warm >= 0) and np.all(np.isfinite(warm))
                and warm.sum() > 0):
            raise ValueError("warm start must be finite and nonnegative on the net, "
                             "with a positive entry")
        starts.append((warm, "warm"))
    for start, _ in starts[1:]:
        start /= start.sum()
    w0, label = min(starts, key=lambda st: float(st[0] @ (A @ st[0])))   # first on ties
    runs = [_frank_wolfe(A, w0, tol, max_iter)]
    if runs[0][4] == "stall":
        rng = np.random.default_rng(seed)
        runs += [_frank_wolfe(A, rng.dirichlet(np.ones(n)), tol, max_iter)
                 for _ in range(restarts - 1)]
    w, f, _, iters, status = min(runs, key=lambda run: run[1])
    w /= w.sum()
    f, gap, bound = _gap_certificate(w, A @ w)
    cert = bound if minorant is None else _gap_certificate(v, gv)[2]
    return EnergyResult(value=f, weights=SimplexWeights(w, K.points),
                        duality_gap=gap, iterations=iters,
                        restarts_used=len(runs), status=status, start=label,
                        Z_lower=None if v is None else cert)


# ---------------------------------------------------------------------------
# exponential kernels: exact minimizer in O(n)
# ---------------------------------------------------------------------------

def _exp_potential(pts: np.ndarray, a: float, w) -> np.ndarray:
    """Potential (Kw)_i for K_ij = exp(-a|t_i - t_j|) on sorted points, in O(n).

    With rho_i = exp(-a (t_{i+1} - t_i)), the one-sided sums
    F_i = sum_{j <= i} K_ij w_j and B_i = sum_{j >= i} K_ij w_j obey
    F_i = w_i + rho_{i-1} F_{i-1} and B_i = w_i + rho_i B_{i+1}, so
    Kw = F + B - w without forming K.
    """
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


def _exp_certificate(pts: np.ndarray, a: float, w, tol: float) -> EnergyResult:
    """Certify weights w on sorted points for the exponential kernel:
    gap and Z_lower are `_gap_certificate`'s from (w, `_exp_potential`).
    Raises CertificateFailed when a weight is negative or the gap
    exceeds tol * w'Kw."""
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    w = np.asarray(w, dtype=float)
    if np.any(w < 0):
        raise CertificateFailed(f"negative weight {float(w.min())!r}")
    f, gap, bound = _gap_certificate(w, _exp_potential(pts, a, w))
    if not gap <= tol * f:
        raise CertificateFailed(
            f"duality gap {gap:.3e} exceeds {tol:g} * Z = {tol * f:.3e} "
            f"on {pts.size} points")
    return EnergyResult(value=f, weights=SimplexWeights(w, pts),
                        duality_gap=gap, iterations=0, Z_lower=bound)


def exp_kernel_min_energy(points, a: float,
                          tol: float = DEFAULT_TOL) -> EnergyResult:
    """Exact minimum energy of K_ij = exp(-a|t_i - t_j|), a >= 0, on sorted
    points, in O(n) time and 168 bytes a point (NetTooLarge above MEMORY_BUDGET).

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

    The returned w is certified by `_exp_certificate`, which does not
    use this formula; the result reports 0 iterations and one start.
    """
    if not (math.isfinite(a) and a >= 0):
        raise ValueError(f"kernel rate must be finite and >= 0, got {a!r}")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or pts.size == 0:
        raise ValueError("need a nonempty 1-d array of points")
    check_budget(f"exponential rung on {pts.size} points", 168 * pts.size, NetTooLarge)
    if np.any(np.diff(pts) < 0):
        raise ValueError("points must be sorted")
    tau = np.concatenate(([1.0], np.tanh(0.5 * a * np.diff(pts)), [1.0]))
    v = 0.5 * (tau[:-1] + tau[1:])
    return _exp_certificate(pts, a, v / v.sum(), tol)


def _grid_layout(net: DeltaNet):
    """(h, N, m) of the grid a net records (`DeltaNet.grid`): its step, its
    N points and the net's index m, or None: a net with no grid, or a
    grid subset whose grid kernel would hold more bytes than the dense
    one (`_kernel_bytes`, which `_assemble` checks against the budget:
    _GRID_FLOATS N > n^2).  So Cantor nets of ratio 1/3 (n^2 / N from
    16.8 at depth 5 up) use their grid and those of ratio 1/4
    (n^2 / N = 4) stay dense."""
    if net.grid is None:
        return None
    _, h, m = net.grid
    N = net.n if m is None else int(m[-1]) + 1
    fits = m is None or _kernel_bytes(net.n, N) <= _kernel_bytes(net.n)
    return (h, N, m) if fits else None


def _translate_blocks(m: np.ndarray, lead: np.ndarray) -> bool:
    """Whether the index m splits into consecutive blocks of lead.size
    points, each lead moved by an integer.  On a grid kernel, whose
    entries depend only on m_i - m_j, every diagonal block of such an
    index is then the leading block's matrix exactly."""
    if m.size % lead.size:
        return False
    blocks = m.reshape(-1, lead.size)
    return np.array_equal(blocks - blocks[:, :1], np.broadcast_to(lead - lead[0], blocks.shape))


def _pcg_block(index: np.ndarray) -> int | None:
    """Block PCG's block size on a grid subset's index of more than
    _PCG_BLOCK points: the largest b in (_PCG_BLOCK / 2, _PCG_BLOCK] whose
    blocks translate the leading one (`_translate_blocks`), or None."""
    if index is None or index.size <= _PCG_BLOCK:
        return None
    return next((b for b in range(_PCG_BLOCK, _PCG_BLOCK // 2, -1)
                 if _translate_blocks(index, index[:b])), None)


def _block_pcg(G, ones: np.ndarray):
    """(v, Gv), v = G^-1 1, by conjugate gradients on G's FFT product,
    preconditioned by G's diagonal blocks (block Jacobi; Concus, Golub
    and Meurant 1985), or None.  In scope is a `ToeplitzKernel` grid
    subset with a block size b (`_pcg_block`): its diagonal blocks are
    then all one matrix, Cholesky-factored once in place, and each
    preconditioning is one triangular solve with n / b right-hand
    sides.  The run stops once max |1 - Gv| <= _PCG_RTOL, and
    Gv is then a fresh product; None too when _PCG_MAX_ITER iterations
    do not reach it.  LinAlgError when the block does not factor, or a
    step finds p'Gp <= 0: G is not positive definite."""
    n = G.shape[0]
    b = _pcg_block(G.index) if isinstance(G, ToeplitzKernel) else None
    if b is None:
        return None
    factor = linalg.cho_factor(G.dense(b).T, overwrite_a=True, check_finite=False)

    def precondition(r):
        return linalg.cho_solve(factor, r.reshape(-1, b).T, check_finite=False).T.ravel()

    v, gv, r = np.zeros(n), np.zeros(n), ones.copy()
    p = rz = None
    for _ in range(_PCG_MAX_ITER):
        z = precondition(r)
        rz, rz_prev = float(r @ z), rz
        p = z if p is None else z + (rz / rz_prev) * p
        gp = G @ p
        pgp = float(p @ gp)
        if not pgp > 0:
            raise np.linalg.LinAlgError("minorant is not positive definite")
        alpha = rz / pgp
        v += alpha * p
        gv += alpha * gp
        r = ones - gv
        if np.max(np.abs(r)) <= _PCG_RTOL:        # confirmed on a fresh product
            gv = G @ v
            r = ones - gv
            if np.max(np.abs(r)) <= _PCG_RTOL:
                return v, gv
    return None


def _minorant_solve(G):
    """(v, Gv), v = G^-1 1, for a positive definite G, or None when the
    solve fails or is not finite.  Three routes: Levinson (O(n) memory,
    no test of definiteness) and an FFT product on a `ToeplitzKernel` of
    a whole grid; block PCG (`_block_pcg`, which tests definiteness only
    on its block and its steps) on a grid subset in its scope
    (`_pcg_block`); else Cholesky in place on G.T (the same matrix in
    Fortran order; a dense G is overwritten by its factor U) of G or of
    a grid subset's gathered matrix (`ToeplitzKernel.dense`, within the
    budget), and Gv = U'(Uv).  Gv is computed, not taken to be 1, so
    its bound holds however inexact v is."""
    ones = np.ones(G.shape[0])
    try:
        if isinstance(G, ToeplitzKernel) and G.index is None:
            v = linalg.solve_toeplitz(G.col, ones, check_finite=False)
            gv = G @ v
        elif (solved := _block_pcg(G, ones)) is not None:
            v, gv = solved
        else:
            A = G.dense() if isinstance(G, ToeplitzKernel) else G
            U, lower = linalg.cho_factor(A.T, overwrite_a=True, check_finite=False)
            v = linalg.cho_solve((U, lower), ones, check_finite=False)
            gv = blas.dtrmv(U, blas.dtrmv(U, v, lower=lower), lower=lower, trans=1)
    except np.linalg.LinAlgError:
        return None
    return (v, gv) if np.all(np.isfinite(v)) and np.all(np.isfinite(gv)) else None


def _warm_start(net: DeltaNet, prev):
    """tile(w_prev) / M when the net's grid index is M >= 2 blocks, each
    the previous rung's index moved by an integer (`_translate_blocks`),
    else None.  prev is (net, EnergyResult) of the previous rung, or
    None.  An IFS net with digits at depth k + 1 is the union of the
    depth-k index moved by e_i q^k, so consecutive rungs of its ladder
    qualify; whole grids (interval nets) and repeated nets never do."""
    if prev is None or net.grid is None or prev[0].grid is None:
        return None
    m, m_prev = net.grid[2], prev[0].grid[2]
    if m is None or m_prev is None or m.size <= m_prev.size or not _translate_blocks(m, m_prev):
        return None
    M = m.size // m_prev.size
    return np.tile(prev[1].weights.w, M) / M


def rung_min_energy(family: KernelFamily, scale: float, net: DeltaNet,
                    tol: float = DEFAULT_TOL, prev=None, **solver_kw) -> EnergyResult:
    """Minimum energy of one family at one scale over a net, passing
    `solver_kw` (restarts, seed, max_iter) to `min_energy`.  `prev` is
    the previous ladder rung's (net, EnergyResult), or None; when the
    net is copies of it, `min_energy` also tries the start `_warm_start`
    builds from its weights.

    The kernel, and a power-law rung's convex minorant g, are laid out by
    `_assemble`, which raises NetTooLarge before any solve above
    MEMORY_BUDGET: a `ToeplitzKernel` on the grid the net's set gives it
    (`_grid_layout`), with no n x n kernel, and dense otherwise; a
    quadrature or Monte Carlo family is evaluated once per distinct
    distance the net uses.  Power-law rungs (ValueError if eps is out of
    range) first solve g (`_minorant_solve`), free it, and hand (v, Gv)
    to `min_energy` as its `minorant`: Z_lower = (min_i (Gv)_i)^2 / v'Gv,
    g's minimum 1/1'v when v = G^-1 1 exactly, so Z_lower <= Z <= R(s)
    Z_lower.  Other rungs, and a minorant solve that fails, are factored
    by `min_energy` like a caller's matrix, but a `sampled` family's
    Z_lower (a bound on its sample) is None.
    """
    pts = net.points
    grid = _grid_layout(net)
    minorant = None
    if family.power_law(scale) is not None:
        minorant = _minorant_solve(_assemble(lambda r: family.convex_minorant(scale, r),
                                             pts, grid).values)
    K = _assemble(lambda r: family.evaluate(scale, r), pts, grid,
                  distinct=family.kind == "exact")
    result = min_energy(K, tol=tol, minorant=minorant, warm=_warm_start(net, prev),
                        **solver_kw)
    result.Z_lower = None if family.sampled else result.Z_lower
    return result


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

