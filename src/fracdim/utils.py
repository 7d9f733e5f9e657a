"""Seeded substreams, the one memory budget every route checks, and the
batched vector quadrature."""

from __future__ import annotations

import numpy as np

MEMORY_BUDGET = 2 ** 28       # bytes one route may hold: a net, a rung or an image experiment
QUAD_MAX_ROUNDS = 50          # halvings of [a, b] before float resolution ends them
QUAD_MAX_INTERVALS = 400      # intervals one vector quadrature may hold
QUAD_BLOCK_VALUES = 1 << 20   # integrand values per call when a round needs more

# Gauss-Kronrod (10, 21) on [-1, 1]: the 21 Kronrod nodes, their weights,
# and the Gauss weights of the odd-indexed nodes
_GK_HALF = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720])
_GK_NODES = np.concatenate([_GK_HALF, [0.0], -_GK_HALF[::-1]])
_GK_KRONROD = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_GK_KRONROD = np.concatenate([_GK_KRONROD, _GK_KRONROD[-2::-1]])
_GK_GAUSS = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_GK_GAUSS = np.concatenate([_GK_GAUSS, _GK_GAUSS[::-1]])


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for task `index` of a seeded job.

    Streams are derived from (seed, index), so a task's draws depend on
    neither the order in which tasks run nor how many there are.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def check_budget(route: str, nbytes: int, error) -> int:
    """MEMORY_BUDGET - nbytes; `error`, naming the route and its bytes, above it."""
    if nbytes > MEMORY_BUDGET:
        raise error(f"{route} would hold {nbytes:,} bytes; the memory budget is {MEMORY_BUDGET:,}")
    return MEMORY_BUDGET - nbytes


def _gauss_kronrod(f, left: np.ndarray, width: np.ndarray):
    """(k, m) integrals and (k,) error estimates of f on k intervals, from
    one call of f on their 21 k nodes: QUADPACK's heuristic, taken in the
    max norm over the m components as `scipy.integrate.quad_vec` does."""
    h = 0.5 * width
    x = (left + h)[:, None] + h[:, None] * _GK_NODES
    fv = f(x.ravel()).reshape(left.size, _GK_NODES.size, -1)
    kronrod = _GK_KRONROD @ fv
    err = h * np.abs(kronrod - _GK_GAUSS @ fv[:, 1::2]).max(axis=1)
    dabs = h * (_GK_KRONROD @ np.abs(fv - 0.5 * kronrod[:, None])).max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where(dabs > 0, dabs * np.minimum(1.0, (200.0 * err / dabs) ** 1.5), err)
    roundoff = 50.0 * np.finfo(float).eps * h * (_GK_KRONROD @ np.abs(fv)).max(axis=1)
    return h[:, None] * kronrod, np.maximum(err, roundoff)


def vector_quad(f, a: float, b: float, tol: float):
    """(integral, error) of a vector-valued f over [a, b].

    The rule, error estimate and stop are those of `scipy.integrate.quad_vec`
    (Gauss-Kronrod (10, 21); QUADPACK's heuristic in the max norm, summed
    over the intervals; done when the sum is below `tol`), but each round
    halves every interval whose error is at least its share
    tol * width / (b - a), and the worst one (the worst of them when the
    QUAD_MAX_INTERVALS left do not hold them all), and evaluates all their
    new nodes in one call f(x) -> (x.size, m); when m is large, in calls
    of whole intervals, each of at most QUAD_BLOCK_VALUES values or one
    interval.

    A non-finite error, QUAD_MAX_ROUNDS rounds or QUAD_MAX_INTERVALS
    intervals end it unconverged.  The error returned is the last finite
    sum (nan if there was none), so converged is exactly error < tol.
    """
    left, width = np.array([float(a)]), np.array([float(b) - float(a)])
    vals, errs = _gauss_kronrod(f, left, width)
    per_call = max(1, QUAD_BLOCK_VALUES // (_GK_NODES.size * vals.shape[1]))
    error = np.nan
    for rounds in range(QUAD_MAX_ROUNDS + 1):
        total = float(errs.sum())
        if not np.isfinite(total):
            break
        error = total
        room = QUAD_MAX_INTERVALS - left.size
        if total < tol or rounds == QUAD_MAX_ROUNDS or room <= 0:
            break
        split = errs >= tol * width / (b - a)
        split[np.argmax(errs)] = True
        if np.count_nonzero(split) > room:      # the worst `room` of them
            split[np.argsort(np.where(split, errs, -np.inf))[:-room]] = False
        half = 0.5 * width[split]
        new_left = np.concatenate([left[split], left[split] + half])
        new_width = np.concatenate([half, half])
        parts = [_gauss_kronrod(f, new_left[i:i + per_call], new_width[i:i + per_call])
                 for i in range(0, new_left.size, per_call)]
        left = np.concatenate([left[~split], new_left])
        width = np.concatenate([width[~split], new_width])
        vals = np.concatenate([vals[~split], *(p[0] for p in parts)])
        errs = np.concatenate([errs[~split], *(p[1] for p in parts)])
    return vals.sum(axis=0), error
