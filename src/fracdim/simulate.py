"""Path simulation and box-counting of process images.

Paths are sampled exactly at net times: each increment over a gap is
drawn from its true law (no Euler bias), so the sampled cloud is the
process image restricted to the net.  An experiment builds its model's
increment sampler once, for the net's gaps, and draws once per path.
The mesh rule ties the net gap h to the smallest counted radius through
h * |Psi(e / (factor * r_min))| = 1, i.e. the process typically moves
much less than r_min between samples, making the missed oscillation
invisible at the counted scales.

Paths run on a thread pool, one array per path in flight: a path's
values are drawn, summed and (in one dimension) sorted in place before
they are counted.  Path i draws from a substream of (seed, i) and
results are kept in path order, so an experiment's counts, slopes and
reports do not depend on the worker count.
"""

from __future__ import annotations

import csv
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NetTooLarge
from .ladders import scale_ladder
from .process_models import LevyModel
from .set_models import (MIN_RADII, CompactSet, DeltaNet, discretize,
                         minkowski_dim_estimate)
from .utils import check_budget, substream

MESH_FACTOR = 0.25            # target typical increment = factor * r_min
MIN_NET_POINTS = 512          # cheap floor: never undersample a path
_CELL_BYTES = 20              # traced bytes per value of a cell count in d > 1


@dataclass
class PathSample:
    """One exact path skeleton: values of X at the net times."""

    times: np.ndarray
    values: np.ndarray          # shape (n, d)

    def __post_init__(self):
        if self.values.shape[0] != self.times.shape[0]:
            raise ValueError("times/values length mismatch")


@dataclass
class ImageExperiment:
    """Box-counting summary of many independent image clouds."""

    model: dict
    set_label: str
    n_paths: int
    r_ladder: np.ndarray
    seed: int
    slopes: np.ndarray
    counts: np.ndarray          # shape (n_paths, len(r_ladder))
    median: float
    iqr: float
    mode: str
    net_mesh: float

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "set": self.set_label,
            "n_paths": self.n_paths,
            "r_ladder": [float(r) for r in self.r_ladder],
            "seed": self.seed,
            "median": self.median,
            "iqr": self.iqr,
            "mode": self.mode,
            "net_mesh": self.net_mesh,
            "slopes": [float(s) for s in self.slopes],
        }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["path_index", "slope"]
                            + [f"K_r{repr(float(r))}" for r in self.r_ladder])
            for i, (sl, row) in enumerate(zip(self.slopes, self.counts)):
                writer.writerow([i, repr(float(sl))] + [int(c) for c in row])


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


def sample_path(sampler: Callable[[np.random.Generator], np.ndarray],
                net: DeltaNet, seed: int) -> PathSample:
    """Exact path values at net times, started from X(0) = 0.

    `sampler` is `model.increment_sampler(gaps)` for the gaps from time 0
    to the first net point and between consecutive net points, built
    once per experiment; each call draws one path's increments from
    their exact law, from a substream of `seed`.
    """
    inc = sampler(substream(seed, 0))
    values = np.cumsum(inc, axis=0, out=inc)
    return PathSample(times=net.points, values=values)


def image_dim_experiment(model: LevyModel, cset: CompactSet, n_paths: int,
                         r_ladder, seed: int, mode: str = "upper",
                         mesh_factor: float = MESH_FACTOR) -> ImageExperiment:
    """Simulate image clouds X(net(F)) and box-count each one.

    Per path, the capacity ladder slope is estimated in `mode`.  The
    default is the upper envelope, matching the limsup in the dimension
    it estimates; heavy-tailed per-path noise is tamed by aggregating
    with a median rather than a mean.  `r_ladder` holds at least
    MIN_RADII finite, positive, distinct radii, checked before any path is
    drawn.  Path i draws from a substream derived from (seed, i), so the
    result is deterministic given `seed`.

    It holds the net's points and grid index, the sampler's per-gap
    scale (8 bytes a point) and per path in flight one (n, d) array,
    sorted in place when d = 1, plus _CELL_BYTES per value counted when
    d > 1.  Paths run on min(n_paths, usable CPUs, paths that fit in
    MEMORY_BUDGET) threads, NetTooLarge before the sampler is built if
    none does, and keep path order, so results do not depend on the
    worker count.  The first path to raise stops every path not yet
    started, and its exception propagates.
    """
    if n_paths < 1:
        raise ValueError("need n_paths >= 1")
    r_ladder = scale_ladder(r_ladder, "r", MIN_RADII)[::-1]
    # net gap over which the process typically moves ~ mesh_factor * r_min
    h = model.typical_inverse_scale(mesh_factor * float(r_ladder.min()))
    h = min(h, cset.diameter / MIN_NET_POINTS) if cset.diameter > 0 else h
    net = discretize(cset, h)
    path_bytes = net.n * model.d * (8 if model.d == 1 else 8 + _CELL_BYTES)
    held = 8 * net.n * (2 if net.grid is None or net.grid[2] is None else 3)
    left = check_budget(f"image experiment on {net.n} points", held + path_bytes, NetTooLarge)
    sampler = model.increment_sampler(np.diff(net.points, prepend=0.0))
    failed = threading.Event()

    def job(i):
        if failed.is_set():
            return None             # a path has raised: start no more
        try:
            # per-path integer seed derived from (seed, i), stable across runs
            child = int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0])
            values = sample_path(sampler, net, seed=child).values
            if values.shape[1] == 1:
                values.sort(axis=0)         # counted as is, with no sorted copy
            est = minkowski_dim_estimate(values, r_ladder, mode=mode)
        except BaseException:
            failed.set()
            raise
        return est.slope, est.values

    pool = ThreadPoolExecutor(min(n_paths, _usable_cpus(), 1 + left // path_bytes))
    try:
        out = list(pool.map(job, range(n_paths)))
    finally:
        pool.shutdown(cancel_futures=True)
    slopes, counts = map(np.array, zip(*out))
    q25, q50, q75 = np.percentile(slopes, [25, 50, 75])
    return ImageExperiment(model=model.to_config(), set_label=cset.label,
                           n_paths=n_paths, r_ladder=r_ladder, seed=seed,
                           slopes=slopes, counts=counts,
                           median=float(q50), iqr=float(q75 - q25),
                           mode=mode, net_mesh=h)
