"""Path simulation and box-counting of process images.

Paths are sampled exactly at net times: each increment over a gap is
drawn from its true law (no Euler bias), so the sampled cloud is the
process image restricted to the net.  The mesh rule ties the net gap h
to the smallest counted radius through h * |Psi(e / (factor * r_min))| = 1,
i.e. the process typically moves much less than r_min between samples,
making the missed oscillation invisible at the counted scales.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .process_models import LevyModel
from .set_models import CompactSet, DeltaNet, discretize, minkowski_dim_estimate
from .utils import parallel_map, substream

MESH_FACTOR = 0.25            # target typical increment = factor * r_min
MIN_NET_POINTS = 512          # cheap floor: never undersample a path
IMAGE_POINT_CAP = 8_000_000


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


def sample_path(model: LevyModel, net: DeltaNet, seed: int) -> PathSample:
    """Exact path values at net times, started from X(0) = 0.

    Gaps are measured from time 0 to the first net point and between
    consecutive net points; each increment is drawn from its exact law.
    """
    times = net.points
    rng = substream(seed, 0)
    gaps = np.diff(np.concatenate([[0.0], times]))
    if np.any(gaps < 0):
        raise ValueError("net times must be sorted and nonnegative")
    inc = model.sample_increments(gaps, rng)
    values = np.cumsum(inc, axis=0)
    if model.kind == "subordinator":
        assert np.all(np.diff(values[:, 0]) >= 0), "subordinator path decreased"
    return PathSample(times=times, values=values)


def image_dim_experiment(model: LevyModel, cset: CompactSet, n_paths: int,
                         r_ladder, seed: int, mode: str = "upper",
                         mesh_factor: float = MESH_FACTOR) -> ImageExperiment:
    """Simulate image clouds X(net(F)) and box-count each one.

    Per path, the capacity ladder slope is estimated in `mode`.  The
    default is the upper envelope, matching the limsup in the dimension
    it estimates; heavy-tailed per-path noise is tamed by aggregating
    with a median rather than a mean.  Deterministic given `seed`: path i
    uses a substream derived from (seed, i).
    """
    if n_paths < 1:
        raise ValueError("need n_paths >= 1")
    r_ladder = np.sort(np.asarray(r_ladder, dtype=float))[::-1]
    # net gap over which the process typically moves ~ mesh_factor * r_min
    h = model.typical_inverse_scale(mesh_factor * float(r_ladder.min()))
    h = min(h, cset.diameter / MIN_NET_POINTS) if cset.diameter > 0 else h
    net = discretize(cset, h, point_cap=IMAGE_POINT_CAP)

    def job(i):
        # per-path integer seed derived from (seed, i), stable across runs
        child = int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0])
        path = sample_path(model, net, seed=child)
        est = minkowski_dim_estimate(path.values, r_ladder, mode=mode)
        return est.slope, est.values

    out = parallel_map(job, range(n_paths))
    slopes = np.array([o[0] for o in out])
    counts = np.array([o[1] for o in out])
    q25, q50, q75 = np.percentile(slopes, [25, 50, 75])
    return ImageExperiment(model=model.to_config(), set_label=cset.label,
                           n_paths=n_paths, r_ladder=r_ladder, seed=seed,
                           slopes=slopes, counts=counts,
                           median=float(q50), iqr=float(q75 - q25),
                           mode=mode, net_mesh=h)

