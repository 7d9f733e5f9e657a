"""Log-log ladder records and slope estimators.

A ladder is a geometric sequence of scales with one positive value per
scale.  Dimension-type quantities are slopes of log(value) against
log(scale); because a finite ladder cannot distinguish a limit from a
limsup/liminf, three slope modes are exposed:

  least_squares   ordinary fit over the whole ladder
  upper           max two-point chord slope over the asymptotic half
  lower           min two-point chord slope over the asymptotic half

The "asymptotic half" is the half of the ladder closest to the limit the
estimand refers to (smallest radii / largest frequencies); callers store
ladders with that limit at the tail of the arrays.  A constant ladder
(no scaling signal, e.g. a single point) has slope exactly 0 in every
mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MODES = ("least_squares", "upper", "lower")
TRANSFORMS = {"log": np.log, "neg_log": lambda v: -np.log(v),   # axes, by name
              "log_inv": lambda s: np.log(1.0 / s)}


def scale_ladder(scales, name: str, min_size: int = 2) -> np.ndarray:
    """`scales` sorted into an increasing float array, or ValueError unless
    it holds at least `min_size` finite, positive, distinct values.
    Callers check a ladder with it before they solve a rung or sample a
    path; `name` labels the ladder in the message."""
    x = np.sort(np.asarray(scales, dtype=float))
    if not (x.ndim == 1 and x.size >= min_size and np.all(np.isfinite(x))
            and x[0] > 0 and np.all(np.diff(x) > 0)):
        raise ValueError(f"{name} ladder needs at least {min_size} finite, "
                         f"positive, distinct scales, got {scales!r}")
    return x


def _chord_slopes(lx: np.ndarray, ly: np.ndarray) -> np.ndarray:
    """All pairwise chord slopes of (lx, ly)."""
    i, j = np.triu_indices(len(lx), k=1)
    return (ly[j] - ly[i]) / (lx[j] - lx[i])


def slope_estimates(log_x: np.ndarray, log_y: np.ndarray) -> dict:
    """Slope of log_y against log_x in all modes.

    The limit end of the ladder is its last entries; envelope modes use
    chords among points in that half (at least two points).  A constant
    log_y gives exact zeros, intercept log_y[0] and residual 0.
    """
    log_x = np.asarray(log_x, dtype=float)
    log_y = np.asarray(log_y, dtype=float)
    if log_x.size < 2:
        raise ValueError("need at least two ladder points")
    if np.all(log_y == log_y[0]):
        # + 0.0 turns -log(1) = -0.0 into 0.0, as a fit of zeros would give
        return {"least_squares": 0.0, "upper": 0.0, "lower": 0.0,
                "intercept": float(log_y[0]) + 0.0, "max_residual": 0.0}
    ls, intercept = np.polyfit(log_x, log_y, 1)
    half = max(2, (log_x.size + 1) // 2)
    chords = _chord_slopes(log_x[-half:], log_y[-half:])
    resid = log_y - (ls * log_x + intercept)
    return {
        "least_squares": float(ls),
        "upper": float(chords.max()),
        "lower": float(chords.min()),
        "intercept": float(intercept),
        "max_residual": float(np.abs(resid).max()),
    }


@dataclass
class LadderEstimate:
    """A log-log regression record of values over a geometric scale ladder.

    `slope` is the estimate in the requested `mode`; the other modes are
    kept alongside so reports can show the envelope spread.  The axes are
    fitted as x_transform(scales) and y_transform(values), named from
    TRANSFORMS (an unknown name raises KeyError), so fitting the (scales,
    values) of `to_dict` again with its mode and transform names
    reproduces `slope` exactly.
    """

    scales: np.ndarray
    values: np.ndarray
    mode: str
    slope: float
    intercept: float
    max_residual: float
    all_slopes: dict = field(default_factory=dict)
    x_transform: str = "log"
    y_transform: str = "log"

    @classmethod
    def fit(cls, scales, values, mode: str = "least_squares",
            x_transform: str = "log", y_transform: str = "log") -> "LadderEstimate":
        if mode not in MODES:
            raise ValueError(f"unknown slope mode {mode!r}")
        scales = np.asarray(scales, dtype=float)
        values = np.asarray(values, dtype=float)
        if scales.size != values.size:
            raise ValueError("scales and values length mismatch")
        d = np.diff(scales)
        if not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("scales must be strictly monotone")
        est = slope_estimates(TRANSFORMS[x_transform](scales),
                              TRANSFORMS[y_transform](values))
        return cls(scales=scales, values=values, mode=mode,
                   slope=est[mode], intercept=est["intercept"],
                   max_residual=est["max_residual"],
                   all_slopes={m: est[m] for m in MODES},
                   x_transform=x_transform, y_transform=y_transform)

    def to_dict(self) -> dict:
        return {
            "scales": [float(s) for s in self.scales],
            "values": [float(v) for v in self.values],
            "mode": self.mode,
            "slope": self.slope,
            "intercept": self.intercept,
            "max_residual": self.max_residual,
            "all_slopes": dict(sorted(self.all_slopes.items())),
            "x_transform": self.x_transform,
            "y_transform": self.y_transform,
        }
