"""Seeded substreams: one independent generator per task of a seeded job."""

from __future__ import annotations

import numpy as np


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for task `index` of a seeded job.

    Streams are derived from (seed, index), so a task's draws depend on
    neither the order in which tasks run nor how many there are.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))
