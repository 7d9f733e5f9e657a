"""Seeded substreams, and the one memory budget every route checks."""

from __future__ import annotations

import numpy as np

MEMORY_BUDGET = 2 ** 28       # bytes one route may hold: a net, a rung or an image experiment


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
