"""The library surface that the benchmark's traced mode wraps.

`bench/tracing.py` replaces module-level functions by name and reads a
few of their arguments (`min_energy_bruteforce`'s `resolution`, for
one).  Renaming or re-signing any of them breaks the traced benchmark
run, so this drives one small call through each wrapped layer and checks
that every per-layer metric declared in BENCHMARK.json comes out.
"""

import json
import pathlib
import sys

import numpy as np
import pytest

from fracdim import profiles, set_models, simulate, verify
from fracdim.process_models import LaplaceExponent, LevyModel
from fracdim.set_models import CompactSet

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing
    return tracing


def _wrapped_names():
    """(module, attribute) -> function for every name a tracer may replace."""
    mods = [m for name, m in sys.modules.items()
            if name == "fracdim" or name.startswith("fracdim.")]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()
            if callable(v)}


def test_traced_layers_match_benchmark_metrics(tracing):
    declared = {m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
                if not m["name"].startswith("process.")}
    before = _wrapped_names()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        verify.check_solver_vs_bruteforce(0, n_kernels=2)
        profiles.fh_profile(CompactSet.interval(0, 1), 0.5, [0.2, 0.1],
                            mesh_ratio=5.0, restarts=2)
        profiles.subordinator_box_dim(LaplaceExponent.stable(0.5),
                                      CompactSet.interval(0, 1), [10.0, 40.0])
        set_models.minkowski_dim_estimate(np.linspace(0, 1, 65),
                                          2.0 ** -np.arange(1, 6))
        net = set_models.discretize(CompactSet.interval(0, 1), 1 / 64)
        model = LevyModel.subordinator(LaplaceExponent.stable(0.5))
        simulate.sample_path(model.increment_sampler(np.diff(net.points, prepend=0.0)),
                             net, seed=0)
        metrics = tracer.end_pass()
    finally:
        tracer.uninstall()
    assert set(metrics) == declared
    assert metrics["energy_min.lattice_points"][0] > 0
    assert metrics["energy_min.starts"][0] > 0
    assert metrics["simulate.paths"][0] == 1
    assert _wrapped_names() == before
