"""Timing wrappers around fracdim's module-level functions, for traced runs.

`Tracer.install` replaces each target function with a wrapper in every
fracdim module namespace that holds it (so `profiles.min_energy`, which
is `energy_min.min_energy` imported by name, is wrapped too); classes are
never touched.  A wrapper records a span (name, start, end, parent, pass)
plus a few counts read off the call's arguments and result.  Spans stay
in memory until `write`; `uninstall` restores the originals.

`energy_min._frank_wolfe` is the one private function hooked, and only
to count: it adds each start's iterations to the enclosing `min_energy`
span, because `EnergyResult.iterations` reports the best start alone.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

from fracdim import energy_min, profiles, set_models, simulate, verify

MIB = 2.0 ** 20

# verify.<criterion>_s metric name -> the check function behind it
VERIFY_CRITERIA = {
    "C1": "check_two_point_closed_form",
    "C2r_C3r": "check_solver_vs_bruteforce",
    "C4": "check_capacity_exact",
    "C5": "check_minkowski",
    "C9": "check_theta_index",
    "C10": "check_cauchy_kernel_identity",
}


def _n_of(args, kwargs, result):
    return {"n": int(result.n)}


def _solve_attrs(args, kwargs, result):
    return {"n": int(result.weights.w.size), "converged": bool(result.converged),
            "best_start_iterations": int(result.iterations)}


def _lattice_attrs(fn):
    sig = inspect.signature(fn)

    def attrs(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        n = bound.arguments["K"].n
        total = int(round(1.0 / bound.arguments["resolution"]))
        return {"lattice_points": math.comb(total + n - 1, n - 1)}
    return attrs


def _sorted_attrs(args, kwargs, result):
    cloud = args[0]
    pts = getattr(cloud, "points", cloud)
    size = len(pts)
    one_d = getattr(pts, "ndim", 1) == 1 or pts.shape[1] == 1
    return {"sorted": size if one_d else 0}


def _variates_attrs(args, kwargs, result):
    return {"variates": int(result.values.size)}


def _targets():
    """(module, attribute, span attribute reader) for every wrapped function."""
    out = [
        (energy_min, "build_kernel", _n_of),
        (energy_min, "is_psd", None),
        (energy_min, "min_energy", _solve_attrs),
        (energy_min, "min_energy_bruteforce",
         _lattice_attrs(energy_min.min_energy_bruteforce)),
        (set_models, "discretize", _n_of),
        (set_models, "kolmogorov_capacity", _sorted_attrs),
        (set_models, "minkowski_dim_estimate", None),
        (simulate, "sample_path", _variates_attrs),
        (profiles, "theta_index", None),
    ]
    out += [(verify, fn, None) for fn in VERIFY_CRITERIA.values()]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._saved: list[tuple] = []
        self._pass = 0

    # -- wrapping ------------------------------------------------------------

    def _span(self, name, fn, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "pass": self._pass,
                    "parent": self._stack[-1]["id"] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result
        return wrapper

    def _fw_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._stack:
                parent = self._stack[-1]
                parent["iterations"] = parent.get("iterations", 0) + int(result[3])
                parent["starts"] = parent.get("starts", 0) + 1
            return result
        return wrapper

    def _replace(self, original, wrapper):
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("fracdim"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        for module, attr, attrs in _targets():
            original = getattr(module, attr)
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            self._replace(original, self._span(name, original, attrs))
        fw = getattr(energy_min, "_frank_wolfe", None)
        if fw is not None:
            self._replace(fw, self._fw_counter(fw))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    # -- results ---------------------------------------------------------------

    def end_pass(self) -> dict:
        """Per-layer metrics of the pass just finished; starts the next."""
        metrics = layer_metrics([s for s in self.spans if s["pass"] == self._pass])
        self._pass += 1
        return metrics

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics from one pass's spans.

    A `_s` metric is the summed self time of a function's spans (duration
    minus the time its traced callees took), except `verify.<criterion>_s`,
    which is a criterion's whole time.
    """
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]

    def of(name):
        return [s for s in spans if s["name"] == name]

    def self_s(name):
        return sum(s["end"] - s["start"] - covered[s["id"]] for s in of(name))

    def total(name, key):
        return sum(s.get(key, 0) for s in of(name))

    solves = of("energy_min.min_energy")
    max_n = max((s["n"] for s in solves if "n" in s), default=0)
    largest = [s for s in solves if s.get("n") == max_n]
    largest_iters = sum(s.get("iterations", 0) for s in largest)
    largest_s = sum(s["end"] - s["start"] - covered[s["id"]] for s in largest)
    sample_s = self_s("simulate.sample_path")
    kernels = of("energy_min.build_kernel")

    out = {
        "energy_min.build_kernel_s": (self_s("energy_min.build_kernel"), "s"),
        "energy_min.kernel_mb": (sum(8.0 * s["n"] ** 2 for s in kernels) / MIB, "MB"),
        "energy_min.psd_probe_s": (self_s("energy_min.is_psd"), "s"),
        "energy_min.solve_s": (self_s("energy_min.min_energy"), "s"),
        "energy_min.iterations": (total("energy_min.min_energy", "iterations"), "count"),
        "energy_min.us_per_iter": (1e6 * largest_s / largest_iters if largest_iters else 0.0, "us"),
        "energy_min.starts": (total("energy_min.min_energy", "starts"), "count"),
        "energy_min.unconverged": (sum(1 for s in solves if s.get("converged") is False), "count"),
        "energy_min.max_n": (max_n, "count"),
        "energy_min.bruteforce_s": (self_s("energy_min.min_energy_bruteforce"), "s"),
        "energy_min.lattice_points": (total("energy_min.min_energy_bruteforce", "lattice_points"), "count"),
        "set_models.discretize_s": (self_s("set_models.discretize"), "s"),
        "set_models.net_points": (total("set_models.discretize", "n"), "count"),
        "set_models.capacity_s": (self_s("set_models.kolmogorov_capacity"), "s"),
        "set_models.capacity_calls": (len(of("set_models.kolmogorov_capacity")), "count"),
        "set_models.points_sorted": (total("set_models.kolmogorov_capacity", "sorted"), "count"),
        "set_models.minkowski_s": (self_s("set_models.minkowski_dim_estimate"), "s"),
        "simulate.sample_path_s": (sample_s, "s"),
        "simulate.variates_per_s": (total("simulate.sample_path", "variates") / sample_s if sample_s else 0.0, "1/s"),
        "simulate.paths": (len(of("simulate.sample_path")), "count"),
        "profiles.theta_s": (self_s("profiles.theta_index"), "s"),
    }
    for cid, fn in VERIFY_CRITERIA.items():
        out[f"verify.{cid}_s"] = (sum(s["end"] - s["start"] for s in of(f"verify.{fn}")), "s")
    return out
