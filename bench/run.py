"""Run one fracdim benchmark workload and print its result as a JSON line.

    python3 bench/run.py --workload fh_profile --seed 1 --seconds 10 --trace 0

Run from the repository root.  fracdim is imported from this checkout's
`src/` and nowhere else.  The run sets up (import, inputs, warm-up),
then repeats whole rounds of timed passes until `--seconds` have passed,
then checks every output outside the timed passes and after the memory
high-water mark is read.  The last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (wall_s, peak_rss_mb, setup_s) under
`--trace 0`, and the per-layer metrics under `--trace 1`, which also
writes every span to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
WORKLOAD_NAMES = ("fh_profile", "subordinator", "verify_fast", "image_sim")
IMPORT_STMT = "import fracdim, fracdim.verify"
SETUP_SAMPLES = 3


def child_import_seconds() -> float:
    """Import time of fracdim in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); "
            f"{IMPORT_STMT}; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ["FRACDIM_THREADS"] = "1"      # the library default, pinned

    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import fracdim
    import fracdim.verify  # noqa: F401
    import_samples = [time.perf_counter() - t0]
    if not os.path.abspath(fracdim.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"fracdim imported from {fracdim.__file__}, not {SRC}")
    import_samples += [child_import_seconds() for _ in range(SETUP_SAMPLES - 1)]

    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    build_samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        inputs = wl.build(args.seed)
        wl.warm_up(inputs)
        build_samples.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_samples) + statistics.median(build_samples)

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    walls, cpus, layers, rounds = [], [], [], []
    start = time.perf_counter()
    try:
        while not rounds or time.perf_counter() - start < args.seconds:
            outputs = []
            for _ in range(wl.passes_per_round):
                c0, t0 = time.process_time(), time.perf_counter()
                outputs.append(wl.run_pass(inputs))
                walls.append(time.perf_counter() - t0)
                cpus.append(time.process_time() - c0)
                if tracer:
                    layers.append(tracer.end_pass())
            rounds.append(outputs)
    finally:
        if tracer:
            tracer.uninstall()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts = [ok for outputs in rounds for ok in wl.check(inputs, outputs)]
    failed = verdicts.count(False)

    if tracer:
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        metrics = {name: {"value": statistics.median(p[name][0] for p in layers),
                          "unit": layers[0][name][1]}
                   for name in layers[0]}
        metrics["process.cpu_s"] = {"value": statistics.median(cpus), "unit": "s"}
        metrics["process.wall_s"] = {"value": statistics.median(walls), "unit": "s"}
    else:
        metrics = {"wall_s": {"value": statistics.median(walls), "unit": "s"},
                   "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
                   "setup_s": {"value": setup_s, "unit": "s"}}
    print(json.dumps({"correct": failed == 0, "attempted": len(verdicts),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
