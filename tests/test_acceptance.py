"""Exit criteria: every identity checked against its oracle at a fixed
tolerance, with runtime budgets asserted where they matter.

Each test prints one [PASS]/[FAIL] line (run pytest with -s to see them
live).  The same checks back the CLI's `verify --suite full`.
"""

import json
import subprocess
import sys
import time

from fracdim import verify as V

SEED = 0


def _record(cid, name, ok, details, elapsed=None, budget=None):
    status = "PASS" if ok else "FAIL"
    extra = f" ({elapsed:.1f}s < {budget:.0f}s)" if budget is not None else ""
    print(f"[{status}] {cid}: {name}{extra} :: {details}")
    assert ok, f"{cid} failed: {details}"
    if budget is not None:
        assert elapsed < budget, f"{cid} runtime {elapsed:.1f}s over {budget}s"


def test_c01_two_point_closed_form():
    t0 = time.time()
    r = V.check_two_point_closed_form(SEED)
    _record("C1", r.name, r.passed, r.details, time.time() - t0, 1.0)


def test_c02_c03_solver_vs_oracle_and_kkt():
    t0 = time.time()
    c2, c3 = V.check_solver_vs_bruteforce(SEED, n_kernels=50)
    elapsed = time.time() - t0
    _record("C2", c2.name, c2.passed, c2.details, elapsed, 30.0)
    _record("C3", c3.name, c3.passed, c3.details)


def test_c04_capacity_exactness():
    r = V.check_capacity_exact(SEED)
    _record("C4", r.name, r.passed, r.details)


def test_c05_minkowski_estimates():
    t0 = time.time()
    r = V.check_minkowski(SEED)
    _record("C5", r.name, r.passed, r.details, time.time() - t0, 10.0)


def test_c06_fh_profile_consistency():
    r = V.check_fh_consistency(SEED)
    _record("C6", r.name, r.passed, r.details)


def test_c07_fh_interval_scaling():
    r = V.check_fh_interval_scaling(SEED)
    _record("C7", r.name, r.passed, r.details)


def test_c08_subordinator_criterion():
    t0 = time.time()
    r = V.check_subordinator_criterion(SEED)
    _record("C8", r.name, r.passed, r.details, time.time() - t0, 60.0)


def test_c09_theta_index():
    r = V.check_theta_index(SEED)
    _record("C9", r.name, r.passed, r.details)


def test_c10_cauchy_kernel_identity():
    r = V.check_cauchy_kernel_identity(SEED)
    _record("C10", r.name, r.passed, r.details)


def test_c11_energy_upper_bound():
    r = V.check_energy_upper_bound(SEED)
    _record("C11", r.name, r.passed, r.details)


def test_c12_image_simulations():
    t0 = time.time()
    r = V.check_image_simulations(SEED, n_paths=32)
    _record("C12", r.name, r.passed, r.details, time.time() - t0, 300.0)


def test_c13_verify_fast_byte_determinism(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        proc = subprocess.run(
            [sys.executable, "-m", "fracdim.cli", "verify", "--suite", "fast",
             "--seed", str(SEED), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert all(line.startswith("[PASS]")
                   for line in proc.stderr.strip().splitlines())
    same = out1.read_bytes() == out2.read_bytes()
    rep = json.loads(out1.read_text())
    assert rep["suite"] == "fast"
    _record("C13", "verify --suite fast twice is byte-identical",
            same and rep["all_passed"],
            {"bytes": len(out1.read_bytes()), "suite_passed": rep["all_passed"]})
