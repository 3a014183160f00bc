"""Kernel cases timed in the traced run, and the check that both kernel lanes agree.

These are the cases of the kernel-only ``benchmarks/bench_kernels.py``, at
its quick sizes, timed on the lane the program runs
(``staircase_sums.kernels``).  When the compiled lane imports, each case must
give the same answer on the compiled and the pure-Python lane; when it does
not, parity is recorded as unchecked.
"""

from __future__ import annotations

import importlib
from time import perf_counter

CASES = {
    "odd_divisors_sweep": lambda k: sum(len(k.odd_divisors(v)) for v in range(1, 20_001)),
    "count_consecutive_runs": lambda k: k.count_consecutive_runs(10**5),
    "count_consecutive_runs_upto": lambda k: sum(k.count_consecutive_runs_upto(10**4)),
    "count_partitions_12_18_21": lambda k: k.count_partitions(12, 18, 21),
    "count_partitions_14_15_20": lambda k: k.count_partitions(14, 15, 20),
}


def metric_name(case: str) -> str:
    return f"kernels.case.{case}.ms"


def _lane(module: str):
    try:
        return importlib.import_module(f"staircase_sums.{module}")
    except ImportError:
        return None


def time_cases() -> dict[str, float]:
    """Milliseconds per case on the active lane; 0 for a case whose kernel is gone."""
    active = _lane("kernels")
    times = {}
    for case, fn in CASES.items():
        started = perf_counter()
        try:
            fn(active)
        except AttributeError:
            times[metric_name(case)] = 0.0
            continue
        times[metric_name(case)] = (perf_counter() - started) * 1000.0
    return times


def lane_parity() -> tuple[str, list[str]]:
    """("checked" | "unchecked" | "mismatch", details)."""
    pure, compiled = _lane("_kernels_py"), _lane("_kernels_c")
    if pure is None or compiled is None:
        return "unchecked", ["compiled lane does not import; only the pure lane ran"]
    mismatches = []
    for case, fn in CASES.items():
        expected, got = fn(pure), fn(compiled)
        if expected != got:
            mismatches.append(f"{case}: pure {expected!r} != compiled {got!r}")
    return ("mismatch" if mismatches else "checked"), mismatches
