"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import time
from operator import sub

from staircase_sums import oracle, render
from staircase_sums.construct import difference_pairs, solve
from staircase_sums.runs import (
    ConsecutiveRun,
    Instance,
    enumerate_runs,
    triangular,
)
from test_oracle import count_runs_bruteforce_upto, odd_divisor_counts_upto

WORKED_EXAMPLE_BLOCKS = {
    15: (3, 12),
    16: (6, 10),
    17: (8, 9),
    18: (7, 11),
    19: (5, 14),
    20: (1, 2, 4, 13),
}


def _report(num: int, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} ({elapsed:.3f}s) {detail}", flush=True)


def test_criterion_1_worked_example_bit_exact():
    inst = Instance(14, ConsecutiveRun(15, 20))
    solve(inst)  # warm path, untimed
    started = time.perf_counter()
    partition, _ = solve(inst)
    elapsed = time.perf_counter() - started
    ok = partition.blocks == WORKED_EXAMPLE_BLOCKS and elapsed < 0.010
    _report(1, ok, elapsed, "partition 14 15 20 reproduces the worked example")
    assert partition.blocks == WORKED_EXAMPLE_BLOCKS
    assert elapsed < 0.010


def test_criterion_2_solver_sweep_to_1000():
    started = time.perf_counter()
    failures = 0
    instances = 0
    for n in range(1, 1001):
        for run in enumerate_runs(triangular(n)):
            inst = Instance(n, run)
            partition, _ = solve(inst)
            if not oracle.verify(n, run, partition).ok:
                failures += 1
            instances += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 30.0
    _report(2, ok, elapsed, f"{instances} instances solved and verified")
    assert failures == 0
    assert elapsed < 30.0


def test_criterion_3_odd_divisor_bijection():
    started = time.perf_counter()
    mismatches = 0
    brute = count_runs_bruteforce_upto(10**4)
    sieve = odd_divisor_counts_upto(10**5)
    for value in range(1, 10**5 + 1):
        runs = enumerate_runs(value)
        divisors = sieve[value]
        if len(runs) != divisors:
            mismatches += 1
        if value <= 10**4 and brute[value] != divisors:
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 60.0
    _report(3, ok, elapsed, "bijection holds to 1e5 against an odd-divisor sieve (window scan to 1e4)")
    assert mismatches == 0
    assert elapsed < 60.0


def test_criterion_4_difference_pair_sweep():
    started = time.perf_counter()
    failures = 0
    for m in range(1, 501):
        for low in (1, 7, 10**6):
            xs, xps = difference_pairs(m, low)
            values = xs + xps
            if not (
                len(set(values)) == 2 * m
                and min(values) == low
                and max(values) <= 2 * m + low
                and list(map(sub, xps, xs)) == list(range(1, m + 1))
            ):
                failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 5.0
    _report(4, ok, elapsed, "1500 difference-pair constructions checked")
    assert failures == 0
    assert elapsed < 5.0


def test_criterion_5_length_bound_on_sweep():
    started = time.perf_counter()
    failures = 0
    checked = 0
    for n in range(1, 1001):
        for run in enumerate_runs(triangular(n)):
            if run.a > n:
                checked += 1
                if n < 2 * run.length():
                    failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and checked > 0
    _report(5, ok, elapsed, f"{checked} above-n instances satisfy the length bound")
    assert failures == 0
    assert checked > 0


def test_criterion_6_census_membership():
    started = time.perf_counter()
    failures = 0
    instances = 0
    for n in range(1, 13):
        for run in enumerate_runs(triangular(n)):
            inst = Instance(n, run)
            _, partitions = oracle.enumerate_all(inst, limit=None)
            constructed, _ = solve(inst)
            if constructed not in partitions:
                failures += 1
            instances += 1
    count_578 = oracle.enumerate_all(Instance(5, ConsecutiveRun(7, 8)))[0]
    elapsed = time.perf_counter() - started
    ok = failures == 0 and count_578 == 3 and elapsed < 30.0
    _report(6, ok, elapsed, f"{instances} instances in census; count(5,[7..8]) = {count_578}")
    assert failures == 0
    assert count_578 == 3
    assert elapsed < 30.0


def test_criterion_7_byte_identical_json(run_cli):
    started = time.perf_counter()
    battery = [
        ["partition", 14, 15, 20, "--trace"],
        ["partition", 5, 7, 8],
        ["partition", 5, 1, 5],
        ["runs", 15],
        ["runs", 100000],
        ["count", 5, 7, 8, "--list"],
        ["count", 2, 3, 3],
        ["render", 5, 7, 8],
    ]
    mismatches = 0
    for args in battery:
        first = run_cli(*args, "--json", "--no-timing")
        second = run_cli(*args, "--json", "--no-timing")
        if first.stdout != second.stdout or first.returncode != second.returncode:
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0
    _report(7, ok, elapsed, f"{len(battery)} command pairs byte-identical")
    assert mismatches == 0


def test_criterion_8_rendering_conservation(run_cli, rebuilt_fault):
    started = time.perf_counter()
    failures = 0
    for n in range(1, 41):
        for run in enumerate_runs(triangular(n)):
            partition, _ = solve(Instance(n, run))
            if rebuilt_fault(render.render_rebuilt(partition), n, run.a, run.b) is not None:
                failures += 1
    partition, _ = solve(Instance(5, ConsecutiveRun(7, 8)))
    row_lengths = [row.count("[") for row in render.render_rebuilt(partition).split("\n")]
    fig_shape = row_lengths == [7, 8]
    rendered = run_cli("render", 5, 7, 8)
    cli_lines = rendered.stdout.strip().split("\n")
    elapsed = time.perf_counter() - started
    ok = failures == 0 and fig_shape and rendered.returncode == 0
    _report(8, ok, elapsed, "no element split across rows to n=40; render 5 7 8 is 7/8-shaped")
    assert failures == 0
    assert fig_shape
    assert rendered.returncode == 0
    assert [len(line) // 4 for line in cli_lines[-2:]] == [7, 8]
