"""Difference pairs, the layer step, peels, and the full solver."""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircase_sums.construct import (
    EXACT,
    MIRROR_HIGH,
    MIRROR_LOW,
    OPEN,
    Partition,
    _kind,
    _layer_step,
    difference_pairs,
    solve,
)
from staircase_sums.oracle import verify
from staircase_sums.runs import ConsecutiveRun, Instance, enumerate_runs, triangular

WORKED_EXAMPLE_BLOCKS = {
    15: (3, 12),
    16: (6, 10),
    17: (8, 9),
    18: (7, 11),
    19: (5, 14),
    20: (1, 2, 4, 13),
}


def _instances(max_n: int, pred=None):
    for n in range(1, max_n + 1):
        for run in enumerate_runs(triangular(n)):
            inst = Instance(n, run)
            if pred is None or pred(inst):
                yield inst


def reference_solve(inst: Instance) -> tuple[Partition, list[tuple]]:
    """The solver as one peel or one ``_layer_step`` per step, with the full invariant each step.

    ``solve`` takes a whole stretch of plain layers in one step; this is the
    per-layer loop it must agree with, block for block and record for record.
    """
    blocks: dict[int, list[int]] = {t: [] for t in inst.run.values()}
    # pending amount still needed -> original target
    owner: dict[int, int] = {t: t for t in inst.run.values()}
    records: list[tuple] = []
    n = inst.n
    while owner:
        a, b = min(owner), max(owner)
        assert sorted(owner) == list(range(a, b + 1))
        assert sum(owner) == triangular(n)
        if a <= n:
            # amount t in [a..n] takes {t}; {1..a-1} is left for the amounts above n
            for t in range(a, n + 1):
                blocks[owner.pop(t)].append(t)
            n = a - 1
            continue
        c, m, low, pairs, reduced = _layer_step(n, a, b)
        records.append((n, a, b, c, m, low, pairs))
        next_owner: dict[int, int] = {}
        for amount, pair in zip(range(a, b + 1), pairs):
            target = owner.pop(amount)
            blocks[target].extend(pair)
            if amount - c > m:
                next_owner[amount - c] = target
            else:
                assert sum(pair) == amount
        owner = next_owner
        n -= 2 * len(pairs)
        assert reduced[0] == n
        if owner:
            assert reduced[1:] == (min(owner), max(owner))
    assert n == 0
    partition = Partition(
        n=inst.n,
        run=inst.run,
        blocks={t: tuple(sorted(blocks[t])) for t in inst.run.values()},
    )
    return partition, records


def seeded_instances(seed: int, max_n: int, drawn: int) -> list[Instance]:
    """Worst runs [T(n)..T(n)] at log-spaced n up to max_n, plus runs drawn for log-uniform n."""
    rng = random.Random(seed)
    sizes = []
    n = 10
    while n < max_n:
        sizes.append(n)
        n = round(n * 10**0.5)
    sizes.append(max_n)
    found = [Instance(n, ConsecutiveRun(triangular(n), triangular(n))) for n in sizes]
    for _ in range(drawn):
        n = round(10 ** rng.uniform(1, math.log10(max_n)))
        found.append(Instance(n, rng.choice(enumerate_runs(triangular(n)))))
    return found


@st.composite
def valid_instances(draw, max_n=300):
    n = draw(st.integers(min_value=1, max_value=max_n))
    run = draw(st.sampled_from(enumerate_runs(triangular(n))))
    return Instance(n, run)


# ---------------------------------------------------------------- pairs


@pytest.mark.parametrize(
    "m,low,expected",
    [
        (1, 1, ((1, 2),)),
        (2, 10, ((10, 11), (12, 14))),
        (3, 1, ((2, 3), (5, 7), (1, 4))),
    ],
)
def test_difference_pairs_examples(m, low, expected):
    assert difference_pairs(m, low) == expected


@pytest.mark.parametrize("m,low", [(0, 1), (1, 0), (-3, 5)])
def test_difference_pairs_contract_errors(m, low):
    with pytest.raises(ValueError):
        difference_pairs(m, low)


@settings(max_examples=80)
@given(
    st.integers(min_value=1, max_value=500),
    st.sampled_from([1, 7, 10**6]),
)
def test_difference_pairs_invariants(m, low):
    pairs = difference_pairs(m, low)
    values = [v for pair in pairs for v in pair]
    assert len(pairs) == m
    assert len(set(values)) == 2 * m
    assert min(values) == low
    assert max(values) <= 2 * m + low
    assert all(hi - lo == i for i, (lo, hi) in enumerate(pairs, start=1))


def test_difference_pairs_m1_stays_below_window_top():
    for low in (1, 7, 10**6):
        assert max(v for pair in difference_pairs(1, low) for v in pair) == 2 + low - 1


# ---------------------------------------------------------------- peel


def test_peel_identity_run():
    partition, records = solve(Instance(5, ConsecutiveRun(1, 5)), want_trace=True)
    assert partition.blocks == {t: (t,) for t in range(1, 6)}
    assert records == []  # nothing is left after the peel


@pytest.mark.parametrize(
    "n,a,b,reduced_n,reduced_a,reduced_b",
    [
        (5, 4, 6, 3, 6, 6),
        (9, 5, 10, 4, 10, 10),
        (20, 7, 21, 6, 21, 21),
    ],
)
def test_peel_examples(n, a, b, reduced_n, reduced_a, reduced_b):
    partition, records = solve(Instance(n, ConsecutiveRun(a, b)), want_trace=True)
    assert all(partition.blocks[t] == (t,) for t in range(a, n + 1))
    # a peel never applies twice in a row, so a layer of the reduced state follows
    assert reduced_a > reduced_n
    assert records[0][:3] == (reduced_n, reduced_a, reduced_b)


def test_peel_instances_exist_and_reduce_validly():
    found = list(_instances(100, lambda i: i.run.a <= i.n < i.run.b))
    assert Instance(5, ConsecutiveRun(4, 6)) in found
    assert Instance(9, ConsecutiveRun(5, 10)) in found
    for inst in found:
        partition, records = solve(inst, want_trace=True)
        singles = [t for t, block in partition.blocks.items() if block == (t,)]
        assert singles == list(range(inst.run.a, inst.n + 1))
        assert records[0][:3] == (inst.run.a - 1, inst.n + 1, inst.run.b)


# ---------------------------------------------------------------- layer


def test_layer_worked_example():
    c, m, low, pairs, reduced = _layer_step(14, 15, 20)
    assert (c, m, low) == (17, 2, 10)
    assert pairs == [(3, 12), (6, 10), (8, 9), (7, 11), (5, 14), (4, 13)]
    # P = [3..8] and Q = [9..14], one of each in every pair
    assert sorted(p for p, _ in pairs) == list(range(3, 9))
    assert sorted(q for _, q in pairs) == list(range(9, 15))
    assert reduced == (2, 3, 3)
    assert [_kind(t, c, m) for t in range(15, 21)] == [
        MIRROR_LOW,
        MIRROR_LOW,
        EXACT,
        MIRROR_HIGH,
        MIRROR_HIGH,
        OPEN,
    ]


def test_layer_small_examples():
    assert _layer_step(5, 7, 8) == (7, 0, None, [(3, 4), (2, 5)], (1, 1, 1))
    # nothing is left: the reduced state has n = 0 and the empty run a = b + 1
    assert _layer_step(2, 3, 3) == (3, 0, None, [(1, 2)], (0, 1, 0))


def test_layer_all_positive_deficits():
    # a > c: no zero-deficit target, every pair stays open
    c, m, low, pairs, reduced = _layer_step(9, 22, 23)
    assert (c, m, low) == (15, 0, None)
    assert pairs == [(7, 8), (6, 9)]
    assert reduced == (5, 7, 8)


def test_layer_conservation_and_sums_sweep():
    for inst in _instances(120, lambda i: i.run.a > i.n):
        n, a, b = inst.n, inst.run.a, inst.run.b
        c, m, low, pairs, reduced = _layer_step(n, a, b)
        s = b - a + 1
        assert len(pairs) == s
        assert sorted(e for pair in pairs for e in pair) == list(range(n - 2 * s + 1, n + 1))
        assert (low is None) == (m == 0)
        open_amounts = []
        for t, pair in zip(range(a, b + 1), pairs):
            if t - c <= m:
                assert sum(pair) == t
            else:
                assert sum(pair) == c
                open_amounts.append(t - c)
        assert reduced[0] == n - 2 * s
        assert open_amounts == list(range(reduced[1], reduced[2] + 1))


def test_layer_mirror_symmetry_sweep():
    seen_mirrors = 0
    for inst in _instances(200, lambda i: i.run.a > i.n):
        a = inst.run.a
        c, m, low, pairs, _ = _layer_step(inst.n, a, inst.run.b)
        if m == 0:
            continue
        seen_mirrors += 1
        for d in range(1, m + 1):
            lo, hi = pairs[c - d - a], pairs[c + d - a]
            assert _kind(c - d, c, m) == MIRROR_LOW and _kind(c + d, c, m) == MIRROR_HIGH
            x, xp = lo[1], hi[1]
            assert xp - x == d
            assert low <= x < xp <= low + 2 * m
            assert set(lo) | set(hi) == {x, xp, c - x, c - xp}
    assert seen_mirrors > 0


# ---------------------------------------------------------------- solve


def test_solve_worked_example():
    partition, records = solve(Instance(14, ConsecutiveRun(15, 20)), want_trace=True)
    assert partition.blocks == WORKED_EXAMPLE_BLOCKS
    assert [record[0] for record in records] == [14, 2]


def test_solve_identity():
    partition, records = solve(Instance(5, ConsecutiveRun(1, 5)))
    assert partition.blocks == {t: (t,) for t in range(1, 6)}
    assert records is None


def test_solve_small_example():
    partition, _ = solve(Instance(5, ConsecutiveRun(7, 8)))
    assert partition.blocks == {7: (3, 4), 8: (1, 2, 5)}


def test_solve_trace_optional():
    inst = Instance(14, ConsecutiveRun(15, 20))
    assert solve(inst)[1] is None
    assert solve(inst, want_trace=True)[1] is not None


@settings(max_examples=150, deadline=None)
@given(valid_instances())
def test_solve_passes_independent_verifier(inst):
    partition, _ = solve(inst)
    report = verify(inst.n, inst.run, partition)
    assert report.ok, report.violations


@settings(max_examples=30, deadline=None)
@given(valid_instances(max_n=150))
def test_solve_is_deterministic(inst):
    first, _ = solve(inst)
    second, _ = solve(inst)
    assert first == second
    assert json.dumps({str(t): first.blocks[t] for t in sorted(first.blocks)}) == json.dumps(
        {str(t): second.blocks[t] for t in sorted(second.blocks)}
    )


def test_solve_sweep_small():
    for inst in _instances(60):
        partition, _ = solve(inst)
        assert verify(inst.n, inst.run, partition).ok


# ---------------------------------------------------------------- reference


def test_solve_matches_reference_sweep_to_300():
    for inst in _instances(300):
        partition, records = reference_solve(inst)
        assert solve(inst)[0].blocks == partition.blocks, inst
        assert solve(inst, want_trace=True)[1] == records, inst


def test_solve_matches_reference_on_seeded_instances_to_1e5():
    for inst in seeded_instances(seed=20190716, max_n=10**5, drawn=24):
        assert solve(inst)[0].blocks == reference_solve(inst)[0].blocks, inst


def test_solve_traces_match_reference_to_1e4():
    for inst in seeded_instances(seed=7, max_n=10**4, drawn=24):
        partition, records = solve(inst, want_trace=True)
        expected_partition, expected_records = reference_solve(inst)
        assert partition.blocks == expected_partition.blocks, inst
        assert records == expected_records, inst
