"""Difference pairs, peel/layer reductions, and the full solver."""

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
    LayerTrace,
    Partition,
    difference_pairs,
    layer,
    peel,
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


def reference_solve(inst: Instance) -> tuple[Partition, list[LayerTrace]]:
    """The solver as one public peel or layer per step, with the full invariant each step.

    ``solve`` takes a whole stretch of plain layers in one step; this is the
    per-layer loop it must agree with, block for block and trace for trace.
    """
    blocks: dict[int, list[int]] = {t: [] for t in inst.run.values()}
    # pending amount still needed -> original target
    owner: dict[int, int] = {t: t for t in inst.run.values()}
    traces: list[LayerTrace] = []
    cur: Instance | None = inst
    while cur is not None:
        assert sorted(owner) == list(cur.run.values())
        assert sum(owner) == triangular(cur.n)
        if cur.run.a <= cur.n:
            singles, reduced = peel(cur)
            for amount, block in singles:
                blocks[owner.pop(amount)].extend(block)
        else:
            trace, closed, open_pairs, reduced = layer(cur)
            traces.append(trace)
            for amount, block in closed:
                blocks[owner.pop(amount)].extend(block)
            next_owner: dict[int, int] = {}
            for amount, pair in open_pairs:
                target = owner.pop(amount)
                blocks[target].extend(pair)
                next_owner[amount - trace.c] = target
            assert not owner
            owner = next_owner
        cur = reduced
    assert not owner
    partition = Partition(
        n=inst.n,
        run=inst.run,
        blocks={t: tuple(sorted(blocks[t])) for t in inst.run.values()},
    )
    return partition, traces


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
    assert difference_pairs(m, low).pairs == expected


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
    dp = difference_pairs(m, low)
    values = [v for pair in dp.pairs for v in pair]
    assert len(dp.pairs) == m
    assert len(set(values)) == 2 * m
    assert min(values) == low
    assert max(values) <= 2 * m + low
    assert all(hi - lo == i for i, (lo, hi) in enumerate(dp.pairs, start=1))


def test_difference_pairs_m1_stays_below_window_top():
    for low in (1, 7, 10**6):
        dp = difference_pairs(1, low)
        assert max(v for pair in dp.pairs for v in pair) == 2 + low - 1


# ---------------------------------------------------------------- peel


def test_peel_identity_run():
    singles, reduced = peel(Instance(5, ConsecutiveRun(1, 5)))
    assert singles == [(t, (t,)) for t in range(1, 6)]
    assert reduced is None


@pytest.mark.parametrize(
    "n,a,b,reduced_n,reduced_a,reduced_b",
    [
        (5, 4, 6, 3, 6, 6),
        (9, 5, 10, 4, 10, 10),
        (20, 7, 21, 6, 21, 21),
    ],
)
def test_peel_examples(n, a, b, reduced_n, reduced_a, reduced_b):
    inst = Instance(n, ConsecutiveRun(a, b))
    singles, reduced = peel(inst)
    assert singles == [(t, (t,)) for t in range(a, n + 1)]
    assert reduced == Instance(reduced_n, ConsecutiveRun(reduced_a, reduced_b))
    # a peel never applies twice in a row
    assert reduced.run.a > reduced.n


def test_peel_rejects_runs_above_n():
    with pytest.raises(ValueError):
        peel(Instance(14, ConsecutiveRun(15, 20)))


def test_peel_instances_exist_and_reduce_validly():
    found = list(_instances(100, lambda i: i.run.a <= i.n < i.run.b))
    assert Instance(5, ConsecutiveRun(4, 6)) in found
    assert Instance(9, ConsecutiveRun(5, 10)) in found
    for inst in found:
        singles, reduced = peel(inst)
        assert len(singles) == inst.n - inst.run.a + 1
        assert reduced is not None  # b > n leaves something to do


# ---------------------------------------------------------------- layer


def test_layer_worked_example():
    trace, closed, open_pairs, reduced = layer(Instance(14, ConsecutiveRun(15, 20)))
    assert (trace.s, trace.c, trace.m, trace.low) == (6, 17, 2, 10)
    assert trace.p_range == (3, 8)
    assert trace.q_range == (9, 14)
    assert trace.deficits() == [2, 1, 0, -1, -2, -3]
    assert dict(closed) == {
        15: (3, 12),
        16: (6, 10),
        17: (8, 9),
        18: (7, 11),
        19: (5, 14),
    }
    assert open_pairs == [(20, (4, 13))]
    assert reduced == Instance(2, ConsecutiveRun(3, 3))
    kinds = {asg.target: asg.kind for asg in trace.assignments}
    assert kinds == {
        15: MIRROR_LOW,
        16: MIRROR_LOW,
        17: EXACT,
        18: MIRROR_HIGH,
        19: MIRROR_HIGH,
        20: OPEN,
    }


def test_layer_small_examples():
    trace, closed, open_pairs, reduced = layer(Instance(5, ConsecutiveRun(7, 8)))
    assert (trace.s, trace.c, trace.m) == (2, 7, 0)
    assert closed == [(7, (3, 4))]
    assert open_pairs == [(8, (2, 5))]
    assert reduced == Instance(1, ConsecutiveRun(1, 1))

    trace, closed, open_pairs, reduced = layer(Instance(2, ConsecutiveRun(3, 3)))
    assert (trace.s, trace.c, trace.m) == (1, 3, 0)
    assert closed == [(3, (1, 2))]
    assert open_pairs == []
    assert reduced is None


def test_layer_all_positive_deficits():
    # a > c: no zero-deficit target, every pair stays open
    trace, closed, open_pairs, reduced = layer(Instance(9, ConsecutiveRun(22, 23)))
    assert (trace.s, trace.c, trace.m) == (2, 15, 0)
    assert closed == []
    assert open_pairs == [(22, (7, 8)), (23, (6, 9))]
    assert reduced == Instance(5, ConsecutiveRun(7, 8))


def test_layer_rejects_peelable_instances():
    with pytest.raises(ValueError):
        layer(Instance(5, ConsecutiveRun(1, 5)))


def test_layer_conservation_and_sums_sweep():
    for inst in _instances(120, lambda i: i.run.a > i.n):
        trace, closed, open_pairs, reduced = layer(inst)
        n, s, c = inst.n, trace.s, trace.c
        consumed = [e for _, pair in closed for e in pair]
        consumed += [e for _, pair in open_pairs for e in pair]
        assert sorted(consumed) == list(range(n - 2 * s + 1, n + 1))
        for target, pair in closed:
            assert sum(pair) == target
        for target, pair in open_pairs:
            assert sum(pair) == c
            assert target - c > trace.m
        if reduced is None:
            assert not open_pairs
        else:
            assert reduced.n == n - 2 * s
            assert sorted(t - c for t, _ in open_pairs) == list(reduced.run.values())


def test_layer_mirror_symmetry_sweep():
    seen_mirrors = 0
    for inst in _instances(200, lambda i: i.run.a > i.n):
        trace, _, _, _ = layer(inst)
        if trace.m == 0:
            continue
        seen_mirrors += 1
        by_target = {asg.target: asg for asg in trace.assignments}
        for d in range(1, trace.m + 1):
            lo = by_target[trace.c - d]
            hi = by_target[trace.c + d]
            assert lo.kind == MIRROR_LOW and hi.kind == MIRROR_HIGH
            x, xp = lo.pair[1], hi.pair[1]
            assert xp - x == d
            assert set(lo.pair) | set(hi.pair) == {
                x,
                xp,
                trace.c - x,
                trace.c - xp,
            }
    assert seen_mirrors > 0


# ---------------------------------------------------------------- solve


def test_solve_worked_example():
    partition, traces = solve(Instance(14, ConsecutiveRun(15, 20)), want_trace=True)
    assert partition.blocks == WORKED_EXAMPLE_BLOCKS
    assert [tr.n for tr in traces] == [14, 2]


def test_solve_identity():
    partition, traces = solve(Instance(5, ConsecutiveRun(1, 5)))
    assert partition.blocks == {t: (t,) for t in range(1, 6)}
    assert traces is None


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
        partition, traces = reference_solve(inst)
        assert solve(inst)[0].blocks == partition.blocks, inst
        assert solve(inst, want_trace=True)[1] == traces, inst


def test_solve_matches_reference_on_seeded_instances_to_1e5():
    for inst in seeded_instances(seed=20190716, max_n=10**5, drawn=24):
        assert solve(inst)[0].blocks == reference_solve(inst)[0].blocks, inst


def test_solve_traces_match_reference_to_1e4():
    for inst in seeded_instances(seed=7, max_n=10**4, drawn=24):
        partition, traces = solve(inst, want_trace=True)
        expected_partition, expected_traces = reference_solve(inst)
        assert partition.blocks == expected_partition.blocks, inst
        assert traces == expected_traces, inst
