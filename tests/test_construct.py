"""Difference pairs, the layer step, peels, and the full solver."""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircase_sums import construct
from staircase_sums.construct import _layer_step, _stretch_start, difference_pairs, solve
from staircase_sums.oracle import verify
from staircase_sums.runs import ConsecutiveRun, Instance, Partition, enumerate_runs, triangular

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


def reference_difference_pairs(m: int, low: int) -> tuple[tuple[int, int], ...]:
    """``difference_pairs`` one pair at a time, as an independent reference.

    Pair i (differences 1..m) is built from its own index: odd i nest outward
    from (ceil(m/2), ceil(m/2)+1), even i from (ceil(m/2)+m, 2m+2-floor(m/2)),
    all shifted so that the smallest value is ``low``.
    """
    half_up = (m + 1) // 2
    shift = low - 1
    pairs = []
    for i in range(1, m + 1):
        if i % 2 == 1:
            k = (i - 1) // 2
            lo, hi = half_up - k, half_up + 1 + k
        else:
            k = (i - 2) // 2
            lo, hi = half_up + m - k, 2 * m + 2 - m // 2 + k
        pairs.append((lo + shift, hi + shift))
    return tuple(pairs)


def reference_layer_step(n: int, a: int, b: int) -> tuple:
    """``_layer_step`` one target at a time, as an independent reference.

    Each amount gets a slot; the window's difference pairs fill the slots of
    the amounts c - d and c + d, and the open slots then take, in order, the
    Q values that no pair used.  The pairs are flattened only at the end.
    """
    s = b - a + 1
    c = 2 * n - 2 * s + 1
    m = max(0, c - a)
    pairs: list[tuple[int, int] | None] = [None] * s
    used_q: set[int] = set()
    window_low = None
    if m >= 1:
        window_low = n - 2 * m
        for d, (x, xp) in enumerate(reference_difference_pairs(m, window_low), start=1):
            pairs[m - d] = (c - xp, x)
            pairs[m + d] = (c - x, xp)
            used_q.update((x, xp))
    leftover = [i for i in range(s) if pairs[i] is None]
    leftover_q = [q for q in range(n - s + 1, n + 1) if q not in used_q]
    assert len(leftover) == len(leftover_q)
    for i, q in zip(leftover, leftover_q):
        pairs[i] = (c - q, q)
    ends = [e for pair in pairs for e in pair]
    return c, m, window_low, ends, (n - 2 * s, max(m + 1, a - c), b - c)


def reference_solve(inst: Instance) -> tuple[Partition, list[tuple]]:
    """The solver as one peel or one ``reference_layer_step`` per step, checking
    the full invariant at each step.

    ``solve`` takes a whole stretch of plain layers in one step; this is the
    per-layer loop it must agree with, block for block and record for record.
    Each record is ``(n, a, b, c, m, low, ends)``, ``ends`` the layer's 2s
    pair ends.
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
        c, m, low, ends, reduced = reference_layer_step(n, a, b)
        records.append((n, a, b, c, m, low, ends))
        next_owner: dict[int, int] = {}
        for amount, pair in zip(range(a, b + 1), zip(ends[0::2], ends[1::2])):
            target = owner.pop(amount)
            blocks[target].extend(pair)
            if amount - c > m:
                next_owner[amount - c] = target
            else:
                assert sum(pair) == amount
        owner = next_owner
        n -= len(ends)
        assert reduced[0] == n
        if owner:
            assert reduced[1:] == (min(owner), max(owner))
    assert n == 0
    blocks = {t: tuple(sorted(blocks[t])) for t in inst.run.values()}
    partition = Partition(inst.n, inst.run, blocks)
    return partition, records


def trace_rows(trace) -> list[tuple]:
    """``solve``'s trace columns as the records ``reference_solve`` builds: one
    ``(n, a, b, c, m, low, ends)`` per layer, ``ends`` its 2s pair ends."""
    *columns, ends = trace
    rows, start = [], 0
    for n, a, b, c, m, low in zip(*columns):
        stop = start + 2 * (b - a + 1)
        rows.append((n, a, b, c, m, low, ends[start:stop]))
        start = stop
    return rows


def windowed(n: int, a: int, b: int) -> bool:
    """Whether the state (n, a, b) is a layer with a difference-pair window
    (m = c - a >= 1), which under the sum invariant means 2s < n <= 3s - 2."""
    return a > n and n <= 3 * (b - a + 1) - 2


def layer_states(max_n: int):
    """Every layer state (n, a, b) that the per-layer loop reaches from a run
    of T(n), n <= max_n."""
    for inst in _instances(max_n):
        n, a, b = inst.n, inst.run.a, inst.run.b
        while a <= b:
            if a <= n:
                n, a = a - 1, n + 1
            else:
                yield n, a, b
                n, a, b = reference_layer_step(n, a, b)[4]


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
        (1, 1, ([1], [2])),
        (2, 10, ([10, 12], [11, 14])),
        (3, 1, ([2, 5, 1], [3, 7, 4])),
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
    xs, xps = difference_pairs(m, low)
    values = xs + xps
    assert len(xs) == len(xps) == m
    assert len(set(values)) == 2 * m
    assert min(values) == low
    assert max(values) <= 2 * m + low
    assert [xp - x for x, xp in zip(xs, xps)] == list(range(1, m + 1))


def test_difference_pairs_match_the_per_pair_reference():
    # m = 2982 is the window of the widest layer, [128269..162643] over 10^5
    for m in [*range(1, 1001), 2982]:
        for low in (1, 7, 10**6):
            xs, xps = difference_pairs(m, low)
            assert (xs, xps) == tuple(map(list, zip(*reference_difference_pairs(m, low)))), (m, low)
            spare = set(range(low, low + 2 * m + 1)).difference(xs, xps)
            assert spare == {low + (m - 1) // 2 + m + 1}, (m, low)


def test_difference_pairs_m1_stays_below_window_top():
    for low in (1, 7, 10**6):
        xs, xps = difference_pairs(1, low)
        assert max(xs + xps) == 2 + low - 1


# ---------------------------------------------------------------- peel


def test_peel_identity_run():
    partition, trace = solve(Instance(5, ConsecutiveRun(1, 5)), want_trace=True)
    assert partition.blocks == {t: (t,) for t in range(1, 6)}
    assert trace == ([], [], [], [], [], [], [])  # nothing is left after the peel


@pytest.mark.parametrize(
    "n,a,b,reduced_n,reduced_a,reduced_b",
    [
        (5, 4, 6, 3, 6, 6),
        (9, 5, 10, 4, 10, 10),
        (20, 7, 21, 6, 21, 21),
    ],
)
def test_peel_examples(n, a, b, reduced_n, reduced_a, reduced_b):
    partition, trace = solve(Instance(n, ConsecutiveRun(a, b)), want_trace=True)
    assert all(partition.blocks[t] == (t,) for t in range(a, n + 1))
    # a peel never applies twice in a row, so a layer of the reduced state follows
    assert reduced_a > reduced_n
    assert trace_rows(trace)[0][:3] == (reduced_n, reduced_a, reduced_b)


def test_peel_instances_exist_and_reduce_validly():
    found = list(_instances(100, lambda i: i.run.a <= i.n < i.run.b))
    assert Instance(5, ConsecutiveRun(4, 6)) in found
    assert Instance(9, ConsecutiveRun(5, 10)) in found
    for inst in found:
        partition, trace = solve(inst, want_trace=True)
        singles = [t for t, block in partition.blocks.items() if block == (t,)]
        assert singles == list(range(inst.run.a, inst.n + 1))
        assert trace_rows(trace)[0][:3] == (inst.run.a - 1, inst.n + 1, inst.run.b)


# ---------------------------------------------------------------- layer


def test_layer_worked_example():
    c, m, low, ends, reduced = _layer_step(14, 15, 20)
    assert (c, m, low) == (17, 2, 10)
    assert ends == [3, 12, 6, 10, 8, 9, 7, 11, 5, 14, 4, 13]
    # P = [3..8] and Q = [9..14], one of each in every pair
    assert sorted(ends[0::2]) == list(range(3, 9))
    assert sorted(ends[1::2]) == list(range(9, 15))
    assert reduced == (2, 3, 3)


def _solved_in_the_stretch(n, a, b, rows):
    # a windowless layer is a stretch's, not _layer_step's
    assert trace_rows(solve(Instance(n, ConsecutiveRun(a, b)), True)[1]) == rows
    with pytest.raises(AssertionError, match="windowless"):
        _layer_step(n, a, b)


def test_layer_small_examples():
    # closing layers (a = c): the last layer of a stretch
    _solved_in_the_stretch(5, 7, 8, [(5, 7, 8, 7, 0, None, [3, 4, 2, 5])])
    # nothing is left: the reduced state has n = 0
    _solved_in_the_stretch(2, 3, 3, [(2, 3, 3, 3, 0, None, [1, 2])])


def test_layer_all_positive_deficits():
    # a > c: no zero-deficit target, every pair stays open for the closing
    # layer (5, 7, 8) that follows in the same stretch
    _solved_in_the_stretch(9, 22, 23, [(9, 22, 23, 15, 0, None, [7, 8, 6, 9]),
                                       (5, 7, 8, 7, 0, None, [3, 4, 2, 5])])


def test_solve_calls_the_layer_step_only_on_windowed_layers(monkeypatch):
    calls = []

    def recording(n, a, b):
        calls.append((n, a, b))
        return _layer_step(n, a, b)

    monkeypatch.setattr(construct, "_layer_step", recording)
    for inst in _instances(300):
        solve(inst)
    assert calls
    for n, a, b in calls:
        s = b - a + 1
        m = 2 * n - 2 * s + 1 - a  # m = c - a
        # a windowed layer never has n = 2s, and its window fits in Q
        assert m >= 1 and 2 * s < n <= 3 * s - 2 and s >= 2 * m + 1, (n, a, b)


def _reduced_run_one_high(n, a, b):
    c, m, low, ends, (n, a, b) = _layer_step(n, a, b)
    return c, m, low, ends, (n, a + 1, b + 1)


def _one_high_after_a_layer(a, c, s, j):
    return _stretch_start(a, c, s, j) + (j > 0)


@pytest.mark.parametrize("name,defect,reached", [
    ("_layer_step", _reduced_run_one_high, 55),
    ("_stretch_start", _one_high_after_a_layer, 633),
])
def test_a_planted_solver_defect_is_refused_by_the_state_check(monkeypatch, name, defect, reached):
    # every instance to n = 100 whose solve reaches the defect fails the check
    # of the pending amounts; the others are solved as before
    calls = []
    monkeypatch.setattr(construct, name, lambda *args: calls.append(args) or defect(*args))
    instances = list(_instances(100))
    refused = 0
    for inst in instances:
        calls.clear()
        try:
            solve(inst)
        except AssertionError as exc:
            assert calls and "pending amounts out of sync" in str(exc), inst
            refused += 1
        else:
            assert not calls, inst
    assert (refused, len(instances)) == (reached, 733)


def test_layer_conservation_and_sums_sweep():
    for inst in _instances(120, lambda i: windowed(i.n, i.run.a, i.run.b)):
        n, a, b = inst.n, inst.run.a, inst.run.b
        c, m, low, ends, reduced = _layer_step(n, a, b)
        s = b - a + 1
        assert len(ends) == 2 * s
        assert sorted(ends) == list(range(n - 2 * s + 1, n + 1))
        assert m == c - a >= 1 and low == n - 2 * m
        open_amounts = []
        for t, p, q in zip(range(a, b + 1), ends[0::2], ends[1::2]):
            if t - c <= m:
                assert p + q == t
            else:
                assert p + q == c
                open_amounts.append(t - c)
        assert reduced[0] == n - 2 * s
        assert open_amounts == list(range(reduced[1], reduced[2] + 1))


def test_layer_step_matches_the_per_target_reference():
    wide = [(100000, 128269, 162643), (10000, 12888, 16312)]
    for state in [*filter(lambda state: windowed(*state), layer_states(300)), *wide]:
        assert _layer_step(*state) == reference_layer_step(*state), state


def test_layer_mirror_symmetry_sweep():
    instances = list(_instances(200, lambda i: windowed(i.n, i.run.a, i.run.b)))
    assert instances
    for inst in instances:
        a = inst.run.a
        c, m, low, ends, _ = _layer_step(inst.n, a, inst.run.b)
        for d in range(1, m + 1):
            # amount t has the ends 2(t - a) and 2(t - a) + 1
            i, j = 2 * (c - d - a), 2 * (c + d - a)
            lo, hi = ends[i:i + 2], ends[j:j + 2]
            x, xp = lo[1], hi[1]
            assert xp - x == d
            assert low <= x < xp <= low + 2 * m
            assert set(lo) | set(hi) == {x, xp, c - x, c - xp}


# ---------------------------------------------------------------- solve


def test_solve_worked_example():
    partition, trace = solve(Instance(14, ConsecutiveRun(15, 20)), want_trace=True)
    assert partition.blocks == WORKED_EXAMPLE_BLOCKS
    assert trace[0] == [14, 2]  # the n of each layer


def test_solve_identity():
    partition, trace = solve(Instance(5, ConsecutiveRun(1, 5)))
    assert partition.blocks == {t: (t,) for t in range(1, 6)}
    assert trace is None


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
        assert trace_rows(solve(inst, want_trace=True)[1]) == records, inst


def test_solve_matches_reference_on_seeded_instances_to_1e5():
    for inst in seeded_instances(seed=20190716, max_n=10**5, drawn=24):
        assert solve(inst)[0].blocks == reference_solve(inst)[0].blocks, inst


def test_solve_traces_match_reference_to_1e4():
    for inst in seeded_instances(seed=7, max_n=10**4, drawn=24):
        partition, trace = solve(inst, want_trace=True)
        expected_partition, expected_records = reference_solve(inst)
        assert partition.blocks == expected_partition.blocks, inst
        assert trace_rows(trace) == expected_records, inst


def test_trace_columns_have_one_entry_per_layer_and_2s_pair_ends():
    for inst in _instances(120):
        trace = solve(inst, want_trace=True)[1]
        *columns, ends = trace
        assert len(trace) == 7
        assert len({len(column) for column in columns}) == 1, inst
        as_, bs = columns[1:3]
        assert len(ends) == sum(2 * (b - a + 1) for a, b in zip(as_, bs)), inst
