"""Verifier findings, the exhaustive census, and the window-scan counter."""

from __future__ import annotations

import itertools
import tracemalloc
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircase_sums import oracle
from staircase_sums.construct import solve
from staircase_sums.oracle import (
    BRUTEFORCE_MAX,
    DUPLICATE_ELEMENT,
    FOREIGN_ELEMENT,
    MISSING_ELEMENT,
    WRONG_SUM,
    WRONG_TARGET_SET,
    count_runs_bruteforce,
    enumerate_all,
    verify,
)
from staircase_sums.runs import (
    ConsecutiveRun,
    Instance,
    Partition,
    enumerate_runs,
    odd_divisors,
    triangular,
)


def _partition(n, a, b, blocks):
    return Partition(n, ConsecutiveRun(a, b), {t: tuple(sorted(v)) for t, v in blocks.items()})


def _census_by_product(inst):
    """Independent census: try every assignment of elements to targets."""
    targets = list(inst.run.values())
    found = []
    for choice in itertools.product(range(len(targets)), repeat=inst.n):
        sums = [0] * len(targets)
        for e, ti in enumerate(choice, start=1):
            sums[ti] += e
        if sums == targets:
            blocks = {t: [] for t in targets}
            for e, ti in enumerate(choice, start=1):
                blocks[targets[ti]].append(e)
            found.append({t: tuple(v) for t, v in blocks.items()})
    return found


def _census_by_backtracking(n, a, b, cap):
    """Reference census: (count, first ``cap`` partitions) by plain backtracking.

    Elements go in descending order n..1, branching over targets in
    ascending order; that is the listing order ``enumerate_all`` must keep.
    Each partition is a tuple of per-target element tuples.
    """
    s = b - a + 1
    deficits = list(range(a, b + 1))
    assign = [0] * (n + 1)
    out = []
    count = 0

    def search(e, npos):
        nonlocal count
        if e == 0:
            count += 1
            if len(out) < cap:
                blocks = [[] for _ in range(s)]
                for x in range(1, n + 1):
                    blocks[assign[x]].append(x)
                out.append(tuple(tuple(blk) for blk in blocks))
            return
        if npos > e:
            # each remaining element can close at most one positive target
            return
        for ti in range(s):
            d = deficits[ti]
            if d >= e:
                deficits[ti] = d - e
                assign[e] = ti
                search(e - 1, npos - (d == e))
                deficits[ti] = d

    search(n, s)
    return count, out


def _listed(inst, limit=None):
    count, partitions = enumerate_all(inst, limit)
    return count, [tuple(p.blocks[t] for t in inst.run.values()) for p in partitions]


def _moves(state, e):
    """Yield (deficit, multiplicity, next state) for each place element e can go.

    ``state`` is the sorted tuple of positive deficits before e is placed; e
    can go to any deficit d >= e, and the copies of an equal d all lead to the
    same next state.  Each of the elements e-1..1 closes at most one deficit,
    so a next state with more than e-1 deficits is never yielded.
    """
    last = len(state)
    i = bisect_left(state, e)
    while i < last:
        d = state[i]
        j = i + 1
        while j < last and state[j] == d:
            j += 1
        if d == e:
            yield d, j - i, state[:i] + state[i + 1:]
        elif last < e:
            k = bisect_left(state, d - e, 0, i)
            yield d, j - i, state[:k] + (d - e,) + state[k:i] + state[i + 1:]
        i = j


def _count_by_moves(n, targets):
    """Reference count: the census's level loop, each state's moves taken from
    :func:`_moves`, a generator of the same moves kept apart from the package."""
    count, level = 0, {targets: 1}
    for e in range(n, 0, -1):
        below = {}
        for state, ways in level.items():
            if len(state) == 1:
                count += ways
                continue
            for _, mult, nxt in _moves(state, e):
                below[nxt] = below.get(nxt, 0) + mult * ways
        level = below
    return count


# ---------------------------------------------------------------- verify


def test_verify_accepts_solver_output():
    inst = Instance(14, ConsecutiveRun(15, 20))
    partition, _ = solve(inst)
    report = verify(14, inst.run, partition)
    assert report.ok and report.violations == ()


def test_verify_accepts_the_other_valid_partition():
    # the rebuilt-tableau figure uses a different valid split of {1..5}
    p = _partition(5, 7, 8, {8: {5, 3}, 7: {4, 2, 1}})
    assert verify(5, p.run, p).ok


def test_verify_reports_wrong_sums():
    p = _partition(5, 7, 8, {7: {1, 2, 3}, 8: {4, 5}})
    report = verify(5, p.run, p)
    assert not report.ok
    assert (WRONG_SUM, 7, 6) in report.violations
    assert (WRONG_SUM, 8, 9) in report.violations


def test_verify_reports_missing_and_duplicate():
    p = _partition(5, 7, 8, {7: {3, 4}, 8: {1, 3, 4}})
    report = verify(5, p.run, p)
    kinds = {v[0] for v in report.violations}
    assert DUPLICATE_ELEMENT in kinds
    assert MISSING_ELEMENT in kinds


def test_verify_reports_wrong_target_set():
    p = _partition(5, 7, 8, {7: {3, 4}, 9: {1, 2, 5}})
    report = verify(5, ConsecutiveRun(7, 8), p)
    assert any(v[0] == WRONG_TARGET_SET for v in report.violations)


def test_verify_reports_foreign_elements():
    # sums, targets, and coverage of {1..2} are all fine; only 0 is alien
    p = _partition(2, 3, 3, {3: {0, 1, 2}})
    report = verify(2, p.run, p)
    assert report.violations == ((FOREIGN_ELEMENT, 0),)


def test_verify_reports_a_duplicate_and_a_gap_that_keep_the_count_and_the_ends():
    # four elements from 1 to 4 that sum to T(4), yet 1 and 4 come twice and 2 and 3 never
    run = ConsecutiveRun(10, 10)
    p = Partition(4, run, {10: (1, 1, 4, 4)})
    report = verify(4, run, p)
    assert report.violations == ((DUPLICATE_ELEMENT, 1), (DUPLICATE_ELEMENT, 4),
                                 (MISSING_ELEMENT, 2), (MISSING_ELEMENT, 3))
    assert report == _verify_per_element(4, run, p)


def test_verify_builds_no_list_of_1_to_n():
    # the sorted copy of 10^5 elements is 0.8 MB; a list of 1..n would add
    # 3.6 MB more, of new ints
    n = 10**5
    inst = Instance(n, ConsecutiveRun(triangular(n), triangular(n)))
    partition, _ = solve(inst)
    tracemalloc.start()
    try:
        assert verify(n, inst.run, partition).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000


def test_verify_builds_no_target_sets():
    # the widest layer's run has 34,375 targets; a set of them and a set of the
    # keys would add 5.3 MB to the 1.5 MB of sorted keys and elements
    n, run = 10**5, ConsecutiveRun(128269, 162643)
    partition, _ = solve(Instance(n, run))
    tracemalloc.start()
    try:
        assert verify(n, run, partition).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_verify_ok_iff_no_violations():
    good = _partition(2, 3, 3, {3: {1, 2}})
    assert verify(2, good.run, good) == verify(2, good.run, good)
    assert verify(2, good.run, good).ok


@pytest.mark.parametrize("n,a,b", [(5, 7, 8), (14, 15, 20), (9, 22, 23), (20, 27, 33)])
def test_verify_mutation_robustness(n, a, b):
    inst = Instance(n, ConsecutiveRun(a, b))
    partition, _ = solve(inst)
    for t in partition.blocks:
        for e in partition.blocks[t]:
            mutated = {
                u: tuple(x for x in block if (u, x) != (t, e))
                for u, block in partition.blocks.items()
            }
            report = verify(n, inst.run, Partition(n, inst.run, mutated))
            assert not report.ok


def _verify_per_element(n, run, partition):
    """Reference verifier: one set lookup and insert per element, then the
    findings from set differences with {1..n}."""
    violations = []
    expected_targets = set(run.values())
    actual_targets = set(partition.blocks)
    if actual_targets != expected_targets:
        diff = tuple(sorted(actual_targets ^ expected_targets))
        violations.append((WRONG_TARGET_SET,) + diff)

    seen = set()
    duplicates = set()
    for t in sorted(partition.blocks):
        block = partition.blocks[t]
        if sum(block) != t:
            violations.append((WRONG_SUM, t, sum(block)))
        for e in block:
            if e in seen:
                duplicates.add(e)
            seen.add(e)
    for e in sorted(duplicates):
        violations.append((DUPLICATE_ELEMENT, e))

    universe = set(range(1, n + 1))
    for e in sorted(universe - seen):
        violations.append((MISSING_ELEMENT, e))
    for e in sorted(seen - universe):
        violations.append((FOREIGN_ELEMENT, e))

    return oracle.VerifyReport(not violations, tuple(violations))


_MUTATIONS = ("duplicate-in-block", "duplicate-across", "drop", "foreign",
              "wrong-sum", "missing-key", "extra-key", "empty-block")


def _mutate(blocks, kind, n, draw):
    """Apply one mutation of ``kind`` to ``blocks`` (target -> element list)."""
    full = sorted(t for t, block in blocks.items() if block)
    if kind == "extra-key":
        extra = draw(st.integers(-3, 10**6).filter(lambda t: t not in blocks))
        blocks[extra] = draw(st.lists(st.integers(-3, n + 3), max_size=3))
    elif not full:
        return
    elif kind == "missing-key":
        del blocks[draw(st.sampled_from(sorted(blocks)))]
    elif kind == "empty-block":
        blocks[draw(st.sampled_from(full))] = []
    elif kind == "foreign":
        block = blocks[draw(st.sampled_from(full))]
        alien = draw(st.sampled_from([0, -1, -n, n + 1, 2 * n]))
        block.insert(draw(st.integers(0, len(block))), alien)
    else:
        # take an element e out of block t; each kind decides where it goes
        t = draw(st.sampled_from(full))
        e = blocks[t].pop(draw(st.integers(0, len(blocks[t]) - 1)))
        others = [u for u in sorted(blocks) if u != t]
        if kind == "duplicate-in-block":
            blocks[t] += [e, e]
        elif kind == "duplicate-across" and others:
            blocks[t].append(e)
            blocks[draw(st.sampled_from(others))].append(e)
        elif kind == "wrong-sum" and others:
            # e moves to another block: every element is still there once
            blocks[draw(st.sampled_from(others))].append(e)
        elif kind != "drop":  # one block only: e goes back
            blocks[t].append(e)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 60), st.data())
def test_verify_matches_the_per_element_reference(n, data):
    run = data.draw(st.sampled_from(enumerate_runs(triangular(n))))
    partition, _ = solve(Instance(n, run))
    blocks = {t: list(block) for t, block in partition.blocks.items()}
    for kind in data.draw(st.lists(st.sampled_from(_MUTATIONS), max_size=3)):
        _mutate(blocks, kind, n, data.draw)
    mutated = Partition(n, run, {t: tuple(block) for t, block in blocks.items()})
    assert verify(n, run, mutated) == _verify_per_element(n, run, mutated)


# ---------------------------------------------------------------- census


def test_enumerate_all_small_example():
    inst = Instance(5, ConsecutiveRun(7, 8))
    count, partitions = enumerate_all(inst, limit=None)
    assert count == 3
    assert [p.blocks for p in partitions] == [
        {7: (2, 5), 8: (1, 3, 4)},
        {7: (3, 4), 8: (1, 2, 5)},
        {7: (1, 2, 4), 8: (3, 5)},
    ]


def test_enumerate_all_matches_product_census():
    checked = 0
    for n in range(1, 9):
        for run in enumerate_runs(triangular(n)):
            if run.length() ** n > 2_000_000:
                continue
            inst = Instance(n, run)
            count, partitions = enumerate_all(inst, limit=None)
            expected = _census_by_product(inst)
            assert count == len(expected)
            assert sorted(map(repr, (p.blocks for p in partitions))) == sorted(
                map(repr, expected)
            )
            checked += 1
    assert checked >= 10


@pytest.mark.parametrize(
    "n,a,b,expected",
    [(2, 3, 3, 1), (5, 1, 5, 1), (5, 7, 8, 3), (12, 25, 27, 593), (12, 18, 21, 901)],
)
def test_enumerate_all_counts(n, a, b, expected):
    assert enumerate_all(Instance(n, ConsecutiveRun(a, b)))[0] == expected


def test_enumerate_all_matches_backtracking_reference():
    checked = 0
    for n in range(1, 13):
        for run in enumerate_runs(triangular(n)):
            inst = Instance(n, run)
            assert _listed(inst) == _census_by_backtracking(n, run.a, run.b, 10**6)
            checked += 1
    assert checked == 38


def test_count_loop_makes_the_listings_moves():
    # every run of T(n) for n <= 15, six and seven targets, and two-target
    # runs, whose states hold one or two deficits
    instances = [(n, tuple(run.values())) for n in range(1, 16)
                 for run in enumerate_runs(triangular(n))]
    assert len(instances) == 54
    instances += [(17, tuple(range(23, 29))), (20, tuple(range(27, 34))), (13, (45, 46)),
                  (30, (232, 233)), (61, (945, 946))]
    for n, targets in instances:
        assert oracle._count_partitions(n, targets) == _count_by_moves(n, targets), (n, targets)


@pytest.mark.parametrize("n,a,b,cap", [(14, 15, 20, 40), (12, 25, 27, 7)])
def test_enumerate_all_capped_listing_matches_backtracking_reference(n, a, b, cap):
    inst = Instance(n, ConsecutiveRun(a, b))
    assert _listed(inst, cap) == _census_by_backtracking(n, a, b, cap)


def test_enumerate_all_deep_forced_count():
    n = 3000
    inst = Instance(n, ConsecutiveRun(triangular(n), triangular(n)))
    count, partitions = enumerate_all(inst, limit=None)
    assert count == 1
    assert partitions[0].blocks == {triangular(n): tuple(range(1, n + 1))}


def test_deep_listing_holds_one_state_per_level():
    # one target, T(n): the search goes n levels deep, and keeps one state
    # and a few ints per level, not a table of each level's moves
    n = 20_000
    inst = Instance(n, ConsecutiveRun(triangular(n), triangular(n)))
    tracemalloc.start()
    try:
        count, partitions = enumerate_all(inst, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (count, len(partitions)) == (1, 1)
    assert peak < 250 * n


def test_enumerate_all_refuses_past_state_cap(monkeypatch):
    # (14,15,20) builds 17,605 deficit entries and (12,25,27) 782: each answers
    # at a bound of its exact total and is refused one below it
    for n, a, b, total, count in [(14, 15, 20, 17_605, 1707), (12, 25, 27, 782, 593)]:
        inst = Instance(n, ConsecutiveRun(a, b))
        monkeypatch.setattr(oracle, "CENSUS_MAX_ENTRIES", total)
        assert enumerate_all(inst)[0] == count
        monkeypatch.setattr(oracle, "CENSUS_MAX_ENTRIES", total - 1)
        with pytest.raises(ValueError, match=f"more than {total - 1} deficit entries"):
            enumerate_all(inst)
    bound = 10_000
    monkeypatch.setattr(oracle, "CENSUS_MAX_ENTRIES", bound)
    # 385 targets: every state of the first level is 385 entries wide, so the
    # bound must be checked as each one is built, not once per state expanded
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="deficit entries"):
            enumerate_all(Instance(1000, ConsecutiveRun(1108, 1492)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * bound


def test_enumerate_all_count_regression_six_target_instance():
    assert enumerate_all(Instance(14, ConsecutiveRun(15, 20)))[0] == 1707


def test_enumerate_all_cap_truncates_list_but_not_count():
    inst = Instance(5, ConsecutiveRun(7, 8))
    count, partitions = enumerate_all(inst, limit=2)
    assert count == 3
    assert len(partitions) == 2
    full = enumerate_all(inst, limit=None)[1]
    assert partitions == full[:2]
    # the default limit, 0, lists nothing; a limit past the count lists all
    assert enumerate_all(inst) == (3, [])
    assert enumerate_all(inst, limit=10**9)[1] == full


def test_enumerate_all_contains_solver_output():
    for n in range(1, 11):
        for run in enumerate_runs(triangular(n)):
            inst = Instance(n, run)
            _, partitions = enumerate_all(inst, limit=None)
            constructed, _ = solve(inst)
            assert constructed in partitions


# ---------------------------------------------------------------- window scan


def count_runs_bruteforce_upto(limit: int) -> list[int]:
    """Window-scan counts for every value <= limit in a single pass.

    ``result[v] == count_runs_bruteforce(v)`` for 1 <= v <= limit (index 0 is
    unused); the per-value equivalence is pinned by tests.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if limit > BRUTEFORCE_MAX:
        raise ValueError(f"limit must be <= {BRUTEFORCE_MAX}, got {limit}")
    counts = [0] * (limit + 1)
    for a in range(1, limit + 1):
        total = 0
        for b in range(a, limit + 1):
            total += b
            if total > limit:
                break
            counts[total] += 1
    return counts


def odd_divisor_counts_upto(limit: int) -> list[int]:
    """Number of odd divisors of every value <= limit, by a sieve.

    ``result[v]`` counts the odd d dividing v, for 1 <= v <= limit (index 0 is
    unused): each odd d adds one to each of its multiples.  No value is
    factored, so the counts are independent of
    :func:`staircase_sums.runs.odd_divisors`.
    """
    if not 1 <= limit <= BRUTEFORCE_MAX:
        raise ValueError(f"limit must be in 1..{BRUTEFORCE_MAX}, got {limit}")
    counts = [0] * (limit + 1)
    for d in range(1, limit + 1, 2):
        for multiple in range(d, limit + 1, d):
            counts[multiple] += 1
    return counts


@pytest.mark.parametrize("value,expected", [(15, 4), (1, 1), (105, 8), (8, 1)])
def test_count_runs_bruteforce_examples(value, expected):
    assert count_runs_bruteforce(value) == expected


def test_count_runs_bruteforce_bounds():
    with pytest.raises(ValueError):
        count_runs_bruteforce(0)
    with pytest.raises(ValueError):
        count_runs_bruteforce(10**6 + 1)
    assert count_runs_bruteforce(10**6) == len(odd_divisors(10**6))


@given(st.integers(min_value=1, max_value=10**5))
@settings(max_examples=60)
def test_count_runs_bruteforce_matches_bijection(value):
    assert count_runs_bruteforce(value) == len(odd_divisors(value))


def test_batched_counts_match_per_value_calls():
    counts = count_runs_bruteforce_upto(2000)
    for value in range(1, 2001):
        assert counts[value] == count_runs_bruteforce(value)
