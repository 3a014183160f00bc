"""Independent checking and exhaustive census of block partitions.

Nothing here shares code with :mod:`staircase_sums.construct`; this module imports
only the value types of :mod:`staircase_sums.runs`.  Verification is plain set and
sequence arithmetic and the census is a count over the multisets of deficits the
targets still need, so either side can catch the other out.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from itertools import chain, islice
from operator import countOf, sub

from .runs import ConsecutiveRun, Instance, Partition, _Value

# Most deficit entries the census builds (the lengths of all the next states
# of its moves, added up); a larger census is refused.  The README gives the
# measured time and memory at this bound.
CENSUS_MAX_ENTRIES = 1_000_000
BRUTEFORCE_MAX = 10**6

# finding tags used in VerifyReport.violations
MISSING_ELEMENT = "missing-element"
DUPLICATE_ELEMENT = "duplicate-element"
FOREIGN_ELEMENT = "foreign-element"
WRONG_SUM = "wrong-sum"
WRONG_TARGET_SET = "wrong-target-set"


class VerifyReport(_Value):
    """Outcome of a partition check; ok iff there are no violations."""

    __slots__ = ("ok", "violations")
    ok: bool
    violations: tuple[tuple, ...]


def verify(n: int, run: ConsecutiveRun, partition: Partition) -> VerifyReport:
    """Check a claimed partition of {1..n} against the run's contract.

    Deliberately accepts arbitrary partitions; findings are data, never
    exceptions.  Violations are tagged tuples:

    * ``(WRONG_TARGET_SET, symmetric difference...)`` -- keys differ from [a..b]
    * ``(WRONG_SUM, target, actual)`` -- a block does not sum to its key
    * ``(DUPLICATE_ELEMENT, e)`` -- e appears more than once, in one block or in several
    * ``(MISSING_ELEMENT, e)`` -- e in {1..n} appears in no block
    * ``(FOREIGN_ELEMENT, e)`` -- e outside {1..n} appears in some block
    """
    violations: list[tuple] = []
    targets = sorted(partition.blocks)
    if not _is_range(targets, run.a, run.length()):
        diff = tuple(sorted(set(targets) ^ set(run.values())))
        violations.append((WRONG_TARGET_SET,) + diff)

    for t in targets:
        total = sum(partition.blocks[t])
        if total != t:
            violations.append((WRONG_SUM, t, total))

    # each block is an ascending run, and timsort merges runs
    elements = sorted(chain.from_iterable(partition.blocks.values()))
    if not _is_range(elements, 1, n):
        seen = set(elements)
        repeated = {e for e, f in zip(elements, elements[1:]) if e == f}
        violations += [(DUPLICATE_ELEMENT, e) for e in sorted(repeated)]
        violations += [(MISSING_ELEMENT, e) for e in range(1, n + 1) if e not in seen]
        violations += [(FOREIGN_ELEMENT, e) for e in sorted(seen) if not 1 <= e <= n]

    return VerifyReport(not violations, tuple(violations))


def _is_range(items: list, first: int, count: int) -> bool:
    """Whether the sorted ``items`` are first..first + count - 1, with no set or
    list of them built: count items, the first one first, each other one more."""
    return (len(items) == count and items[:1] == [first]
            and countOf(map(sub, islice(items, 1, None), items), 1) == count - 1)


def _moves(state: tuple[int, ...], e: int) -> Iterator[tuple[int, int, tuple[int, ...]]]:
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


def _count_partitions(n: int, targets: tuple[int, ...]) -> int:
    """Number of partitions of {1..n} into blocks summing to ``targets``.

    Elements are placed n, n-1, ..., 1, one level each; each level maps the
    states reachable before element e is placed to the number of ways to
    reach them.  A state with one deficit left, which is then T(e), has
    exactly one completion: elements e..1 all go to that target.  Raises
    ValueError once the next states built add up to more than
    ``CENSUS_MAX_ENTRIES`` deficits, so one wide state cannot outrun the bound.
    """
    count = 0
    level = {targets: 1}
    entries = 0
    for e in range(n, 0, -1):
        below: dict[tuple[int, ...], int] = {}
        for state, ways in level.items():
            if len(state) == 1:
                count += ways
                continue
            for _, mult, nxt in _moves(state, e):
                entries += len(nxt)
                if entries > CENSUS_MAX_ENTRIES:
                    raise ValueError(
                        f"the census of n={n}, targets {targets[0]}..{targets[-1]} builds "
                        f"more than {CENSUS_MAX_ENTRIES} deficit entries; refused"
                    )
                below[nxt] = below.get(nxt, 0) + mult * ways
        if not below:
            break
        level = below
    return count


def _list_partitions(inst: Instance, cap: int) -> list[Partition]:
    """The first ``cap`` partitions in search order: elements n..1, targets ascending.

    An iterative depth-first search over per-target deficits.  A state whose
    subtree it searched to the end without finding a partition has no
    completion; it is remembered and never entered again, so the search takes
    about n steps per partition plus one visit per such dead state.
    """
    n, targets = inst.n, tuple(inst.run.values())
    s = len(targets)
    deficits = list(targets)
    owner = [0] * (n + 1)
    states = [()] * (n + 1)  # states[e]: the sorted positive deficits before e is placed
    states[n] = targets
    found = [0] * (n + 1)  # found[e]: partitions listed when the search entered states[e]
    steps: list[dict] = [{}] * (n + 1)  # steps[e]: deficit -> next state, for states[e]
    dead: set[tuple[int, ...]] = set()
    out: list[Partition] = []
    e, ti = n, 0
    while len(out) < cap:
        if e == 0:
            blocks: list[list[int]] = [[] for _ in range(s)]
            for x in range(1, n + 1):
                blocks[owner[x]].append(x)
            out.append(Partition(n, inst.run, dict(zip(targets, map(tuple, blocks)))))
        else:
            if ti == 0:  # the search has just entered states[e]
                steps[e] = {d: nxt for d, _, nxt in _moves(states[e], e)}
            while ti < s:
                nxt = steps[e].get(deficits[ti])
                if nxt is not None and nxt not in dead:
                    break
                ti += 1
            if ti < s:
                states[e - 1] = nxt
                found[e - 1] = len(out)
                deficits[ti] -= e
                owner[e] = ti
                e, ti = e - 1, 0
                continue
            if found[e] == len(out):
                dead.add(states[e])
            if e == n:  # raised, not asserted, so that python -O reports it too
                raise AssertionError(f"census counted more partitions than the {len(out)} listed")
        # no target left to try here: go up, take back the element placed
        # there and try its next target
        e += 1
        ti = owner[e]
        deficits[ti] += e
        ti += 1
    return out


def enumerate_all(inst: Instance, limit: int | None = 0) -> tuple[int, list[Partition]]:
    """Count every partition of {1..n} realizing the instance's run.

    Elements are placed in descending order n..1, each into a target whose
    remaining deficit can take it.  How many ways elements e..1 can finish
    depends only on e and the multiset of positive deficits, so the census
    counts over those states one element at a time, merging equal deficits
    with their multiplicity: the work follows the number of distinct states,
    not of partitions.  The count is always exact.

    The count comes with a list of the first ``limit`` partitions: all of
    them when ``limit`` is None, and none, without a search, when it is 0.
    They are listed in the order of a search that branches over targets in
    ascending order.  That search remembers the states it found to have no
    completion and skips them, so listing K partitions costs about K * n
    steps plus one visit per such state.

    The count is refused with ValueError once it has built more than
    ``CENSUS_MAX_ENTRIES`` deficit entries: its time and memory follow that
    figure, which also bounds the states it visits.  Only the starting state,
    one deficit per target, is built before the bound applies.
    """
    count = _count_partitions(inst.n, tuple(inst.run.values()))
    cap = count if limit is None else min(limit, count)
    return count, _list_partitions(inst, cap) if cap else []


def count_runs_bruteforce(value: int) -> int:
    """Count pairs a <= b with a + ... + b == value by a sliding-window scan.

    Shares no divisor arithmetic with :func:`staircase_sums.runs.enumerate_runs`,
    so it serves as the oracle side of the odd-divisor bijection.
    """
    if value < 1:
        raise ValueError(f"value must be >= 1, got {value}")
    if value > BRUTEFORCE_MAX:
        raise ValueError(f"value must be <= {BRUTEFORCE_MAX}, got {value}")
    count = 0
    a = 1
    b = 0
    window = 0
    while a <= value:
        while window < value:
            b += 1
            window += b
        if window == value:
            count += 1
        window -= a
        a += 1
    return count

