"""Seeded request lists for each workload, and the answer each reply must match.

A workload is a list of CLI requests fixed by the seed; a run replays the
whole list, pass after pass.  The seed changes the instances, not the profile
of their sizes: sizes sit on a fixed log-spaced grid and the seed shrinks each
by up to ``JITTER``, which changes the instance (a different n has different
runs and factors) but barely the work.  The work in one pass, and so every
end-to-end figure, then depends little on the seed.

Every request carries a check that reads the reply and returns an error
message, or None when the reply is right.  Expected answers come from how the
input was built (a chosen factorisation, a pinned count, a census counted
here), never from the solver under test.  The only program code a check
calls is the independent verifier ``oracle.verify`` and the window-scan
counter ``oracle.count_runs_bruteforce``, as cross-checks.
"""

from __future__ import annotations

import json
import math
import random
import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from staircase_sums.construct import Partition
from staircase_sums.oracle import count_runs_bruteforce, verify
from staircase_sums.runs import ConsecutiveRun

JSON_FLAGS = ("--json", "--no-timing")


@dataclass(frozen=True)
class Request:
    """One CLI call, expected to exit 0, and the check its stdout must pass."""

    argv: tuple[str, ...]
    check: Callable[[str], str | None]


# ---------------------------------------------------------------------------
# arithmetic the harness does on its own


def triangular(n: int) -> int:
    return n * (n + 1) // 2


def factorize(v: int) -> dict[int, int]:
    """Trial division; used only on values up to a few million."""
    factors: dict[int, int] = {}
    p = 2
    while p * p <= v:
        while v % p == 0:
            factors[p] = factors.get(p, 0) + 1
            v //= p
        p += 1 if p == 2 else 2
    if v > 1:
        factors[v] = factors.get(v, 0) + 1
    return factors


def triangular_factors(n: int) -> dict[int, int]:
    """Factorisation of T(n) = n(n+1)/2, from those of the coprime n and n+1."""
    factors = factorize(n)
    for p, e in factorize(n + 1).items():
        factors[p] = factors.get(p, 0) + e
    factors[2] -= 1
    if not factors[2]:
        del factors[2]
    return factors


def odd_divisor_count(factors: dict[int, int]) -> int:
    return math.prod(e + 1 for p, e in factors.items() if p != 2)


def runs_of(value: int, factors: dict[int, int]) -> list[tuple[int, int]]:
    """All runs [a..b] summing to value, ascending by a (one per odd divisor)."""
    divisors = [1]
    for p, e in factors.items():
        if p != 2:
            divisors = [d * p**k for d in divisors for k in range(e + 1)]
    runs = []
    for d in divisors:
        s, f = sorted((d, 2 * value // d))
        first = (f - s + 1) // 2
        runs.append((first, first + s - 1))
    return sorted(runs)


MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(v: int) -> bool:
    """Deterministic Miller-Rabin; the first twelve prime bases are exact below 2**64."""
    if v < 2:
        return False
    for p in MR_BASES:
        if v % p == 0:
            return v == p
    d, s = v - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in MR_BASES:
        x = pow(base, d, v)
        if x in (1, v - 1):
            continue
        for _ in range(s - 1):
            x = x * x % v
            if x == v - 1:
                break
        else:
            return False
    return True


def next_prime(v: int) -> int:
    v = max(v, 3) | 1
    while not is_prime(v):
        v += 2
    return v


def census_count(n: int, a: int, b: int) -> int:
    """Number of partitions of {1..n} into blocks summing to a, a+1, ..., b.

    Memoized over (next element, sorted positive deficits): how many ways the
    elements e..1 can fill the remaining deficits depends only on their
    multiset, and choosing any of k equal deficits gives k distinct labelled
    partitions.  Written apart from the program's backtracking census.
    """

    @lru_cache(maxsize=None)
    def ways(e: int, deficits: tuple[int, ...]) -> int:
        if len(deficits) > e:
            return 0
        if e == 0:
            return 1
        total = 0
        for i, d in enumerate(deficits):
            if d < e or (i and deficits[i - 1] == d):
                continue
            rest = deficits[:i] + deficits[i + 1:]
            if d > e:
                rest = tuple(sorted(rest + (d - e,)))
            total += deficits.count(d) * ways(e - 1, rest)
        return total

    return ways(n, tuple(range(a, b + 1)))


# ---------------------------------------------------------------------------
# reply checks


def _result(out: str, command: str) -> dict:
    envelope = json.loads(out)
    if envelope.get("command") != command:
        raise ValueError(f"reply is for {envelope.get('command')!r}, not {command!r}")
    return envelope["result"]


def _guarded(check: Callable[[str], str | None]) -> Callable[[str], str | None]:
    def guarded(out: str) -> str | None:
        try:
            return check(out)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"malformed reply: {type(exc).__name__}: {exc}"

    return guarded


def partition_errors(n: int, a: int, b: int, blocks: dict[str, list[int]]) -> str | None:
    """Blocks keyed a..b in order, each ascending and summing to its key, covering {1..n}."""
    if list(blocks) != [str(t) for t in range(a, b + 1)]:
        return f"block keys are not {a}..{b}"
    seen = bytearray(n + 1)
    for key, block in blocks.items():
        if sum(block) != int(key):
            return f"U_{key} sums to {sum(block)}"
        if block != sorted(block):
            return f"U_{key} is not ascending"
        for e in block:
            if not 1 <= e <= n or seen[e]:
                return f"element {e} is outside 1..{n} or repeated"
            seen[e] = 1
    if seen.count(1) != n:
        return "some elements of 1..n are in no block"
    return None


def layer_chain(n: int, a: int, b: int) -> list[tuple[int, int, int, int, int, int]]:
    """(n, a, b, s, c, m) of every layer, from the reductions in construct's docstring."""
    chain = []
    while True:
        if a <= n:
            if a == 1:
                return chain
            n, a = a - 1, n + 1
            continue
        s = b - a + 1
        c = 2 * n - 2 * s + 1
        m = max(0, c - a)
        chain.append((n, a, b, s, c, m))
        if n == 2 * s:
            return chain
        n, a, b = n - 2 * s, max(m + 1, a - c), b - c


def trace_errors(n: int, a: int, b: int, trace: list[dict]) -> str | None:
    chain = layer_chain(n, a, b)
    if len(trace) != len(chain):
        return f"trace has {len(trace)} layers, expected {len(chain)}"
    for idx, (layer, (ln, la, lb, s, c, m)) in enumerate(zip(trace, chain), start=1):
        got = (layer["n"], layer["run"]["a"], layer["run"]["b"], layer["s"], layer["c"], layer["m"])
        if got != (ln, la, lb, s, c, m):
            return f"layer {idx} is {got}, expected {(ln, la, lb, s, c, m)}"
        if (
            layer["p_range"] != [ln - 2 * s + 1, ln - s]
            or layer["q_range"] != [ln - s + 1, ln]
            or layer["deficits"] != [c - t for t in range(la, lb + 1)]
            or layer["l"] != (ln - 2 * m if m else None)
        ):
            return f"layer {idx} ranges, deficits or window are wrong"
        assignments = layer["assignments"]
        if [asg["target"] for asg in assignments] != list(range(la, lb + 1)):
            return f"layer {idx} does not assign each target once, in order"
        # an open pair sums to c and leaves its target short; every other pair
        # meets its target exactly
        if any(sum(asg["pair"]) != (c if asg["kind"] == "open" else asg["target"])
               for asg in assignments):
            return f"layer {idx} has a pair that does not meet its target"
        elements = sorted(e for asg in assignments for e in asg["pair"])
        if elements != list(range(ln - 2 * s + 1, ln + 1)):
            return f"layer {idx} pairs do not cover P and Q"
    return None


def partition_request(n: int, a: int, b: int, trace: bool) -> Request:
    def check(out: str) -> str | None:
        result = _result(out, "partition")
        if result["verified"] is not True:
            return "reply says verified: false"
        blocks = result["blocks"]
        error = partition_errors(n, a, b, blocks)
        if error:
            return error
        run = ConsecutiveRun(a, b)
        report = verify(n, run, Partition(n, run, {int(t): tuple(v) for t, v in blocks.items()}))
        if not report.ok:
            return f"oracle.verify rejects the blocks: {report.violations[:3]}"
        if trace:
            return trace_errors(n, a, b, result["trace"])
        if "trace" in result:
            return "untraced reply carries a trace"
        return None

    argv = ("partition", str(n), str(a), str(b), *JSON_FLAGS) + (("--trace",) if trace else ())
    return Request(argv, _guarded(check))


def count_request(n: int, a: int, b: int, expected: int, limit: int | None = None,
                  force: bool = False) -> Request:
    def check(out: str) -> str | None:
        result = _result(out, "count")
        if result["count"] != expected:
            return f"count {result['count']}, expected {expected}"
        if limit is None:
            return "reply lists partitions it was not asked for" if "partitions" in result else None
        listed = result["partitions"]
        if len(listed) != min(expected, limit) or result["truncated"] != (expected > limit):
            return f"listed {len(listed)} partitions, truncated={result['truncated']}"
        distinct = set()
        for blocks in listed:
            error = partition_errors(n, a, b, blocks)
            if error:
                return f"listed partition: {error}"
            distinct.add(tuple(tuple(v) for v in blocks.values()))
        if len(distinct) != len(listed):
            return "listed partitions are not distinct"
        return None

    argv = ("count", str(n), str(a), str(b), *JSON_FLAGS)
    if limit is not None:
        argv += ("--list", "--limit", str(limit))
    if force:
        argv += ("--force",)
    return Request(argv, _guarded(check))


CELL = re.compile(r"\[ *(\d+)\]")


def render_request(n: int, a: int, b: int) -> Request:
    width = max(2, len(str(n)))

    def row(labels: list[int]) -> str:
        return "".join(f"[{label:>{width}}]" for label in labels)

    def check(out: str) -> str | None:
        result = _result(out, "render")
        if result["staircase"] != [row([k] * k) for k in range(1, n + 1)]:
            return "staircase rows are wrong"
        rows = result["rebuilt"]
        if len(rows) != b - a + 1:
            return f"{len(rows)} rebuilt rows, expected {b - a + 1}"
        seen: set[int] = set()
        for t, text in zip(range(a, b + 1), rows):
            labels = [int(x) for x in CELL.findall(text)]
            if row(labels) != text or len(labels) != t:
                return f"rebuilt row {t} is malformed or not {t} cells long"
            i, previous = 0, n + 1
            while i < t:
                e = labels[i]
                if labels[i:i + e] != [e] * e or not 1 <= e < previous or e in seen:
                    return f"rebuilt row {t} has a bad segment for element {e}"
                seen.add(e)
                previous = e
                i += e
        if len(seen) != n:
            return "rebuilt rows do not use every element of 1..n"
        return None

    return Request(("render", str(n), str(a), str(b), *JSON_FLAGS), _guarded(check))


WINDOW_SCAN_MAX = 10**6


def runs_request(value: int, factors: dict[int, int]) -> Request:
    expected = odd_divisor_count(factors)

    def check(out: str) -> str | None:
        result = _result(out, "runs")
        runs = result["runs"]
        if result["odd_divisor_count"] != expected or len(runs) != expected:
            return (f"{len(runs)} runs and odd_divisor_count {result['odd_divisor_count']}, "
                    f"expected {expected}")
        previous = 0
        for run in runs:
            a, b, length = run["a"], run["b"], run["length"]
            if not previous < a <= b or length != b - a + 1 or (a + b) * length != 2 * value:
                return f"run {a}..{b} (length {length}) is out of order or does not sum to {value}"
            previous = a
        if value <= WINDOW_SCAN_MAX and count_runs_bruteforce(value) != expected:
            return "oracle.count_runs_bruteforce disagrees with the odd-divisor count"
        return None

    return Request(("runs", str(value), *JSON_FLAGS), _guarded(check))


# ---------------------------------------------------------------------------
# workloads

JITTER = 0.01


def log_grid(lo: float, hi: float, points: int, rng: random.Random) -> list[int]:
    """``points`` sizes evenly spaced in log10 from 10**lo to 10**hi, each shrunk by up to JITTER."""
    return [round(10 ** (lo + (hi - lo) * i / (points - 1)) * (1 - JITTER * rng.random()))
            for i in range(points)]


# Worst runs [T(n)..T(n)] take n/2 layers and carry most of the work; the one
# at n = 10**5 also sets peak memory.  Other runs are drawn only for small n:
# at larger n the work of a drawn run varies threefold with the draw and would
# make a pass depend on the seed.  Kept below the cost of the tenth-largest
# worst run, they also leave the tail to the worst runs.
PARTITION_WORST = (2.0, 5.0, 16)  # log10 n from, to, points
PARTITION_DRAWN = (1.0, 2.5, 100)
# a trace reply is ~20x the bytes of a plain one, so the traced mix stops lower
TRACE_WORST = (2.0, 4.0, 16)
TRACE_DRAWN = (1.0, 2.5, 100)


def _partition_list(rng: random.Random, worst, drawn, trace: bool) -> list[Request]:
    requests = []
    for n in log_grid(*worst, rng):
        requests.append(partition_request(n, triangular(n), triangular(n), trace))
    for n in log_grid(*drawn, rng):
        a, b = rng.choice(runs_of(triangular(n), triangular_factors(n)))
        requests.append(partition_request(n, a, b, trace))
    rng.shuffle(requests)
    return requests


def partition_list(seed: int) -> list[Request]:
    return _partition_list(random.Random(f"partition:{seed}"), PARTITION_WORST,
                           PARTITION_DRAWN, False)


def partition_trace_list(seed: int) -> list[Request]:
    return _partition_list(random.Random(f"partition-trace:{seed}"), TRACE_WORST,
                           TRACE_DRAWN, True)


# (n, a, b, count): the pinned census instances and their known counts
CENSUS_PINNED = ((14, 15, 20, 1707), (17, 23, 28, 184_484))
CENSUS_MAX_N = 15  # every run of T(n) for every n up to this is counted in each pass
LIST_EVERY = 3  # every third of those counts also lists partitions
DEEP_N = (1000, 3000)  # forced one-target counts, deep enough to exhaust the recursion limit
DEEP_PER_LIST = 3
RENDER_MAX_N = 13  # rebuilt rows stay within the default width limit of 100
RENDER_PER_LIST = 12


def census_list(seed: int) -> list[Request]:
    rng = random.Random(f"census:{seed}")
    requests = [count_request(n, a, b, c) for n, a, b, c in CENSUS_PINNED]
    n, a, b, c = CENSUS_PINNED[0]
    requests.append(count_request(n, a, b, c, limit=rng.randint(5, 50)))
    instances = [(n, a, b) for n in range(1, CENSUS_MAX_N + 1)
                 for a, b in runs_of(triangular(n), triangular_factors(n))]
    for index, (n, a, b) in enumerate(instances):
        limit = rng.randint(1, 30) if index % LIST_EVERY == 0 else None
        requests.append(count_request(n, a, b, census_count(n, a, b), limit))
    for _ in range(DEEP_PER_LIST):
        n = rng.randint(*DEEP_N)
        requests.append(count_request(n, triangular(n), triangular(n), 1, force=True))
    for _ in range(RENDER_PER_LIST):
        n = rng.randint(2, RENDER_MAX_N)
        requests.append(render_request(n, *rng.choice(runs_of(triangular(n), triangular_factors(n)))))
    rng.shuffle(requests)
    return requests


# Trial division walks all of sqrt(N) whatever N's factors, so the work of a
# runs request follows N's size; each kind sits on its own grid of sizes.  The
# grids start where the divisor search, not the CLI's fixed cost, takes most of
# a call, so that the median request measures the search.
RUNS_GRID = (5.5, 12.0, 16)  # log10 N from, to, points, for primes, semiprimes, composites
TRIANGULAR_GRID = (2.5, 6.1, 16)  # log10 n for T(n), n 13-smooth
POW2_EXPONENTS = (40, 36, 32)  # the largest powers of two; smaller ones are seeded
POW2_SEEDED = (18, 31, 6)  # exponents from, to, count


def _smooth_numbers(limit: int) -> list[int]:
    """Products of primes up to 13, up to limit, ascending; n with many divisors."""
    values = [1]
    for p in (2, 3, 5, 7, 11, 13):
        values = [v * p**k for v in values for k in range(int(math.log(limit, p)) + 1)
                  if v * p**k <= limit]
    return sorted(values)


def runs_list(seed: int) -> list[Request]:
    rng = random.Random(f"runs:{seed}")
    values = []
    for target in log_grid(*RUNS_GRID, rng):
        p = next_prime(target)
        values.append((p, {p: 1}))
    for target in log_grid(*RUNS_GRID, rng):
        p = next_prime(int(target ** rng.uniform(0.15, 0.5)))
        q = next_prime(max(target // p, 2))
        values.append((p * q, {p: 2} if p == q else {p: 1, q: 1}))
    for target in log_grid(*RUNS_GRID, rng):
        # a random smooth part times one prime cofactor, so N stays near target
        factors = {2: rng.randint(0, 4)}
        small = 2 ** factors[2]
        while True:
            p = rng.choice((3, 3, 5, 5, 7, 11, 13, 17, 19, 23))
            if (small * p) ** 2 > target:
                break
            factors[p] = factors.get(p, 0) + 1
            small *= p
        q = next_prime(target // small)
        factors[q] = factors.get(q, 0) + 1
        values.append((small * q, factors))
    smooth = _smooth_numbers(10 ** TRIANGULAR_GRID[1])
    for target in log_grid(*TRIANGULAR_GRID, rng):
        n = smooth[bisect_right(smooth, target) - 1]
        values.append((triangular(n), triangular_factors(n)))
    low, high, count = POW2_SEEDED
    exponents = list(POW2_EXPONENTS) + rng.sample(range(low, high + 1), count)
    values.extend((2**k, {2: k}) for k in exponents)
    requests = [runs_request(value, factors) for value, factors in values]
    rng.shuffle(requests)
    return requests


WORKLOADS: dict[str, Callable[[int], list[Request]]] = {
    "partition": partition_list,
    "partition-trace": partition_trace_list,
    "census": census_list,
    "runs": runs_list,
}
