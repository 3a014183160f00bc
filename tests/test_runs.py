"""Triangular numbers, run enumeration, and the odd-divisor bijection."""

from __future__ import annotations

import ast
import copy
import itertools
import math
import pickle
import random
from collections.abc import Hashable
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircase_sums import VerifyReport, construct, solve, verify
from staircase_sums.runs import (
    _TRIAL_BOUND,
    _TRIAL_PRIMES,
    INT64_MAX,
    ConsecutiveRun,
    Instance,
    Partition,
    _find_factor,
    _is_prime,
    _run_ends,
    enumerate_runs,
    odd_divisors,
    triangular,
)


def _runs_by_scan(value: int) -> list[tuple[int, int]]:
    """Independent oracle: every [a..b] summing to value, by direct scanning."""
    found = []
    for a in range(1, value + 1):
        total = 0
        b = a - 1
        while total < value:
            b += 1
            total += b
        if total == value:
            found.append((a, b))
    return found


def _odd_divisors_by_trial(value: int) -> list[int]:
    """Independent oracle: odd divisors by trial division up to sqrt(value)."""
    divs = []
    i = 1
    while i <= value // i:
        if value % i == 0:
            if i & 1:
                divs.append(i)
            q = value // i
            if q != i and q & 1:
                divs.append(q)
        i += 1
    return sorted(divs)


# value -> factorisation of its odd part: large primes, prime powers, balanced
# semiprimes, strong pseudoprimes to many bases, and Carmichael numbers
HARD_FACTORISATIONS = {
    2**63 - 1: {7: 2, 73: 1, 127: 1, 337: 1, 92737: 1, 649657: 1},
    2**62 - 2: {2**61 - 1: 1},
    3**39: {3: 39},
    2147483647**2: {2147483647: 2},
    4611685975477714963: {2147483629: 1, 2147483647: 1},
    # strong pseudoprime to bases 2, 3, 5, 7
    3215031751: {151: 1, 751: 1, 28351: 1},
    # strong pseudoprime to the first nine prime bases
    3825123056546413051: {149491: 1, 747451: 1, 34233211: 1},
    561: {3: 1, 11: 1, 17: 1},
    41041: {7: 1, 11: 1, 13: 1, 41: 1},
}


@pytest.mark.parametrize("n,expected", [(0, 0), (1, 1), (5, 15), (14, 105)])
def test_triangular_examples(n, expected):
    assert triangular(n) == expected


def test_triangular_14_matches_direct_sum():
    assert triangular(14) == sum(range(1, 15))


def test_triangular_rejects_negative():
    with pytest.raises(ValueError):
        triangular(-1)


def test_triangular_overflow_is_an_error():
    with pytest.raises(OverflowError):
        triangular(2**33)


def test_triangular_roundtrip_sweep():
    prev = -1
    for n in range(0, 10**6 + 1):
        t = triangular(n)
        assert t > prev
        prev = t
        # the inverse, n = (sqrt(8t + 1) - 1) / 2
        assert (math.isqrt(8 * t + 1) - 1) // 2 == n


@pytest.mark.parametrize(
    "value,expected",
    [(15, [1, 3, 5, 15]), (1, [1]), (8, [1]), (105, [1, 3, 5, 7, 15, 21, 35, 105])],
)
def test_odd_divisors_examples(value, expected):
    assert odd_divisors(value) == expected


@given(st.integers(min_value=1, max_value=5000))
def test_odd_divisors_against_full_scan(value):
    assert odd_divisors(value) == [d for d in range(1, value + 1, 2) if value % d == 0]


@settings(max_examples=100)
@given(st.integers(min_value=1, max_value=10**9))
def test_odd_divisors_against_trial_division(value):
    assert odd_divisors(value) == _odd_divisors_by_trial(value)


@pytest.mark.parametrize("value", sorted(HARD_FACTORISATIONS))
def test_odd_divisors_of_hard_values(value):
    factors = HARD_FACTORISATIONS[value]
    odd_part = math.prod(p**e for p, e in factors.items())
    assert value % odd_part == 0 and (value // odd_part).bit_count() == 1
    expected = sorted(
        math.prod(p**k for p, k in zip(factors, exps))
        for exps in itertools.product(*(range(e + 1) for e in factors.values()))
    )
    assert odd_divisors(value) == expected


# the least strong pseudoprimes to the first 5, 6, 7 and 9 prime bases (OEIS
# A014233), where _is_prime moves to 6, 7, 9 and 12 bases; none has a factor
# below 1024, so each reaches Miller-Rabin
LEAST_STRONG_PSEUDOPRIMES = {
    2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
}


@pytest.mark.parametrize("value", sorted(LEAST_STRONG_PSEUDOPRIMES))
def test_least_strong_pseudoprimes_are_composite(value):
    primes = LEAST_STRONG_PSEUDOPRIMES[value]
    assert math.prod(primes) == value and min(primes) > _TRIAL_BOUND
    assert not _is_prime(value)
    assert all(_is_prime(p) for p in primes if p > _TRIAL_BOUND**2)
    expected = sorted(math.prod(chosen) for k in range(len(primes) + 1)
                      for chosen in itertools.combinations(primes, k))
    assert odd_divisors(value) == expected


# composites whose c = 1 walk in _find_factor ends at gcd n: on the collapse
# values the per-step walk ends at n too and c = 2 is tried; on the overshoot
# values a batch of 128 steps overshot and the per-step walk finds a factor
FIND_FACTOR_COLLAPSES = (1260913, 1331021, 1403191)  # 1031 * 1223, * 1291, * 1361
FIND_FACTOR_OVERSHOOTS = (4338941, 22055881, 318246769, 1364455123, 2141033203)


@pytest.mark.parametrize("value", FIND_FACTOR_COLLAPSES + FIND_FACTOR_OVERSHOOTS)
def test_find_factor_redoes_an_overshooting_walk_one_step_at_a_time(monkeypatch, value):
    gcds = []
    gcd = math.gcd

    def counted(a, b):
        gcds.append(gcd(a, b))
        return gcds[-1]

    monkeypatch.setattr(math, "gcd", counted)
    factor = _find_factor(value)
    assert 1 < factor < value and value % factor == 0
    # each walk's gcds are 1 until its last, so the other gcds are one per walk
    ends = [g for g in gcds if g != 1]
    if value in FIND_FACTOR_COLLAPSES:
        assert ends[:2] == [value, value] and ends[-1] == factor
    else:
        assert ends == [value, factor]
    assert odd_divisors(value) == _odd_divisors_by_trial(value)


def _brent_walk(n: int, c: int, batch: int) -> int:
    """The gcd at which Brent's walk with constant c stops, one gcd per ``batch`` steps."""
    y, q, g, r = 2, 1, 1, 1
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            for _ in range(min(batch, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = math.gcd(q, n)
            k += batch
        r *= 2
    return g


def _reference_find_factor(n: int) -> int:
    """Brent's walk with one gcd per step, written apart from _find_factor."""
    return next(g for c in itertools.count(1) if (g := _brent_walk(n, c, 1)) != n)


def test_find_factor_replays_only_the_batch_that_overshot():
    # odd composites above 3 * 10^8 with no prime factor below 1024, as
    # odd_divisors hands them to _find_factor, whose c = 1 walk overshoots
    overshoots = []
    for value in range(3 * 10**8 + 1, 3 * 10**8 + 10**6, 2):
        if all(value % p for p in _TRIAL_PRIMES) and not _is_prime(value) \
                and _brent_walk(value, 1, 128) == value:
            overshoots.append(value)
            if len(overshoots) == 40:
                break
    assert len(overshoots) == 40
    for value in overshoots:
        assert _find_factor(value) == _reference_find_factor(value), value


def _strong_probable_prime_to_twelve_bases(n: int) -> bool:
    d, r = n - 1, 0
    while not d & 1:
        d, r = d >> 1, r + 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, n)
        if x != 1 and all(pow(x, 2**i, n) != n - 1 for i in range(r)):
            return False
    return True


def test_miller_rabin_bases_by_size_agree_with_all_twelve():
    # odd values with no factor below the trial bound, the only ones odd_divisors
    # tests, at every size from the trial bound squared up to 2**63
    rng = random.Random(1993)
    checked = primes = 0
    while checked < 3000:
        n = rng.randrange(_TRIAL_BOUND**2, 2 ** rng.randrange(21, 64)) | 1
        if any(n % p == 0 for p in _TRIAL_PRIMES):
            continue
        expected = _strong_probable_prime_to_twelve_bases(n)
        assert _is_prime(n) == expected, n
        checked, primes = checked + 1, primes + expected
    assert 300 < primes < 2700  # both outcomes are well covered


def test_trial_primes_are_the_odd_primes_below_1024():
    naive = tuple(p for p in range(3, 1024, 2) if all(p % q for q in range(2, p)))
    assert (_TRIAL_BOUND, _TRIAL_PRIMES) == (1024, naive)


def test_odd_divisors_rejects_nonpositive():
    with pytest.raises(ValueError):
        odd_divisors(0)


@pytest.mark.parametrize(
    "value,expected",
    [
        (15, [(1, 5), (4, 6), (7, 8), (15, 15)]),
        (1, [(1, 1)]),
        (8, [(8, 8)]),
    ],
)
def test_enumerate_runs_examples(value, expected):
    assert [(r.a, r.b) for r in enumerate_runs(value)] == expected
    assert _runs_by_scan(value) == expected


def test_enumerate_runs_exhaustive_small():
    for value in range(1, 301):
        runs = [(r.a, r.b) for r in enumerate_runs(value)]
        assert runs == _runs_by_scan(value)
        assert len(runs) == len(odd_divisors(value))


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=10**4))
def test_enumerate_runs_properties(value):
    runs = enumerate_runs(value)
    assert all(r.sum() == value for r in runs)
    assert [r.a for r in runs] == sorted({r.a for r in runs})
    assert len(runs) == len(odd_divisors(value))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=INT64_MAX))
def test_run_ends_are_the_runs_of_the_value(value):
    # what ConsecutiveRun would check per run, and more: each pair is a run of
    # positive ints summing to value, one per odd divisor, ascending by a
    ends = _run_ends(value)
    assert all(1 <= a <= b and (a + b) * (b - a + 1) == 2 * value for a, b in ends)
    assert all(x[0] < y[0] for x, y in itertools.pairwise(ends))
    assert len(ends) == len(odd_divisors(value))


def test_consecutive_run_validation():
    run = ConsecutiveRun(4, 6)
    assert run.length() == 3
    assert run.sum() == 15
    assert list(run.values()) == [4, 5, 6]
    assert str(run) == "[4..6]"
    with pytest.raises(ValueError):
        ConsecutiveRun(0, 5)
    with pytest.raises(ValueError):
        ConsecutiveRun(6, 4)
    with pytest.raises(OverflowError):
        ConsecutiveRun(1, INT64_MAX)
    with pytest.raises(OverflowError):  # a one-value run whose endpoint alone overflows
        ConsecutiveRun(2**63, 2**63)


def test_instance_validation():
    Instance(14, ConsecutiveRun(15, 20))
    with pytest.raises(ValueError):
        Instance(5, ConsecutiveRun(7, 9))
    with pytest.raises(ValueError):
        Instance(0, ConsecutiveRun(1, 1))


def _value_objects() -> list:
    """One object of each value class, as the package builds them."""
    inst = Instance(5, ConsecutiveRun(7, 8))
    partition, _ = solve(inst)
    wrong = Partition(5, inst.run, {7: (1, 2, 4), 8: (3, 5, 6)})
    return [ConsecutiveRun(15, 20), inst, partition, verify(5, inst.run, partition),
            verify(5, inst.run, wrong)]


# the reprs the frozen dataclasses gave these objects
VALUE_REPRS = [
    "ConsecutiveRun(a=15, b=20)",
    "Instance(n=5, run=ConsecutiveRun(a=7, b=8))",
    "Partition(n=5, run=ConsecutiveRun(a=7, b=8), blocks={7: (3, 4), 8: (1, 2, 5)})",
    "VerifyReport(ok=True, violations=())",
    "VerifyReport(ok=False, violations=(('wrong-sum', 8, 14), ('foreign-element', 6)))",
]


def test_value_classes_keep_their_contract():
    values, again = _value_objects(), _value_objects()
    assert [repr(v) for v in values] == VALUE_REPRS
    for value, twin in zip(values, again):
        assert value == twin and value is not twin
        assert pickle.loads(pickle.dumps(value)) == value == copy.deepcopy(value)
        if isinstance(value, Partition):  # its blocks are a dict
            assert not isinstance(value, Hashable)
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == hash(twin)
        name = repr(value).split("(")[1].split("=")[0]  # its first field
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) == getattr(twin, name)
    assert values[3] != values[4]  # the two verify reports
    assert ConsecutiveRun(1, 2) != (1, 2)
    assert ConsecutiveRun(1, 2) != VerifyReport(1, 2)
    run = ConsecutiveRun(7, 8)
    with pytest.raises(TypeError):
        Instance(5)
    # the fields go by position only
    for build in (lambda: Partition(n=5, run=run, blocks={}), lambda: Instance(5, run=run),
                  lambda: VerifyReport(True, violations=()), lambda: ConsecutiveRun(7, b=8)):
        with pytest.raises(TypeError):
            build()
    with pytest.raises(TypeError):  # runs have no order
        ConsecutiveRun(1, 2) < ConsecutiveRun(1, 3)


def _count_checks(monkeypatch, cls) -> list[tuple]:
    """Replace ``cls.__post_init__``, as a tracer does, with one that records the fields it checks."""
    checked = []
    check = cls.__post_init__

    def counted(self):
        checked.append(self._fields())
        check(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    return checked


def test_instance_checks_run_through_the_class(monkeypatch):
    # each value class with an invariant checks it in __post_init__, which
    # _Value.__init__, the one constructor, calls
    assert "__init__" not in ConsecutiveRun.__dict__
    runs = ConsecutiveRun(15, 20), ConsecutiveRun(1, 1), ConsecutiveRun(7, 9)
    for cls, valid, invalid in ((Instance, [(14, runs[0]), (1, runs[1])], (5, runs[2])),
                                (ConsecutiveRun, [(15, 20), (1, 1)], (8, 7))):
        checked = _count_checks(monkeypatch, cls)
        for fields in valid:
            cls(*fields)
        with pytest.raises(ValueError):
            cls(*invalid)
        assert checked == [*valid, invalid], cls
        monkeypatch.undo()


def _package_imports(module: str) -> set[str]:
    """The modules of the package that ``module``'s source imports, read with ast."""
    tree = ast.parse(Path(construct.__file__).with_name(f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            found |= {name.partition(".")[2] or "__init__" for name in names
                      if name.partition(".")[0] == "staircase_sums"}
    return found


def test_solver_and_checkers_share_only_the_value_types():
    # runs at the bottom; construct, oracle and render in the middle, each
    # importing only runs, so that the verifier and the census share no code
    # with the solver; cli on top
    layers = {"runs": set(), "construct": {"runs"}, "oracle": {"runs"}, "render": {"runs"}}
    assert {module: _package_imports(module) for module in layers} == layers
    assert _package_imports("cli") <= {"construct", "oracle", "render", "runs"}
    assert Partition.__module__ == "staircase_sums.runs"
    assert construct.Partition is Partition

