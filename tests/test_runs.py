"""Triangular numbers, run enumeration, and the odd-divisor bijection."""

from __future__ import annotations

import copy
import itertools
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircase_sums import VerifyReport, solve, staircase_layout, verify
from staircase_sums.construct import Partition
from staircase_sums.runs import (
    _TRIAL_BOUND,
    _TRIAL_PRIMES,
    INT64_MAX,
    ConsecutiveRun,
    Instance,
    check_length_bound,
    enumerate_runs,
    is_triangular,
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


@pytest.mark.parametrize("value,expected", [(15, 5), (14, None), (1, 1), (105, 14)])
def test_is_triangular_examples(value, expected):
    assert is_triangular(value) == expected


def test_is_triangular_rejects_nonpositive():
    with pytest.raises(ValueError):
        is_triangular(0)


def test_triangular_roundtrip_sweep():
    prev = -1
    for n in range(0, 10**6 + 1):
        t = triangular(n)
        assert t > prev
        prev = t
        if n:
            assert is_triangular(t) == n


@given(st.integers(min_value=1, max_value=10**9))
def test_is_triangular_roundtrip(n):
    assert is_triangular(triangular(n)) == n


@given(st.integers(min_value=1, max_value=10**6))
def test_is_triangular_detects_non_triangulars(value):
    n = is_triangular(value)
    if n is None:
        k = 1
        while triangular(k) < value:
            k += 1
        assert triangular(k) != value
    else:
        assert triangular(n) == value


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
            verify(5, inst.run, wrong), staircase_layout(2)]


# the reprs the frozen dataclasses gave these objects
VALUE_REPRS = [
    "ConsecutiveRun(a=15, b=20)",
    "Instance(n=5, run=ConsecutiveRun(a=7, b=8))",
    "Partition(n=5, run=ConsecutiveRun(a=7, b=8), blocks={7: (3, 4), 8: (1, 2, 5)})",
    "VerifyReport(ok=True, violations=())",
    "VerifyReport(ok=False, violations=(('wrong-sum', 8, 14), ('foreign-element', 6)))",
    "TableauLayout(rows=((1, (1,)), (2, (2, 2))))",
]


def test_value_classes_keep_their_contract():
    values, again = _value_objects(), _value_objects()
    assert [repr(v) for v in values] == VALUE_REPRS
    for value, twin in zip(values, again):
        assert value == twin and value is not twin
        assert pickle.loads(pickle.dumps(value)) == value == copy.deepcopy(value)
        if not isinstance(value, Partition):  # its blocks are a dict
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
    assert Partition(n=5, run=run, blocks={}) == Partition(5, run, {})
    with pytest.raises(TypeError):
        Instance(5)
    with pytest.raises(TypeError):
        Instance(5, run, n=5)

    runs = [ConsecutiveRun(3, 4), ConsecutiveRun(1, 5), ConsecutiveRun(1, 2), ConsecutiveRun(2, 2)]
    assert sorted(runs) == [ConsecutiveRun(1, 2), ConsecutiveRun(1, 5), ConsecutiveRun(2, 2),
                            ConsecutiveRun(3, 4)]
    assert ConsecutiveRun(1, 2) <= ConsecutiveRun(1, 2) < ConsecutiveRun(1, 3)
    assert ConsecutiveRun(1, 3) >= ConsecutiveRun(1, 3) > ConsecutiveRun(1, 1)
    with pytest.raises(TypeError):
        ConsecutiveRun(1, 2) < (1, 3)


def test_instance_checks_run_through_the_class(monkeypatch):
    # a tracer counts the checks by replacing Instance.__post_init__
    checked = []
    check = Instance.__post_init__

    def counted(self):
        checked.append(self.n)
        check(self)

    monkeypatch.setattr(Instance, "__post_init__", counted)
    Instance(14, ConsecutiveRun(15, 20))
    Instance(n=1, run=ConsecutiveRun(1, 1))
    with pytest.raises(ValueError):
        Instance(5, ConsecutiveRun(7, 9))
    assert checked == [14, 1, 5]


@pytest.mark.parametrize(
    "n,a,b",
    [(14, 15, 20), (5, 7, 8), (2, 3, 3)],
)
def test_check_length_bound_examples(n, a, b):
    assert check_length_bound(Instance(n, ConsecutiveRun(a, b))) is True


def test_check_length_bound_requires_run_above_n():
    with pytest.raises(ValueError):
        check_length_bound(Instance(5, ConsecutiveRun(1, 5)))


def test_check_length_bound_holds_on_sweep():
    for n in range(1, 401):
        for run in enumerate_runs(triangular(n)):
            if run.a > n:
                assert check_length_bound(Instance(n, run))
