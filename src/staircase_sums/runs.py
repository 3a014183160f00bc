"""The value types ConsecutiveRun, Instance and Partition, and the number theory of runs.

They are all that the solver, the verifier and the census share.  All arithmetic
is checked against the signed 64-bit range: results that would not fit raise
:class:`OverflowError` instead of silently growing into big integers, and a huge
command-line integer is refused with one short message.
"""

from __future__ import annotations

import itertools
import math

INT64_MAX = 2**63 - 1

# odd_divisors trial-divides by the odd primes below _TRIAL_BOUND first; a
# sieve strikes the odd multiples of each odd prime, one slice at a time
_TRIAL_BOUND = 1024
_sieve = bytearray([1]) * _TRIAL_BOUND
for _p in range(3, math.isqrt(_TRIAL_BOUND) + 1, 2):
    if _sieve[_p]:
        _sieve[_p * _p::2 * _p] = bytes(len(range(_p * _p, _TRIAL_BOUND, 2 * _p)))
_TRIAL_PRIMES = tuple(itertools.compress(range(3, _TRIAL_BOUND, 2), _sieve[3::2]))
del _sieve, _p
# The strong probable-prime test to the first k bases is exact below bound, for each
# (bound, k), the least strong pseudoprime to them (OEIS A014233; Jaeschke 1993), and
# to all twelve below 3.18 * 10**23, past every 64-bit value (Sorenson & Webster 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_BASES_BELOW = ((2152302898747, 5), (3474749660383, 6), (341550071728321, 7),
                (3825123056546413051, 9))


def _checked(value: int, what: str) -> int:
    if value > INT64_MAX:
        raise OverflowError(f"{what} exceeds the 64-bit range")
    return value


def triangular(n: int) -> int:
    """Return 1 + 2 + ... + n."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _checked(n * (n + 1) // 2, "triangular number")


class _Value:
    """Base of the package's value classes, whose instances are immutable.

    The fields are the names in ``__slots__``, in order.  ``__init__`` takes
    them by position only and then calls ``__post_init__``; equality,
    hashing, ``repr`` and pickling go by the fields, as for a frozen dataclass.
    """

    __slots__ = ()

    def __init__(self, *args) -> None:
        names = self.__slots__
        if len(args) != len(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the fields; raises ValueError where a subclass has an invariant."""

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._fields()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ConsecutiveRun(_Value):
    """Inclusive interval [a..b] of positive integers, read as the sum a + ... + b."""

    __slots__ = ("a", "b")
    a: int
    b: int

    def __post_init__(self) -> None:
        if not 1 <= self.a <= self.b:
            raise ValueError(f"need 1 <= a <= b, got a={self.a}, b={self.b}")
        _checked(self.sum(), "run sum")

    def length(self) -> int:
        return self.b - self.a + 1

    def sum(self) -> int:
        return (self.a + self.b) * self.length() // 2

    def values(self) -> range:
        return range(self.a, self.b + 1)

    def __str__(self) -> str:
        return f"[{self.a}..{self.b}]"


class Instance(_Value):
    """A prefix length n together with a run whose sum equals triangular(n).

    Construction fails unless 1 + ... + n == a + ... + b, so holding an
    Instance is proof the equality holds.
    """

    __slots__ = ("n", "run")
    n: int
    run: ConsecutiveRun

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if triangular(self.n) != self.run.sum():
            raise ValueError(
                f"not a valid instance: 1+...+{self.n} = {triangular(self.n)} "
                f"but {self.run} sums to {self.run.sum()}"
            )


class Partition(_Value):
    """Blocks keyed by target value; each block is an ascending element tuple.

    Plain container: validity is checked by the independent verifier, not on
    construction.  Its blocks are a dict, so it cannot be hashed.
    """

    __slots__ = ("n", "run", "blocks")
    n: int
    run: ConsecutiveRun
    blocks: dict[int, tuple[int, ...]]
    __hash__ = None


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for an odd n > 37 below 3.18 * 10**23, to the bases n needs."""
    k = next((k for bound, k in _BASES_BELOW if n < bound), len(_MILLER_RABIN_BASES))
    d, r = n - 1, 0
    while not d & 1:
        d >>= 1
        r += 1
    for base in _MILLER_RABIN_BASES[:k]:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _find_factor(n: int) -> int:
    """A proper factor of the odd composite n: Pollard rho with Brent's cycle search.

    Brent, "An improved Monte Carlo factorization algorithm", BIT 20 (1980).
    Starts are fixed, so the factor found is deterministic.  Each constant c
    walks with one gcd per batch of 128 steps; if that ends at gcd n, the last
    batch overshot, and it is replayed from its start with one gcd per step
    (each step's own, since the product before the batch was prime to n),
    which stops where the factor first appears.  If that gcd is n too, the
    walk collapsed: try c + 1.
    """
    for c in itertools.count(1):
        y, q, g, r = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                start = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the last batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                start = (start * start + c) % n
                g = math.gcd(x - start, n)
        if g != n:
            return g


def _odd_prime_factors(value: int) -> dict[int, int]:
    """Prime factorisation of the odd part of ``value``, as {prime: exponent}."""
    value >>= (value & -value).bit_length() - 1
    factors: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > value:
            break
        while value % p == 0:
            value //= p
            factors[p] = factors.get(p, 0) + 1
    # What is left has no prime factor below the trial bound (or is 1 or a
    # prime, if trial division stopped early), so its factors under
    # _TRIAL_BOUND**2 are prime.
    pending = [value] if value > 1 else []
    while pending:
        m = pending.pop()
        if m < _TRIAL_BOUND**2 or _is_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            f = _find_factor(m)
            pending += (f, m // f)
    return factors


def odd_divisors(value: int) -> list[int]:
    """All odd d with d | value, ascending.

    Expands the factorisation of value's odd part: trial division by the
    small primes, then Miller-Rabin and Pollard-Brent for what is left.  The
    cost grows with the square root of value's second-largest prime factor,
    at most the fourth root of value, not with the square root of value.
    """
    if value < 1:
        raise ValueError(f"value must be >= 1, got {value}")
    _checked(value, "value")
    divisors = [1]
    for p, e in _odd_prime_factors(value).items():
        divisors = [d * pk for pk in [p**k for k in range(e + 1)] for d in divisors]
    divisors.sort()
    return divisors


def _run_ends(value: int) -> list[tuple[int, int]]:
    """The ends ``(a, b)`` of every consecutive run summing to ``value``,
    ascending by ``a``: the ints of :func:`enumerate_runs`, with no object per run.

    The odd divisor d = 2h + 1 gives the d terms centred on q = value / d,
    [q - h..q + h]; when that reaches below 1, its terms from q - h up to h - q
    sum to 0, leaving the 2q terms [h + 1 - q..q + h].  This is Sylvester's
    bijection: of a run's length and a + b, whose product is 2 * value, exactly
    one is odd, and it is the d the run comes from.  As ``odd_divisors`` checks
    ``value``, every run is one that ``ConsecutiveRun`` accepts.
    """
    ends = []
    for d in odd_divisors(value):
        q, h = value // d, d >> 1
        ends.append((q - h if q > h else h + 1 - q, q + h))
    ends.sort()
    return ends


def enumerate_runs(value: int) -> list[ConsecutiveRun]:
    """Every consecutive run summing to ``value``, ascending by first term,
    one per odd divisor of ``value`` (see :func:`_run_ends`)."""
    return [ConsecutiveRun(a, b) for a, b in _run_ends(value)]
