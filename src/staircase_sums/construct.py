"""Constructive partition of {1..n} into blocks realizing a consecutive run.

Given a valid instance (1 + ... + n equals a + ... + b), :func:`solve` builds
one block U_t per target t in [a..b] such that the blocks are disjoint, cover
{1..n}, and each sums to its target.  The construction alternates two
reductions:

* a *peel* when a <= n: every target t in [a..n] is met by the singleton {t},
  leaving the smaller instance (a-1, [n+1..b]);
* a *layer* when a > n: the top 2s elements of {1..n} (s = run length) are
  grouped into s pairs each summing to c = 2n - 2s + 1.  Targets below c are
  met exactly by swapping the larger members of two pairs whose difference
  matches the shortfall (the difference-pair construction), which
  simultaneously meets the mirrored target above c.  Leftover pairs go to the
  remaining targets, which stay open and are filled up by deeper layers.

Every intermediate state keeps the pending amounts in a consecutive run whose
sum is the triangular number of the remaining prefix, which is what makes the
recursion close.

Most layers are *plain*: m = c - a <= 0, so there is no difference-pair
window and the i-th target just gets the pair (n-s-i, n-s+1+i).  A plain
layer with a > c leaves every target open, keeps the target order and the
run length, and maps the instance (n, [a..b]) to (n-2s, [a-c..b-c]).  Under
the sum invariant, a > c holds exactly when n >= 3s, so such layers come in
*stretches*: k = (n-s) // 2s consecutive layers, over which target i receives
the two arithmetic progressions n-s-i, n-3s-i, ... and n-s+1+i, n-s+1+i-2s,
... of k terms each.  :func:`solve` works on plain ints and takes one step
per peel, per stretch, and per remaining layer (a windowed layer, or the
plain layer with a = c that closes the first target).  A trace, one record
of ints per layer (documented at :func:`solve`), is built only when asked
for, by expanding each stretch into its layers.
"""

from __future__ import annotations

from .runs import ConsecutiveRun, Instance, _Value

MIRROR_LOW = "mirror-low"
MIRROR_HIGH = "mirror-high"
EXACT = "exact"
OPEN = "open"


def difference_pairs(m: int, low: int) -> tuple[tuple[int, int], ...]:
    """Build pairs with differences 1..m inside a window of 2m+1 consecutive integers.

    Odd-indexed pairs nest outward from (ceil(m/2), ceil(m/2)+1); even-indexed
    pairs nest outward from (ceil(m/2)+m, 2m+2-floor(m/2)); everything is then
    shifted so the smallest value is ``low``.  All 2m values are distinct and
    fit in [low, 2m+low].
    """
    if m < 1 or low < 1:
        raise ValueError(f"need m >= 1 and low >= 1, got m={m}, low={low}")
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


class Partition(_Value):
    """Blocks keyed by target value; each block is an ascending element tuple.

    Plain container: validity is checked by the independent verifier, not on
    construction.
    """

    __slots__ = ("n", "run", "blocks")
    n: int
    run: ConsecutiveRun
    blocks: dict[int, tuple[int, ...]]


# A reduced state (n, a, b) with n = 0 has the empty run a = b + 1: nothing
# is left to assign.
_State = tuple[int, int, int]


def _layer_step(
    n: int, a: int, b: int
) -> tuple[int, int, int | None, list[tuple[int, int]], _State]:
    """One layer of the state (n, a, b), which needs a > n: ``(c, m, low, pairs, reduced)``.

    ``pairs[i]`` is the pair given to amount a + i.  Amounts up to c + m are
    met exactly; the others stay open and need the rest from ``reduced``.
    """
    s = b - a + 1
    assert n >= 2 * s, f"length bound violated for valid instance (n={n}, s={s})"
    c = 2 * n - 2 * s + 1
    m = max(0, c - a)
    assert b - c >= m, "mirror partner targets missing above c"

    pairs: list[tuple[int, int] | None] = [None] * s
    used_q: set[int] = set()
    window_low: int | None = None
    if m >= 1:
        # 2m+1 consecutive values are guaranteed to fit inside Q; take the
        # topmost such window so the output is uniquely determined.  Here
        # a = c - m, so amount c - d sits at index m - d.
        assert s >= 2 * m + 1, f"window exceeds Q (s={s}, m={m})"
        window_low = n - 2 * m
        for d, (x, xp) in enumerate(difference_pairs(m, window_low), start=1):
            pairs[m - d] = (c - xp, x)
            pairs[m + d] = (c - x, xp)
            used_q.add(x)
            used_q.add(xp)

    leftover = [i for i in range(s) if pairs[i] is None]
    leftover_q = [q for q in range(n - s + 1, n + 1) if q not in used_q]
    assert len(leftover) == len(leftover_q)
    for i, q in zip(leftover, leftover_q):
        pairs[i] = (c - q, q)

    if n == 2 * s:
        assert b - c <= m, "residual targets but no elements left"
    return c, m, window_low, pairs, (n - 2 * s, max(m + 1, a - c), b - c)


def _kind(t: int, c: int, m: int) -> str:
    if t < c:
        return MIRROR_LOW
    if t == c:
        return EXACT
    return MIRROR_HIGH if t - c <= m else OPEN


def _check_pending(n: int, a: int, b: int, pending: int) -> None:
    # the pending amounts are the run [a..b], one per pending target, and
    # their sum is 1 + ... + n
    assert a >= 1 and b - a + 1 == pending and (a + b) * pending == n * (n + 1), (
        f"pending amounts out of sync with instance (n={n}, run=[{a}..{b}])"
    )


def _stretch_start(a: int, c: int, s: int, j: int) -> int:
    """Run start after j layers of a stretch that starts at run start a and pair sum c.

    Layer i of the stretch subtracts its pair sum c - 4si from every amount.
    """
    return a - j * c + 2 * s * j * (j - 1)


def solve(inst: Instance, want_trace: bool = False) -> tuple[Partition, list[tuple] | None]:
    """Partition {1..n} into blocks summing to each target of the run.

    Deterministic; the same instance always yields the identical partition.
    With ``want_trace`` it also returns the trace: one record
    ``(n, a, b, c, m, low, pairs)`` per layer, in order (peels contribute
    none).  The layer met the pending amounts [a..b] over {1..n} with pairs
    summing to c = 2n - 2s + 1; ``pairs[i]`` went to the amount a + i, the
    amounts up to c + m were met exactly, and ``low`` is the bottom of the
    difference-pair window when m >= 1, else None.
    """
    n, a, b = inst.n, inst.run.a, inst.run.b
    blocks: dict[int, list[int]] = {t: [] for t in range(a, b + 1)}
    # targets[i] is the original target that still needs amount a + i
    targets = list(blocks)
    records: list[tuple] = []  # (n, a, b, c, m, low, pairs) per traced layer

    while targets:
        s = len(targets)
        _check_pending(n, a, b, s)
        if a <= n:
            # a peel: amount t in [a..n] gets the singleton {t}, which leaves
            # {1..a-1} for the amounts [n+1..b]
            for target, t in zip(targets, range(a, n + 1)):
                blocks[target].append(t)
            n, a = a - 1, n + 1
        elif n >= 3 * s:
            # A stretch of k plain layers that leave every target open: with
            # the sum invariant, a > c = 2n-2s+1 iff (n-s)(n-3s+1) > 0, which
            # for n >= 2s means n >= 3s, and each layer lowers n by 2s.
            k = (n - s) // (2 * s)
            step = 2 * s
            span = step * k
            placed = []  # (block, index of the stretch's first element in it)
            for i, target in enumerate(targets):
                block = blocks[target]
                placed.append((block, len(block)))
                block.extend(range(n - s - i, n - s - i - span, -step))
                block.extend(range(n - s + 1 + i, n - s + 1 + i - span, -step))
            c = 2 * n - 2 * s + 1
            if want_trace:
                # layer j gave target i the pair (n-s-i-2sj, n-s+1+i-2sj); take
                # it from the block so that trace and block share the ints
                for j in range(k):
                    nj, aj, cj = n - step * j, _stretch_start(a, c, s, j), c - 2 * step * j
                    pairs = [(block[x + j], block[x + k + j]) for block, x in placed]
                    records.append((nj, aj, aj + s - 1, cj, 0, None, pairs))
            # The pending sum minus 1 + ... + n is a quadratic in the layer
            # index j, zero at j = 0 (checked above); checking it at j = k-1
            # here and at j = k on the next round makes it zero at every
            # layer of the stretch.
            last = _stretch_start(a, c, s, k - 1)
            _check_pending(n - step * (k - 1), last, last + s - 1, s)
            n, a = n - span, _stretch_start(a, c, s, k)
            b = a + s - 1
        else:
            c, m, low, pairs, reduced = _layer_step(n, a, b)
            if want_trace:
                records.append((n, a, b, c, m, low, pairs))
            for target, pair in zip(targets, pairs):
                blocks[target].extend(pair)
            n, a, b = reduced
        # the open targets are the last ones, in order
        targets = targets[s - (b - a + 1):]

    assert n == 0, "elements left over with no targets pending"
    partition = Partition(inst.n, inst.run, {t: tuple(sorted(b)) for t, b in blocks.items()})
    return partition, (records if want_trace else None)
