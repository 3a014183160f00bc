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
  simultaneously meets the mirrored target above c; the m pairs fill a window
  of 2m+1 values as four arithmetic progressions and one spare value.  The
  other targets get (c - q, q) for each q left over, stay open and are filled
  up by deeper layers.

Every intermediate state keeps the pending amounts in a consecutive run whose
sum is the triangular number of the remaining prefix, which is what makes the
recursion close.  Each reduction meets amounts from the front of that run, so
the targets still open are always the last ones, in order, and :func:`solve`
keeps their blocks as a tail of one list.

Most layers are *plain*: m = c - a <= 0, so there is no difference-pair
window and the i-th target just gets the pair (n-s-i, n-s+1+i), which maps
the instance (n, [a..b]) to (n-2s, [a-c..b-c]).  Under the sum invariant,
a - c = (n-s)(n-3s+1) / 2s, so a layer is plain exactly when n >= 3s - 1, and
plain layers come in *stretches*: k = (n-s+1) // 2s consecutive layers, over
which target i receives the two arithmetic progressions n-s-i, n-3s-i, ...
and n-s+1+i, n-s+1+i-2s, ... of k terms each.  Each leaves every target
open, in order, but the last one, which *closes* the first target when it
has a = c (n = 3s - 1).  :func:`solve` works on plain ints and takes one step
per peel, per stretch and per windowed layer, so a worst run [T(n)..T(n)] is
one stretch, then at most one peel; a layer's s pairs are one flat list of
2s ends, as in the trace.  A trace, seven columns (documented at
:func:`solve`), is built only when asked for.
A stretch's entries are appended in bulk, not layer by layer: its n and pair
sums are arithmetic progressions, its run starts the running sums of those
pair sums, and its pair ends are laid out by strided slice assignment from
the progressions just added to the blocks.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import sub

from .runs import Instance, Partition


def difference_pairs(m: int, low: int) -> tuple[list[int], list[int]]:
    """Pairs with differences 1..m in the window [low..low+2m], as columns ``(xs, xps)``.

    Pair d is ``(xs[d-1], xps[d-1])``, and ``xps[d-1] - xs[d-1] = d``.  With
    h = low + (m-1)//2, odd d nest outward from (h, h+1) and even d from
    (h+m, h+m+2): four arithmetic progressions, which leave out only h+m+1.
    """
    if m < 1 or low < 1:
        raise ValueError(f"need m >= 1 and low >= 1, got m={m}, low={low}")
    h = low + (m - 1) // 2
    up, down = (m + 1) // 2, m // 2
    xs, xps = [0] * m, [0] * m
    xs[0::2] = range(h, h - up, -1)
    xps[0::2] = range(h + 1, h + 1 + up)
    xs[1::2] = range(h + m, h + m - down, -1)
    xps[1::2] = range(h + m + 2, h + m + 2 + down)
    return xs, xps


def _layer_step(n: int, a: int, b: int) -> tuple[int, int, int, list[int], tuple[int, int, int]]:
    """One windowed layer (2s < n <= 3s - 2) of (n, a, b): ``(c, m, low, ends, reduced)``.

    Never n = 2s <= 3s - 2: the sum invariant would give a = (3s + 3)/2 > n only at s = 2, a = 9/2.

    Amount a + i gets ``ends[2i]`` and ``ends[2i + 1]``, as in the trace.  Amounts up
    to c + m are met exactly; the others stay open and need the rest from ``reduced``.
    """
    s = b - a + 1
    assert n >= 2 * s, f"length bound violated for valid instance (n={n}, s={s})"
    c = 2 * n - 2 * s + 1
    m = c - a
    assert m >= 1, f"windowless layer outside a stretch (n={n}, s={s})"
    # The window [low..n], the top 2m+1 values of Q = [n-s+1..n], holds the
    # difference pairs: (x, x') of difference d meets amount c - d, at index
    # m - d, as (c - x', x) and c + d, at m + d, as (c - x, x').
    assert s >= 2 * m + 1, f"window exceeds Q (s={s}, m={m})"
    low = n - 2 * m
    xs, xps = difference_pairs(m, low)
    # The open amounts, a + m then a + 2m + 1 to b, get (c - q, q) for the q no
    # pair took, in order: those below the window, then its spare one, which the
    # window's sum (2m+1)(n-m) gives.
    free = [*range(n - s + 1, low), (2 * m + 1) * (n - m) - sum(xs) - sum(xps)]
    ends = [0] * (2 * s)
    ends[1::2] = [*xs[::-1], free[0], *xps, *free[1:]]
    ends[0::2] = map(c.__sub__, [*xps[::-1], free[0], *xs, *free[1:]])
    return c, m, low, ends, (n - 2 * s, m + 1, b - c)


def _check_pending(n: int, a: int, b: int, pending: int) -> None:
    # the pending amounts are the run [a..b], one per pending target, and
    # their sum is 1 + ... + n, so with none pending n = 0
    assert n >= 0 and a >= 1 and b - a + 1 == pending and (a + b) * pending == n * (n + 1), (
        f"pending amounts out of sync with instance (n={n}, run=[{a}..{b}])"
    )


def _stretch_start(a: int, c: int, s: int, j: int) -> int:
    """Run start after j layers of a stretch that starts at run start a and pair sum c.

    Layer i of the stretch subtracts its pair sum c - 4si from every amount.
    """
    return a - j * c + 2 * s * j * (j - 1)


def solve(inst: Instance, want_trace: bool = False) -> tuple[Partition, tuple[list, ...] | None]:
    """Partition {1..n} into blocks summing to each target of the run.

    Deterministic; the same instance always yields the identical partition.
    With ``want_trace`` it also returns the trace as the lists ``(n, a, b, c,
    m, low, ends)``, one entry per layer in each but ``ends`` (peels add none).
    The layer met the pending amounts [a..b] over {1..n} with s = b - a + 1
    pairs summing to c = 2n - 2s + 1, its next 2s ``ends`` being the pairs of
    the amounts a to b, end by end; the amounts up to c + m were met exactly,
    and ``low`` is the bottom of the difference-pair window when m >= 1, else None.
    """
    n, a, b = inst.n, inst.run.a, inst.run.b
    # one block per target, in target order; opened[i] still needs amount a + i
    blocks: list[list[int]] = [[] for _ in range(a, b + 1)]
    opened = blocks
    trace = tuple([] for _ in range(7)) if want_trace else None

    while opened:
        s = len(opened)
        if a <= n:
            # a peel: amount t in [a..n] gets the singleton {t}, which leaves
            # {1..a-1} for the amounts [n+1..b]
            for block, t in zip(opened, range(a, n + 1)):
                block.append(t)
            n, a = a - 1, n + 1
        elif n >= 3 * s - 1:
            # A stretch of the k windowless layers: with the sum invariant,
            # a >= c = 2n-2s+1 iff (n-s)(n-3s+1) >= 0, which for n >= 2s means
            # n >= 3s - 1, and each layer lowers n by 2s.
            k = (n - s + 1) // (2 * s)
            step = 2 * s
            span = step * k
            for i, block in enumerate(opened):
                block.extend(range(n - s - i, n - s - i - span, -step))
                block.extend(range(n - s + 1 + i, n - s + 1 + i - span, -step))
            c = 2 * n - 2 * s + 1
            if want_trace:
                # Layer j has pair sum c - 4sj, which it takes off every amount, and
                # gave target i the j-th term of each progression: ends 2sj + 2i and
                # 2sj + 2i + 1 of the span that the stretch appends, read from the
                # blocks so that trace and blocks share the ints.
                sums = range(c, c - 2 * span, -2 * step)
                starts = list(accumulate(sums[:-1], sub, initial=a))
                for column, values in zip(trace, (range(n, n - span, -step), starts,
                                                  map((s - 1).__add__, starts), sums, repeat(0, k),
                                                  repeat(None, k), repeat(0, span))):
                    column += values
                for i, block in enumerate(opened):
                    trace[6][2 * i - span::step] = block[-2 * k:-k]
                    trace[6][2 * i + 1 - span::step] = block[-k:]
            # The pending sum minus 1 + ... + n is a quadratic in the layer
            # index j, zero at j = 0 (checked before this step); checking it
            # at j = k-1 here and at j = k after this step makes it zero at
            # every layer of the stretch.
            last = _stretch_start(a, c, s, k - 1)
            _check_pending(n - step * (k - 1), last, last + s - 1, s)
            n, a = n - span, _stretch_start(a, c, s, k)
            # a closing last layer (a = c) met the first target: the open run is [1..s-1]
            a, b = max(a, 1), a + s - 1
        else:
            c, m, low, ends, reduced = _layer_step(n, a, b)
            pair_ends = iter(ends)
            for block, p, q in zip(opened, pair_ends, pair_ends):
                block.append(p)
                block.append(q)
            if want_trace:
                for column, values in zip(trace, ([n], [a], [b], [c], [m], [low], ends)):
                    column += values
            n, a, b = reduced
        # the open blocks are the last ones, in order
        opened = opened[s - (b - a + 1):]
        _check_pending(n, a, b, len(opened))

    partition = Partition(inst.n, inst.run, {
        t: tuple(sorted(block)) for t, block in zip(inst.run.values(), blocks)})
    return partition, trace
