"""Command-line front end.

Subcommands: ``runs``, ``partition``, ``count``, ``render``.
Every subcommand accepts ``--json`` (emit a machine-readable envelope, see
``envelope_schema.json``) and ``--no-timing`` (omit the envelope's timing
field so output bytes are reproducible).

Each subcommand builds one reply: ``cmd_<command>`` returns the envelope's
``input`` and ``result`` dicts of a reply that passed every check, or raises,
and, only without ``--json``, ``text_<command>(input_echo, result)`` gives
the text lines from those same dicts, so text and JSON cannot disagree.  A trace is written
straight from the int columns that ``construct.solve`` returns, sliced for
each piece, and the runs of a ``runs`` reply from their int ends ``(a, b)``,
with no run object.  Both are record lists that declare their shape
(``_Trace``, ``_Runs``), so each group of same-shaped records (the layers of
a stretch, all the runs) is formatted through one bytes ``%`` template.
Once the handler and its checks are done, the reply goes to stdout piece by
piece as it is formatted; only :func:`main` sets the exit code.  A
partition's blocks go out about sqrt(n) ints a piece, and a wide layer with
more targets than the square root of its trace's ints is cut between
targets, so that a wide block or layer is never held whole as text.

Exit codes: 0 success, 1 internal defect (a checked theorem or invariant
failed), 2 user error, 71 out of memory, 74 the reply could not be written
(say, a full disk), 130 interrupted (Ctrl-C), 141 the reader closed stdout
before the reply ended.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from _json import encode_basestring_ascii  # json.encoder's C escaper
from itertools import chain, islice, repeat
from operator import sub

from . import oracle, render
from .construct import solve
from .runs import ConsecutiveRun, Instance, Partition, _run_ends

SCHEMA_VERSION = "1"
DEFAULT_LIST_LIMIT = 20
# Largest sizes the CLI accepts; larger ones exit 2.  The README gives the
# measured worst-case time at each bound.
PARTITION_MAX_N = 10**5
COUNT_MAX_N = 250_000
RENDER_MAX_WIDTH = 100  # longest staircase or rebuilt row, in cells
LIST_MAX_LIMIT = 10_000  # largest --limit that count --list accepts


def _ints(values, sep: str) -> str:
    """The ints of ``values`` in decimal with ``sep`` between them, through one
    bytes ``%`` template (see :func:`_records`)."""
    values, sep = tuple(values), sep.encode()
    return ((b"%d" + sep) * len(values) % values)[:-len(sep)].decode()


def _records(template: str, sep: str, lo: int, hi: int, ints):
    """The records ``lo`` to ``hi - 1``, with ``sep`` between them, each formatted
    through the one ``%`` template; ``ints(start, stop)``, called for each piece
    in order, gives the ints of the records ``start`` to ``stop - 1``.

    Yields about sqrt(hi - lo) records a piece, so that a long batch is never
    held whole as text; the caller puts ``sep`` between the pieces.  The
    template is applied as bytes, whose ``%`` copies the text between fields
    with ``memcpy``, where str ``%`` scans it one character at a time.
    """
    template, sep = template.encode(), sep.encode()
    size = math.isqrt(hi - lo)
    for start in range(lo, hi, size):
        stop = min(start + size, hi)
        yield (sep.join([template] * (stop - start)) % tuple(ints(start, stop))).decode()


def to_json(value, write, pad: str = "\n") -> None:
    """Write ``value`` as JSON indented by two spaces, byte for byte as the
    stdlib ``json.dumps`` writes it with that indent, for what an envelope holds.

    ``write`` takes the pieces in order; ``pad`` is a newline plus the
    indentation of the line ``value`` starts on.  The stdlib drops to its
    pure-Python encoder whenever an indent is set; this writer makes one call
    per container.  A :class:`Partition` is written as its blocks object, the
    ints of each block through :func:`_ints`, in pieces of about sqrt(n)
    ints: small blocks go out together, and a block wider than that is cut
    inside itself.  A declared record list, a :class:`_Trace` or
    :class:`_Runs`, is written through its ``json`` method.
    Like the stdlib, it raises TypeError on any other type; it also raises it
    on a key that is not a str, and ValueError on NaN or infinity.
    """
    if isinstance(value, str):
        text = encode_basestring_ascii(value)
    elif value is None or value is True or value is False:
        text = "null" if value is None else "true" if value else "false"
    elif isinstance(value, int):
        text = int.__repr__(value)
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        text = float.__repr__(value)
    elif not isinstance(value, (list, tuple, dict, Partition)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    elif not (value.blocks if isinstance(value, Partition) else value):
        text = "[]" if isinstance(value, (list, tuple)) else "{}"
    elif isinstance(value, Partition):
        i1, i2 = pad + "  ", pad + "    "
        sep = "," + i2
        size = math.isqrt(sum(map(len, value.blocks.values()))) or 1
        # size ints, each followed by sep: every piece of a cut block but its last
        chunk = (b"%d" + sep.encode()) * size
        piece, count, head = [], 0, "{"
        for t in sorted(value.blocks):
            block = value.blocks[t]
            if count >= size:
                write("".join(piece))
                piece, count = [], 0
            if len(block) <= size:
                piece.append(f'{head}{i1}"{t}": [{i2}{_ints(block, sep)}{i1}]' if block
                             else f'{head}{i1}"{t}": []')
            else:
                piece.append(f'{head}{i1}"{t}": [{i2}')
                for start in range(0, len(block) - size, size):
                    piece.append((chunk % tuple(block[start:start + size])).decode())
                    write("".join(piece))
                    piece = []
                piece.append(f"{_ints(block[start + size:], sep)}{i1}]")
            count += len(block)
            head = ","
        text = "".join(piece) + pad + "}"
    else:
        inner = pad + "  "
        head = ("{" if isinstance(value, dict) else "[") + inner
        if isinstance(value, (_Trace, _Runs)):
            for piece in value.json(inner):
                write(head + piece)
                head = "," + inner
        else:
            # the escaper itself raises TypeError on a key that is not a str
            items = ((encode_basestring_ascii(key) + ": ", item) for key, item in value.items()) \
                if isinstance(value, dict) else (("", item) for item in value)
            for key, item in items:
                write(head + key)
                to_json(item, write, inner)
                head = "," + inner
        text = pad + ("}" if isinstance(value, dict) else "]")
    write(text)


def _blocks_text(partition: Partition) -> list[str]:
    return [f"U_{t} = {{{_ints(block, ', ')}}}"
            for t, block in sorted(partition.blocks.items())]


class _Trace(tuple):
    """The solver's trace columns ``(n, a, b, c, m, low, ends)``, which
    :func:`to_json` writes as a list of layers and ``text_partition`` as text.

    Consecutive layers of one shape (run length, window, and the kinds of
    their targets) are written through one template by :func:`_records`: a
    plain layer (a > c) starts a stretch of (n - s) // 2s plain layers, which
    are one group, and each other layer is a group of its own.  A layer that
    is wider than its group is long, and has more targets than the square
    root of the ints the trace is written with, is written by itself
    instead, cut between targets into pieces of that many; as text its
    deficits stay on its state line, and only its pairs' lines are cut.  Both
    writers lay out each piece's ints by strided slice assignment from slices
    of the columns, so that their cost per layer stays in C.
    """

    def __bool__(self) -> bool:  # with no layers, written as [] like an empty list
        return bool(self[0])

    def _write(self, layer, pair: str, joins: tuple[str, str], sep: str, numbered: bool):
        """The layers in pieces, with ``sep`` between them: ``layer(s, m, low)``
        gives the text of a layer of that shape before its deficits, between
        its deficits and its pairs, and after its pairs; ``joins`` the text
        between two deficits and between two pairs, and ``pair`` each pair's
        template, with its target's kind for ``%s``.  The layer's fields are
        its number (if ``numbered``), n, a, b, c, the ends of P and Q, the
        deficits, then target, low and high of each pair."""
        ns, as_, bs, cs, ms, lows, ends = self
        kind_pairs = [pair % kind for kind in ("mirror-low", "exact", "mirror-high", "open")]
        pair_ends = iter(ends)  # pieces come in order, each taking 2s ends per layer

        def ints(lo, hi):
            # the ints of layers lo to hi - 1, which share one run length s, laid
            # out by slice assignment from column slices, along the shorter axis
            t, s = hi - lo, bs[lo] - as_[lo] + 1
            n, a, c = ns[lo:hi], as_[lo:hi], cs[lo:hi]
            # each layer's pairs sum to c, so with Q = [q..n] it has P = [c - n..c - q]
            q = list(map((1 - s).__add__, n))
            heads = [range(lo + 1, hi + 1)] * numbered + [
                n, a, bs[lo:hi], c, map(sub, c, n), map(sub, c, q), q, n]
            d, e = len(heads), len(heads) + s  # where the deficits and the triples start
            width = e + 3 * s
            flat = [0] * (t * width)
            for j, column in enumerate(heads):
                flat[j::width] = column
            ends = list(islice(pair_ends, 2 * s * t))
            if s <= t:  # target i: deficit c - a - i, target a + i, pair ends[2i], ends[2i + 1]
                deficits = list(map(sub, c, a))
                for i in range(s):
                    flat[d + i::width] = map((-i).__add__, deficits)
                    flat[e + 3 * i::width] = map(i.__add__, a)
                    flat[e + 3 * i + 1::width] = ends[2 * i::2 * s]
                    flat[e + 3 * i + 2::width] = ends[2 * i + 1::2 * s]
            else:  # layer r: deficits c - a down to c - b, targets a to b, pairs from ends[2sr]
                for r, first, deficit in zip(range(t), a, map(sub, c, a)):
                    row, end = r * width, 2 * s * r
                    flat[row + d:row + e] = range(deficit, deficit - s, -1)
                    flat[row + e:row + width:3] = range(first, first + s)
                    flat[row + e + 1:row + width:3] = ends[end:end + 2 * s:2]
                    flat[row + e + 2:row + width:3] = ends[end + 1:end + 2 * s:2]
            return flat

        # targets a piece of a layer cut between them: the square root of the
        # ints the layers are written with, their heads and four a target
        step = math.isqrt((8 + numbered) * len(ns) + 2 * len(ends))

        def shapes(head, sections):
            # a layer's template in pieces, each with its number of fields:
            # each section's units, of `width` fields, with `join` between them,
            # then the text after the section, cut every `step` units where
            # `join` starts with `sep`, which the caller puts back
            text, fields = head, head.count("%d")
            for units, width, join, after in sections:
                k = step if join.startswith(sep) else len(units)
                for i in range(0, len(units), k):
                    if i:
                        yield text, fields
                        text, fields = join[len(sep):], 0
                    chunk = units[i:i + k]
                    text += join.join(chunk)
                    fields += width * len(chunk)
                text += after
            yield text, fields

        lo = 0
        while lo < len(ns):
            s, m, low, exact = bs[lo] - as_[lo] + 1, ms[lo], lows[lo], as_[lo] <= cs[lo]
            hi = lo + (1 if exact else (ns[lo] - s) // (2 * s))
            # the m targets below the pair sum c and the m above it are met by
            # difference pairs, c itself (if a <= c) by one pair, and the rest stay open
            counts = (m, exact, m, s - 2 * m - exact)
            pairs = list(chain.from_iterable(map(repeat, kind_pairs, counts)))
            head, mid, tail = layer(s, m, low)
            if s <= max(hi - lo, step):
                shape = head + joins[0].join(["%d"] * s) + mid + joins[1].join(pairs) + tail
                yield from _records(shape, sep, lo, hi, ints)
            else:
                sections = ((["%d"] * s, 1, joins[0], mid), (pairs, 3, joins[1], tail))
                for r in range(lo, hi):
                    row = iter(ints(r, r + 1))
                    for shape, fields in shapes(head, sections):
                        yield (shape.encode() % tuple(islice(row, fields))).decode()
            lo = hi

    def json(self, pad: str):
        """The JSON objects of the layers in pieces, each layer starting on a
        line indented by ``pad``."""
        i1, i2, i3, i4 = (pad + "  " * k for k in range(1, 5))
        sep = "," + i2
        pair = f'{{{i3}"target": %%d,{i3}"pair": [{i4}%%d,{i4}%%d{i3}],{i3}"kind": "%s"{i2}}}'
        before_s = f'{{{i1}"n": %d,{i1}"run": {{{i2}"a": %d,{i2}"b": %d{i1}}},{i1}"s": '
        after_s = (f',{i1}"c": %d,{i1}"p_range": [{i2}%d,{i2}%d{i1}],'
                   f'{i1}"q_range": [{i2}%d,{i2}%d{i1}],{i1}"deficits": [{i2}')

        def layer(s, m, low):
            return (f"{before_s}{s}{after_s}",
                    f'{i1}],{i1}"m": {m},{i1}"l": {"null" if low is None else low},'
                    f'{i1}"assignments": [{i2}',
                    f"{i1}]{pad}}}")

        return self._write(layer, pair, (sep, sep), "," + pad, False)

    def text(self):
        """The text of the layers in pieces: each layer's state line, then one
        line per pair."""

        def layer(s, m, low):
            return (f"layer %d: n=%d run=[%d..%d] s={s} c=%d P=[%d..%d] Q=[%d..%d] deficits=[",
                    f"] m={m}{'' if low is None else f' l={low}'}\n", "")

        return self._write(layer, "  target %%d <- (%%d, %%d)  [%s]", (",", "\n"), "\n", True)


class _Runs(list):
    """The int ends ``(a, b)`` of a ``runs`` reply's runs, ascending by ``a``, which
    :func:`to_json` writes as JSON objects and ``text_runs`` as lines, every run
    through one template by :func:`_records` from each piece's flattened ends."""

    def json(self, pad: str):
        """The runs' JSON objects in pieces, each starting on a line indented
        by ``pad``."""
        i1 = pad + "  "

        def ints(lo, hi):
            # a, b and the length b - a + 1 of runs lo to hi - 1, by slice assignment
            ends = list(chain.from_iterable(self[lo:hi]))
            a, b = ends[::2], ends[1::2]
            flat = [0] * (3 * (hi - lo))
            flat[::3], flat[1::3], flat[2::3] = a, b, map(sub, b, map((-1).__add__, a))
            return flat

        template = f'{{{i1}"a": %d,{i1}"b": %d,{i1}"length": %d{pad}}}'
        return _records(template, "," + pad, 0, len(self), ints)

    def text(self, value: int):
        """The runs' lines ``  value = [a..b]`` in pieces."""
        return _records(f"  {value} = [%d..%d]", "\n", 0, len(self),
                        lambda lo, hi: chain.from_iterable(self[lo:hi]))


def cmd_runs(args: argparse.Namespace) -> tuple[dict, dict]:
    runs = _Runs(_run_ends(args.n))
    # one run per odd divisor
    return {"n": args.n}, {"odd_divisor_count": len(runs), "runs": runs}


def text_runs(input_echo: dict, result: dict):
    value = input_echo["n"]
    yield (f"{value} has {len(result['runs'])} consecutive-run representations "
           f"(odd divisors: {result['odd_divisor_count']})")
    yield from result["runs"].text(value)


def cmd_partition(args: argparse.Namespace) -> tuple[dict, dict]:
    if args.n > PARTITION_MAX_N:
        raise ValueError(f"partition accepts n <= {PARTITION_MAX_N}, got n={args.n}")
    inst = Instance(args.n, ConsecutiveRun(args.a, args.b))
    partition, trace = solve(inst, args.trace)
    report = oracle.verify(inst.n, inst.run, partition)
    if not report.ok:  # cannot happen unless the solver is defective
        raise AssertionError(f"verify found {report.violations}")
    result: dict = {"blocks": partition, "verified": True}
    if args.trace:
        result["trace"] = _Trace(trace)
    return {"n": args.n, "a": args.a, "b": args.b}, result


def text_partition(input_echo: dict, result: dict):
    yield from result["trace"].text() if "trace" in result else ()
    yield f"n = {input_echo['n']}, run = [{input_echo['a']}..{input_echo['b']}]"
    yield from _blocks_text(result["blocks"])
    yield "verified: ok"


def cmd_count(args: argparse.Namespace) -> tuple[dict, dict]:
    if args.n > COUNT_MAX_N:
        raise ValueError(f"count accepts n <= {COUNT_MAX_N}, got n={args.n}")
    inst = Instance(args.n, ConsecutiveRun(args.a, args.b))
    if not 1 <= args.limit <= LIST_MAX_LIMIT:
        raise ValueError(f"--limit must be in 1..{LIST_MAX_LIMIT}, got {args.limit}")
    count, partitions = oracle.enumerate_all(inst, args.limit if args.list else 0)
    result: dict = {"count": count}
    if args.list:
        result["partitions"] = partitions
        result["truncated"] = count > len(partitions)
    return {"n": args.n, "a": args.a, "b": args.b}, result


def text_count(input_echo: dict, result: dict):
    count = result["count"]
    yield f"n = {input_echo['n']}, run = [{input_echo['a']}..{input_echo['b']}]"
    yield f"count = {count}"
    if "partitions" in result:
        shown = result["partitions"]
        for idx, partition in enumerate(shown, start=1):
            yield f"#{idx}: " + "; ".join(_blocks_text(partition))
        if result["truncated"]:
            yield f"... {count - len(shown)} more not shown"


def cmd_render(args: argparse.Namespace) -> tuple[dict, dict]:
    if (args.a is None) != (args.b is None):
        raise ValueError("render takes either just n, or n together with both a and b")
    widest = max(args.n, args.b or 0)
    if widest > RENDER_MAX_WIDTH:
        raise ValueError(f"render draws rows of at most {RENDER_MAX_WIDTH} cells, got {widest}")
    result: dict = {"staircase": render.render_staircase(args.n).split("\n")}
    if args.a is None:
        return {"n": args.n}, result
    # the partition that partition's reply would hold, so it too is verified
    input_echo, partitioned = cmd_partition(args)
    result["rebuilt"] = render.render_rebuilt(partitioned["blocks"]).split("\n")
    return input_echo, result


def text_render(input_echo: dict, result: dict):
    yield from result["staircase"]
    if "rebuilt" in result:
        yield from ["", *result["rebuilt"]]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit a JSON envelope instead of text"
    )
    common.add_argument(
        "--no-timing",
        action="store_true",
        help="omit timing_ms from the JSON envelope (reproducible bytes)",
    )

    parser = argparse.ArgumentParser(
        prog="staircase-sums",
        description=(
            "Enumerate consecutive-run representations of integers and build "
            "partitions of {1..n} realizing them"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("runs", parents=[common],
                       help="all consecutive runs summing to N")
    p.add_argument("n", type=int, metavar="N")
    p.set_defaults(handler=cmd_runs, text=text_runs)

    p = sub.add_parser("partition", parents=[common],
                       help="build one partition of {1..n} realizing targets a..b")
    p.add_argument("n", type=int, help=f"prefix length, at most {PARTITION_MAX_N}")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--trace", action="store_true",
                   help="show each layer's intermediate state")
    p.set_defaults(handler=cmd_partition, text=text_partition)

    p = sub.add_parser("count", parents=[common],
                       help="exhaustively count all partitions realizing a..b")
    p.add_argument("n", type=int)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--list", action="store_true", help="also print the partitions")
    p.add_argument("--limit", type=int, default=DEFAULT_LIST_LIMIT,
                   help=f"max partitions to list (default {DEFAULT_LIST_LIMIT}, "
                        f"at most {LIST_MAX_LIMIT})")
    p.add_argument("--force", action="store_true",
                   help="has no effect; kept so existing command lines still parse")
    p.set_defaults(handler=cmd_count, text=text_count)

    p = sub.add_parser("render", parents=[common],
                       help="draw the staircase tableau (and the rebuilt one for a..b)")
    p.add_argument("n", type=int)
    p.add_argument("a", type=int, nargs="?", default=None)
    p.add_argument("b", type=int, nargs="?", default=None)
    p.set_defaults(handler=cmd_render, text=text_render, trace=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (2) or --help (0), already printed
        return exc.code
    started = time.perf_counter()
    try:
        input_echo, result = args.handler(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal defect: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 71
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    if sys.stdout is None:  # started with stdout closed: there is nowhere to write
        return 0
    try:
        if args.json:
            envelope: dict = {"schema_version": SCHEMA_VERSION, "command": args.command,
                              "input": input_echo, "result": result}
            if not args.no_timing:
                envelope["timing_ms"] = round(elapsed_ms, 3)
            to_json(envelope, sys.stdout.write)
            sys.stdout.write("\n")
        else:
            sys.stdout.writelines(line + "\n" for line in args.text(input_echo, result))
        sys.stdout.flush()
    except (OSError, MemoryError) as exc:  # the rest, and the flush at exit, go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 141
        if isinstance(exc, MemoryError):
            print("error: out of memory", file=sys.stderr)
            return 71
        print(f"error: cannot write the reply: {exc.strerror}", file=sys.stderr)
        return 74
    return 0


def run() -> int:
    """The process entry: :func:`main`, with Ctrl-C ending in exit 130 and no traceback."""
    try:
        return main()
    except KeyboardInterrupt:  # main lets it through, so that an in-process caller stops
        return 130

