"""Command-line front end.

Subcommands: ``runs``, ``partition``, ``count``, ``render``.
Every subcommand accepts ``--json`` (emit a machine-readable envelope, see
``envelope_schema.json``) and ``--no-timing`` (omit the envelope's timing
field so output bytes are reproducible).

``cmd_<command>`` returns the ``input`` and ``result`` dicts of a reply that
passed every check, or raises; ``text_<command>(input_echo, result)`` yields
the text reply from those same dicts, so text and JSON cannot disagree.  Only
:func:`main` sets the exit code; it writes the reply as it is formatted, each
record list (blocks, listing, trace, runs) straight from its ints in the
pieces of one cutter, :func:`_pieces`, as JSON and as text alike.

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
from itertools import chain, groupby, islice, repeat, tee
from operator import countOf, sub

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
# Fewest ints a piece is cut at (see _pieces): each piece costs a few microseconds.
PIECE_MIN_INTS = 512


def to_json(value, write, pad: str = "\n") -> None:
    """Write ``value`` as JSON indented by two spaces, byte for byte as the
    stdlib ``json.dumps`` writes it with that indent, for what an envelope holds.

    ``write`` takes the pieces in order; ``pad`` is a newline plus the
    indentation of the line ``value`` starts on.  The stdlib drops to its
    pure-Python encoder whenever an indent is set; this writer makes one call
    per container, and writes a :class:`Partition` and each declared record
    list (:class:`_Trace`, :class:`_Runs`, :class:`_Partitions`) in the pieces
    of :func:`_pieces`.
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
    elif isinstance(value, (Partition, _Trace, _Runs, _Partitions)):
        pieces = _Partitions([value]).write(["{"], ",", pad + "}", pad + "  ") \
            if isinstance(value, Partition) else value.json(pad)
        for piece in pieces:
            write(piece)
        return
    else:
        inner = pad + "  "
        head = ("{" if isinstance(value, dict) else "[") + inner
        # the escaper itself raises TypeError on a key that is not a str
        items = ((encode_basestring_ascii(key) + ": ", item) for key, item in value.items()) \
            if isinstance(value, dict) else (("", item) for item in value)
        for key, item in items:
            write(head + key)
            to_json(item, write, inner)
            head = "," + inner
        text = pad + ("}" if isinstance(value, dict) else "]")
    write(text)


def _pieces(units, ints, total: int):
    """The text of ``units``, which hold ``total`` fields, in pieces.

    Each unit is a run ``(template, fields, count)``: ``count`` copies of a
    ``%`` template with ``fields`` fields ``%d`` and no ``%%``, filled in order
    from the int sequences of the iterator ``ints``.  The piece rule: a piece is
    cut only between two copies, and holds max(PIECE_MIN_INTS, isqrt(total))
    fields at most, unless it is one wider copy.  Each piece is formatted once,
    as bytes, whose ``%`` copies the text between fields with ``memcpy``."""
    size = max(PIECE_MIN_INTS, math.isqrt(total))
    chunk, pos = (), 0  # the int sequence being read, and its first int not yet used

    def fill(templates, need):  # the templates' text, with the next ``need`` ints
        nonlocal chunk, pos
        args, pos = chunk[pos:pos + need], pos + need
        while len(args) < need:  # the rest from the next sequences
            chunk, pos = next(ints), need - len(args)
            args = (*args, *chunk[:pos])
        return ("".join(templates).encode() % tuple(args)).decode()

    templates, room = [], size
    for template, fields, count in units:
        while fields * count > room:  # the run does not fit: the copies that do, then a cut
            k = max(room // fields, room == size)  # or one wider copy, alone in its piece
            templates.append(template * k)
            count -= k
            yield fill(templates, size - room + k * fields)
            templates, room = [], size
        templates.append(template * count)
        room -= fields * count
    yield fill(templates, size - room)


def _record_units(parts: list, count: int, lead: str, sep: str) -> list:
    """The units of ``count`` records of the runs ``parts``, ``lead`` before the
    first and ``sep`` before each other: one template for all if a record fits
    in any piece, else each record in its parts, the first of them one copy."""
    template, fields = "", 0
    for t, f, c in parts:  # the template is built only while the record fits
        fields += f * c
        template += t * c if fields <= PIECE_MIN_INTS else ""
    if fields <= PIECE_MIN_INTS:
        return [(lead + template, fields, 1), (sep + template, fields, count - 1)]
    (first, f, _), *rest = parts
    return [(lead + first, f, 1), *rest, *[(sep + first, f, 1), *rest] * (count - 1)]


class _Trace(tuple):
    """The solver's trace columns ``(n, a, b, c, m, low, ends)``, which
    :func:`to_json` writes as a list of layers and ``text_partition`` as text.
    Layers of one shape (run length, window, kinds of targets) are one run of
    records: a plain layer (a > c) starts a stretch of (n - s) // 2s of them,
    and each other layer is a run of its own."""

    def __bool__(self) -> bool:  # with no layers, written as [] like an empty list
        return bool(self[0])

    def _write(self, layer, pair: str, joins: tuple, frame: tuple, numbered: bool):
        """The layers in pieces, ``frame`` the text before the first layer,
        between two and after the last: ``layer(s, m, low)`` gives a layer's
        text before its deficits, between them and its pairs, and after its
        pairs; ``joins`` the text between two deficits and two pairs, and
        ``pair`` each pair's template, with its kind for ``%s``.  The fields
        are the layer's number (if ``numbered``), n, a, b, c, the ends of P and
        Q, the deficits, then target, low and high of each pair."""
        if not self:  # no layers: no text, not even the frame's
            return iter(())
        ns, as_, bs, cs, ms, lows, ends = self
        head_ints = 8 + numbered
        pairs = [pair % kind for kind in ("mirror-low", "exact", "mirror-high", "open")]
        pair_ends = iter(ends)  # ints come in order, each layer taking its 2s ends

        groups, lo = [], 0
        while lo < len(ns):
            s = bs[lo] - as_[lo] + 1
            hi = lo + (1 if as_[lo] <= cs[lo] else (ns[lo] - s) // (2 * s))
            groups.append((lo, hi, s))
            lo = hi

        def ints():  # each run of k layers, about sqrt(k) layers but at least a piece's
            # PIECE_MIN_INTS ints at a time, laid out by slice assignment from
            # column slices, along the shorter axis
            for start, stop, s in groups:
                step = max(math.isqrt(stop - start), PIECE_MIN_INTS // (head_ints + 4 * s))
                for lo in range(start, stop, step):
                    hi = min(lo + step, stop)
                    t = hi - lo
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
                    # per target i: deficit c - a - i, target a + i, pair ends[2i], ends[2i + 1]
                    if s <= t:
                        deficits = list(map(sub, c, a))
                        for i in range(s):
                            flat[d + i::width] = map((-i).__add__, deficits)
                            flat[e + 3 * i::width] = map(i.__add__, a)
                            flat[e + 3 * i + 1::width] = ends[2 * i::2 * s]
                            flat[e + 3 * i + 2::width] = ends[2 * i + 1::2 * s]
                    else:  # per layer r: deficits c - a to c - b, targets a to b, ends from 2sr
                        for r, first, deficit in zip(range(t), a, map(sub, c, a)):
                            row, end = r * width, 2 * s * r
                            flat[row + d:row + e] = range(deficit, deficit - s, -1)
                            flat[row + e:row + width:3] = range(first, first + s)
                            flat[row + e + 1:row + width:3] = ends[end:end + 2 * s:2]
                            flat[row + e + 2:row + width:3] = ends[end + 1:end + 2 * s:2]
                    yield flat

        def units():
            lead, sep, close = frame
            for lo, hi, s in groups:
                m, exact = ms[lo], as_[lo] <= cs[lo]
                # the m targets below the pair sum c and the m above it are met by
                # difference pairs, c itself (if a <= c) by one pair, and the rest stay open
                kinds = [(kind, k) for kind, k in zip(pairs, (m, exact, m, s - 2 * m - exact)) if k]
                head, mid, tail = layer(s, m, lows[lo])
                parts = [(head + "%d", head_ints + 1, 1), (joins[0] + "%d", 1, s - 1),
                         (mid + kinds[0][0], 3, 1), (joins[1] + kinds[0][0], 3, kinds[0][1] - 1),
                         *((joins[1] + kind, 3, k) for kind, k in kinds[1:]), (tail, 0, 1)]
                yield from _record_units(parts, hi - lo, lead, sep)
                lead = sep
            yield close, 0, 1

        return _pieces(units(), ints(), head_ints * len(ns) + 2 * len(ends))

    def json(self, pad: str):
        """The JSON list of the layers, its brackets indented by ``pad``."""
        i1, i2, i3, i4, i5 = (pad + "  " * k for k in range(1, 6))
        pair = f'{{{i4}"target": %%d,{i4}"pair": [{i5}%%d,{i5}%%d{i4}],{i4}"kind": "%s"{i3}}}'
        before_s = f'{{{i2}"n": %d,{i2}"run": {{{i3}"a": %d,{i3}"b": %d{i2}}},{i2}"s": '
        after_s = (f',{i2}"c": %d,{i2}"p_range": [{i3}%d,{i3}%d{i2}],'
                   f'{i2}"q_range": [{i3}%d,{i3}%d{i2}],{i2}"deficits": [{i3}')

        def layer(s, m, low):
            return (f"{before_s}{s}{after_s}",
                    f'{i2}],{i2}"m": {m},{i2}"l": {"null" if low is None else low},'
                    f'{i2}"assignments": [{i3}',
                    f"{i2}]{i1}}}")

        return self._write(layer, pair, ("," + i3, "," + i3), ("[" + i1, "," + i1, pad + "]"),
                           False)

    def text(self):
        """The layers as text: each one's state line, then a line per pair."""

        def layer(s, m, low):
            return (f"layer %d: n=%d run=[%d..%d] s={s} c=%d P=[%d..%d] Q=[%d..%d] deficits=[",
                    f"] m={m}{'' if low is None else f' l={low}'}\n", "")

        return self._write(layer, "  target %%d <- (%%d, %%d)  [%s]", (",", "\n"), ("", "\n", "\n"),
                           True)


class _Runs(list):
    """The int ends ``(a, b)`` of a ``runs`` reply's runs, ascending by ``a``, which
    :func:`to_json` writes as JSON objects and ``text_runs`` as lines, every run
    through one template."""

    def json(self, pad: str):
        """The JSON list of the runs, its brackets indented by ``pad``."""
        i1, i2 = pad + "  ", pad + "    "
        record = f'{{{i2}"a": %d,{i2}"b": %d,{i2}"length": %d{i1}}}'
        flat = [x for a, b in self for x in (a, b, b - a + 1)]
        units = [("[" + i1 + record, 3, 1), ("," + i1 + record, 3, len(self) - 1)]
        return _pieces([*units, (pad + "]", 0, 1)], iter([flat]), len(flat))

    def text(self, value: int):
        """The runs' lines ``  value = [a..b]``, each after a newline."""
        units = [(f"\n  {value} = [%d..%d]", 2, len(self)), ("\n", 0, 1)]
        return _pieces(units, iter([[*chain.from_iterable(self)]]), 2 * len(self))


class _Partitions(list):
    """Partitions whose blocks go through one cutter call: a ``count --list``
    listing, which ``text_count`` writes a line each, or one partition."""

    def write(self, leads, sep: str, close: str, pad: str | None = None):
        """Each partition's blocks by ascending target after its lead from
        ``leads``, ``sep`` between blocks, ``close`` after the last: JSON keys
        and lists on lines starting with ``pad``, or ``U_t = {e, ...}`` with
        no ``pad``.  Consecutive blocks of one width share a template."""
        head, item, tail = ("U_%d = {", ", ", "}") if pad is None else (
            f'{pad}"%d": [{pad}  ', f",{pad}  ", f"{pad}]")

        # each partition's blocks and targets, sorted once for its templates and its ints
        unit_keys, int_keys = tee((p.blocks, sorted(p.blocks)) for p in self)

        def units():
            for (blocks, keys), lead in zip(unit_keys, leads):
                for width, run in groupby(map(len, map(blocks.__getitem__, keys))):
                    # an empty block is its head and tail with no space between
                    parts = [(head + "%d", 2, 1), (item + "%d", 1, width - 1), (tail, 0, 1)] \
                        if width else [(head.rstrip() + tail.strip(), 1, 1)]
                    # countOf counts the run without holding it: each of its widths is width
                    yield from _record_units(parts, countOf(run, width), lead, sep)
                    lead = sep
            yield close, 0, 1

        def ints():  # each block's target, then its elements
            for blocks, keys in int_keys:
                flat = []
                for t, block in zip(keys, map(blocks.__getitem__, keys)):
                    flat.append(t)
                    if len(flat) + len(block) < PIECE_MIN_INTS:
                        flat += block
                    else:  # a piece's worth: the block is read in place, not copied
                        yield from (flat, block)
                        flat = []
                yield flat

        total = sum(len(p.blocks) + sum(map(len, p.blocks.values())) for p in self)
        return _pieces(units(), ints(), total)

    def json(self, pad: str):
        """The JSON list of the partitions, its brackets indented by ``pad``."""
        i1 = pad + "  "
        return self.write(chain([f"[{i1}{{"], repeat(f"{i1}}},{i1}{{")), ",", f"{i1}}}{pad}]",
                          i1 + "  ")


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
    yield f"n = {input_echo['n']}, run = [{input_echo['a']}..{input_echo['b']}]\n"
    yield from _Partitions([result["blocks"]]).write([""], "\n", "\n")
    yield "verified: ok\n"


def cmd_count(args: argparse.Namespace) -> tuple[dict, dict]:
    if args.n > COUNT_MAX_N:
        raise ValueError(f"count accepts n <= {COUNT_MAX_N}, got n={args.n}")
    inst = Instance(args.n, ConsecutiveRun(args.a, args.b))
    if not 1 <= args.limit <= LIST_MAX_LIMIT:
        raise ValueError(f"--limit must be in 1..{LIST_MAX_LIMIT}, got {args.limit}")
    count, partitions = oracle.enumerate_all(inst, args.limit if args.list else 0)
    result: dict = {"count": count}
    if args.list:
        result["partitions"] = _Partitions(partitions)
        result["truncated"] = count > len(partitions)
    return {"n": args.n, "a": args.a, "b": args.b}, result


def text_count(input_echo: dict, result: dict):
    count, shown = result["count"], result.get("partitions")
    yield f"n = {input_echo['n']}, run = [{input_echo['a']}..{input_echo['b']}]\ncount = {count}\n"
    if shown:  # one line "#i: U_t = {...}; ..." per partition
        yield from shown.write(chain(["#1: "], map("\n#{}: ".format, range(2, len(shown) + 1))),
                               "; ", "\n")
    if result.get("truncated"):
        yield f"... {count - len(shown)} more not shown\n"


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
    yield "\n".join(result["staircase"]) + "\n"
    if "rebuilt" in result:
        yield "\n" + "\n".join(result["rebuilt"]) + "\n"


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
            sys.stdout.writelines(args.text(input_echo, result))
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

