"""Command-line front end.

Subcommands: ``runs``, ``partition``, ``count``, ``render``, ``selftest``.
Every subcommand accepts ``--json`` (emit a machine-readable envelope, see
``envelope_schema.json``) and ``--no-timing`` (omit the envelope's timing
field so output bytes are reproducible).

Each subcommand builds one reply: ``cmd_<command>`` returns the envelope's
``input`` and ``result`` dicts and the exit code, and, only without
``--json``, ``text_<command>(input_echo, result)`` gives the text lines from
those same dicts, so text and JSON cannot disagree.  A trace is written
straight from the per-layer int records that ``construct.solve`` returns.
Once the handler and its checks are done, the reply goes to stdout piece by
piece as it is formatted.

Exit codes: 0 success, 1 internal defect (a checked theorem or invariant
failed), 2 user error, 141 the reader closed stdout before the reply ended.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from _json import encode_basestring_ascii  # json.encoder's C escaper

from . import oracle, render
from .construct import Partition, _kind, difference_pairs, solve
from .runs import (
    ConsecutiveRun,
    Instance,
    check_length_bound,
    enumerate_runs,
    triangular,
)

SCHEMA_VERSION = "1"
DEFAULT_LIST_LIMIT = 20
# Largest sizes the CLI accepts; larger ones exit 2.  The README gives the
# measured worst-case time at each bound.
PARTITION_MAX_N = 10**5
COUNT_MAX_N = 250_000
RENDER_MAX_WIDTH = 100  # longest staircase or rebuilt row, in cells
SELFTEST_MAX_N = 1000
LIST_MAX_LIMIT = 10_000  # largest --limit that count --list accepts


def _ints(values, sep: str) -> str:
    """The ints of ``values`` in decimal with ``sep`` between them, formatted in C."""
    values = tuple(values)
    return (("%d" + sep) * len(values) % values)[:-len(sep)]


def to_json(value, write, pad: str = "\n") -> None:
    """Write ``value`` as JSON indented by two spaces, byte for byte as the
    stdlib ``json.dumps`` writes it with that indent, for what an envelope holds.

    ``write`` takes the pieces in order; ``pad`` is a newline plus the
    indentation of the line ``value`` starts on.  The stdlib drops to its
    pure-Python encoder whenever an indent is set; this writer makes one call
    per container and formats each flat sequence of ints in C (:func:`_ints`).
    A :class:`Partition` is written as its blocks object and a :class:`_Trace`
    as the list of its layers.  Like the stdlib, it raises TypeError on any
    other type; it also raises it on a key that is not a str, and ValueError
    on NaN or infinity.
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
    elif not value:
        text = "{}" if isinstance(value, dict) else "[]"
    elif isinstance(value, Partition):
        i1, i2 = pad + "  ", pad + "    "
        text = "{" + ",".join(
            f'{i1}"{t}": ' + (f"[{i2}" + _ints(block, "," + i2) + i1 + "]" if block else "[]")
            for t, block in sorted(value.blocks.items())) + pad + "}"
    elif isinstance(value, (list, tuple)) and set(map(type, value)) == {int}:
        text = "[" + pad + "  " + _ints(value, "," + pad + "  ") + pad + "]"
    else:
        inner = pad + "  "
        head = ("{" if isinstance(value, dict) else "[") + inner
        if isinstance(value, _Trace):
            for layer in value.json(inner):
                write(head + layer)
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


class _Trace(list):
    """The solver's layer records ``(n, a, b, c, m, low, pairs)``, which
    :func:`to_json` writes as JSON and ``text_partition`` as text."""

    def json(self, pad: str):
        """The JSON object of each layer, starting on a line indented by ``pad``."""
        i1, i2, i3, i4 = (pad + "  " * k for k in range(1, 5))
        pair = f'{{{i3}"target": %d,{i3}"pair": [{i4}%d,{i4}%d{i3}],{i3}"kind": "%s"{i2}}}'
        for n, a, b, c, m, low, pairs in self:
            s = b - a + 1
            deficits = _ints(range(c - a, c - b - 1, -1), "," + i2)
            assignments = ("," + i2).join(
                pair % (t, lo, hi, _kind(t, c, m)) for t, (lo, hi) in zip(range(a, b + 1), pairs))
            yield (
                f'{{{i1}"n": {n},{i1}"run": {{{i2}"a": {a},{i2}"b": {b}{i1}}},{i1}"s": {s},'
                f'{i1}"c": {c},{i1}"p_range": [{i2}{n - 2 * s + 1},{i2}{n - s}{i1}],'
                f'{i1}"q_range": [{i2}{n - s + 1},{i2}{n}{i1}],'
                f'{i1}"deficits": [{i2}{deficits}{i1}],{i1}"m": {m},'
                f'{i1}"l": {"null" if low is None else low},'
                f'{i1}"assignments": [{i2}{assignments}{i1}]{pad}}}'
            )

    def text(self):
        """The text of each layer: its state line, then one line per pair."""
        for idx, (n, a, b, c, m, low, pairs) in enumerate(self, start=1):
            s = b - a + 1
            deficits = _ints(range(c - a, c - b - 1, -1), ",")
            yield (
                f"layer {idx}: n={n} run=[{a}..{b}] s={s} c={c} P=[{n - 2 * s + 1}..{n - s}] "
                f"Q=[{n - s + 1}..{n}] deficits=[{deficits}] m={m}"
                f"{'' if low is None else f' l={low}'}"
            ) + "".join(
                f"\n  target {t} <- ({lo}, {hi})  [{_kind(t, c, m)}]"
                for t, (lo, hi) in zip(range(a, b + 1), pairs)
            )


def cmd_runs(args: argparse.Namespace) -> tuple[dict, dict, int]:
    runs = enumerate_runs(args.n)
    result = {
        # enumerate_runs builds exactly one run per odd divisor
        "odd_divisor_count": len(runs),
        "runs": [{"a": r.a, "b": r.b, "length": r.length()} for r in runs],
    }
    return {"n": args.n}, result, 0


def text_runs(input_echo: dict, result: dict):
    value = input_echo["n"]
    yield (f"{value} has {len(result['runs'])} consecutive-run representations "
           f"(odd divisors: {result['odd_divisor_count']})")
    yield from (f"  {value} = [{r['a']}..{r['b']}]" for r in result["runs"])


def cmd_partition(args: argparse.Namespace) -> tuple[dict, dict, int]:
    if args.n > PARTITION_MAX_N:
        raise ValueError(f"partition accepts n <= {PARTITION_MAX_N}, got n={args.n}")
    inst = Instance(args.n, ConsecutiveRun(args.a, args.b))
    partition, records = solve(inst, args.trace)
    report = oracle.verify(inst.n, inst.run, partition)
    result: dict = {"blocks": partition, "verified": report.ok}
    if args.trace:
        result["trace"] = _Trace(records)
    if not report.ok:
        # cannot happen unless the solver is defective
        print(f"internal defect: verify found {report.violations}", file=sys.stderr)
    return {"n": args.n, "a": args.a, "b": args.b}, result, 0 if report.ok else 1


def text_partition(input_echo: dict, result: dict):
    yield from result.get("trace", _Trace()).text()
    yield f"n = {input_echo['n']}, run = [{input_echo['a']}..{input_echo['b']}]"
    yield from _blocks_text(result["blocks"])
    yield "verified: ok" if result["verified"] else "verified: FAILED"


def cmd_count(args: argparse.Namespace) -> tuple[dict, dict, int]:
    if args.n > COUNT_MAX_N:
        raise ValueError(f"count accepts n <= {COUNT_MAX_N}, got n={args.n}")
    inst = Instance(args.n, ConsecutiveRun(args.a, args.b))
    cap = args.limit if args.limit is not None else DEFAULT_LIST_LIMIT
    if not 1 <= cap <= LIST_MAX_LIMIT:
        raise ValueError(f"--limit must be in 1..{LIST_MAX_LIMIT}, got {cap}")
    count, partitions = oracle.enumerate_all(
        inst, materialize=args.list, cap=cap if args.list else None
    )
    result: dict = {"count": count}
    if args.list:
        result["partitions"] = partitions
        result["truncated"] = count > len(partitions)
    return {"n": args.n, "a": args.a, "b": args.b}, result, 0


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


def cmd_render(args: argparse.Namespace) -> tuple[dict, dict, int]:
    if (args.a is None) != (args.b is None):
        raise ValueError("render takes either just n, or n together with both a and b")
    widest = max(args.n, args.b or 0)
    if widest > RENDER_MAX_WIDTH:
        raise ValueError(f"render draws rows of at most {RENDER_MAX_WIDTH} cells, got {widest}")
    input_echo: dict = {"n": args.n}
    result: dict = {"staircase": render.render_staircase(args.n).split("\n")}
    if args.a is not None:
        partition, _ = solve(Instance(args.n, ConsecutiveRun(args.a, args.b)))
        input_echo = {"n": args.n, "a": args.a, "b": args.b}
        result["rebuilt"] = render.render_rebuilt(partition).split("\n")
    return input_echo, result, 0


def text_render(input_echo: dict, result: dict):
    yield from result["staircase"]
    if "rebuilt" in result:
        yield from ["", *result["rebuilt"]]


def _selftest_checks(max_n: int):
    """Yield (name, sweep) per sweep; a sweep returns (cases, failure or None)."""

    def sweep_solve() -> tuple[int, str | None]:
        cases = 0
        for n in range(1, max_n + 1):
            for run in enumerate_runs(triangular(n)):
                inst = Instance(n, run)
                if run.a > n and not check_length_bound(inst):
                    return cases, f"length bound failed at n={n}, run={run}"
                partition, _ = solve(inst)
                report = oracle.verify(n, run, partition)
                if not report.ok:
                    return cases, (
                        f"verify failed at n={n}, run={run}: {report.violations[:3]}"
                    )
                cases += 1
        return cases, None

    def sweep_bijection() -> tuple[int, str | None]:
        limit = min(triangular(max_n), 10**5)
        brute_limit = min(limit, 10**4)
        brute = oracle.count_runs_bruteforce_upto(brute_limit)
        sieve = oracle.odd_divisor_counts_upto(limit)
        for value in range(1, limit + 1):
            runs = enumerate_runs(value)
            expected = sieve[value]
            if len(runs) != expected:
                return value, f"run count != odd divisor count at {value}"
            if any(r.sum() != value for r in runs):
                return value, f"run does not sum to {value}"
            if value <= brute_limit and brute[value] != expected:
                return value, f"window scan disagrees at {value}"
        return limit, None

    def sweep_pairs() -> tuple[int, str | None]:
        cases = 0
        for m in range(1, min(max_n, 500) + 1):
            for low in (1, 7, 10**6):
                pairs = difference_pairs(m, low)
                values = [v for pair in pairs for v in pair]
                ok = (
                    len(set(values)) == 2 * m
                    and min(values) == low
                    and max(values) <= 2 * m + low
                    and all(hi - lo == i for i, (lo, hi) in enumerate(pairs, 1))
                )
                if not ok:
                    return cases, f"difference pairs broken at m={m}, low={low}"
                cases += 1
        return cases, None

    yield "solve-verify", sweep_solve
    yield "run-bijection", sweep_bijection
    yield "difference-pairs", sweep_pairs


def cmd_selftest(args: argparse.Namespace) -> tuple[dict, dict, int]:
    if not 1 <= args.max_n <= SELFTEST_MAX_N:
        raise ValueError(f"max_n must be in 1..{SELFTEST_MAX_N}, got {args.max_n}")
    checks = []
    for name, sweep in _selftest_checks(args.max_n):
        cases, failure = sweep()
        entry: dict = {"name": name, "cases": cases, "ok": failure is None}
        checks.append(entry)
        if failure is not None:
            entry["failure"] = failure
            break
    ok = all(entry["ok"] for entry in checks)
    return {"max_n": args.max_n}, {"ok": ok, "checks": checks}, 0 if ok else 1


def text_selftest(input_echo: dict, result: dict):
    yield f"selftest max_n={input_echo['max_n']}"
    for check in result["checks"]:
        if check["ok"]:
            yield f"  {check['name']}: {check['cases']} cases ok"
        else:
            yield f"  {check['name']}: FAIL after {check['cases']} cases: {check['failure']}"
    yield "all checks passed" if result["ok"] else "SELFTEST FAILED"


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
    p.add_argument("--limit", type=int, default=None,
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
    p.set_defaults(handler=cmd_render, text=text_render)

    p = sub.add_parser("selftest", parents=[common],
                       help="run the property sweeps up to max_n")
    p.add_argument("max_n", type=int, help=f"largest n swept, at most {SELFTEST_MAX_N}")
    p.set_defaults(handler=cmd_selftest, text=text_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (2) or --help (0), already printed
        return exc.code
    started = time.perf_counter()
    try:
        input_echo, result, code = args.handler(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal defect: {exc}", file=sys.stderr)
        return 1
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    if sys.stdout is None:  # started with stdout closed: there is nowhere to write
        return code
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
    except BrokenPipeError:  # the rest, and the flush at exit, go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code

if __name__ == "__main__":
    sys.exit(main())
