"""CLI behavior: golden envelopes, schema validity, exit codes, determinism."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from staircase_sums import cli, construct, oracle
from staircase_sums.cli import (
    COUNT_MAX_N,
    LIST_MAX_LIMIT,
    PARTITION_MAX_N,
    RENDER_MAX_WIDTH,
)
from staircase_sums.runs import ConsecutiveRun, Instance, Partition, enumerate_runs, triangular
from test_construct import reference_solve, trace_rows

GOLDEN_COMMANDS = {
    "runs_15.json": ["runs", 15],
    "runs_1.json": ["runs", 1],
    "runs_8.json": ["runs", 8],
    # 48 runs, written in 8 pieces of 6
    "runs_720720.json": ["runs", 720720],
    "partition_14_15_20.json": ["partition", 14, 15, 20],
    "partition_14_15_20_trace.json": ["partition", 14, 15, 20, "--trace"],
    # a stretch of plain layers and a closing layer
    "partition_300_45150_45150_trace.json": ["partition", 300, 45150, 45150, "--trace"],
    # a stretch of width 3, then a peel and a closing layer
    "partition_300_15049_15051_trace.json": ["partition", 300, 15049, 15051, "--trace"],
    "partition_5_1_5.json": ["partition", 5, 1, 5],
    # a peel-only run: its trace is empty
    "partition_5_1_5_trace.json": ["partition", 5, 1, 5, "--trace"],
    "partition_5_7_8.json": ["partition", 5, 7, 8],
    "count_5_7_8.json": ["count", 5, 7, 8],
    "count_2_3_3.json": ["count", 2, 3, 3],
    "count_5_7_8_list.json": ["count", 5, 7, 8, "--list"],
    "count_14_15_20_list5.json": ["count", 14, 15, 20, "--list", "--limit", 5],
    "render_5.json": ["render", 5],
    "render_1.json": ["render", 1],
    "render_5_7_8.json": ["render", 5, 7, 8],
}
# the text reply of each golden command
GOLDEN_TEXT_COMMANDS = {
    name.replace(".json", ".txt"): args for name, args in GOLDEN_COMMANDS.items()
}


def _argv_id(args) -> str:
    """A case's test id, from its command line, so that adding or removing a case
    renames no other."""
    return "_".join(map(str, args))


@pytest.fixture(scope="module")
def envelope_schema():
    text = resources.files("staircase_sums").joinpath("envelope_schema.json").read_text()
    return json.loads(text)


@pytest.mark.parametrize("golden_name", sorted(GOLDEN_COMMANDS))
def test_golden_envelopes(run_cli, golden_dir, envelope_schema, golden_name):
    args = GOLDEN_COMMANDS[golden_name] + ["--json", "--no-timing"]
    result = run_cli(*args)
    assert result.returncode == 0, result.stderr
    expected = (golden_dir / golden_name).read_text()
    assert result.stdout == expected
    jsonschema.validate(json.loads(result.stdout), envelope_schema)


@pytest.mark.parametrize("golden_name", sorted(GOLDEN_TEXT_COMMANDS))
def test_golden_text(run_cli, golden_dir, golden_name):
    result = run_cli(*GOLDEN_TEXT_COMMANDS[golden_name])
    assert result.returncode == 0, result.stderr
    assert result.stdout == (golden_dir / golden_name).read_text()


def test_schema_names_exactly_the_parser_commands(envelope_schema):
    # a branch left for a removed command would pass every envelope test
    [subparsers] = [action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)]
    commands = sorted(subparsers.choices)
    assert sorted(envelope_schema["properties"]["command"]["enum"]) == commands
    assert sorted(branch["if"]["properties"]["command"]["const"]
                  for branch in envelope_schema["allOf"]) == commands


def test_repeated_runs_are_byte_identical(run_cli):
    for args in (["partition", 14, 15, 20, "--trace"], ["count", 5, 7, 8, "--list"]):
        first = run_cli(*args, "--json", "--no-timing")
        second = run_cli(*args, "--json", "--no-timing")
        assert first.stdout == second.stdout


def test_timing_present_by_default(run_cli, envelope_schema):
    result = run_cli("runs", 15, "--json")
    payload = json.loads(result.stdout)
    assert "timing_ms" in payload
    assert payload["timing_ms"] >= 0
    jsonschema.validate(payload, envelope_schema)


def test_text_and_json_agree_on_blocks(run_cli):
    text = run_cli("partition", 14, 15, 20).stdout
    payload = json.loads(run_cli("partition", 14, 15, 20, "--json").stdout)
    for target, elements in payload["result"]["blocks"].items():
        rendered = f"U_{target} = {{{', '.join(map(str, elements))}}}"
        assert rendered in text
    assert "verified: ok" in text


def test_partition_worked_example_text(run_cli):
    result = run_cli("partition", 14, 15, 20)
    assert result.returncode == 0
    assert "U_20 = {1, 2, 4, 13}" in result.stdout


def test_trace_text_shows_layer_state(run_cli):
    out = run_cli("partition", 14, 15, 20, "--trace").stdout
    assert "s=6 c=17" in out
    assert "P=[3..8] Q=[9..14]" in out
    assert "m=2 l=10" in out
    assert "[mirror-low]" in out and "[open]" in out


def test_render_text_matches_library(run_cli):
    from staircase_sums import render_staircase

    assert run_cli("render", 5).stdout == render_staircase(5) + "\n"


def test_render_pair_has_both_tableaux(run_cli):
    payload = json.loads(run_cli("render", 5, 7, 8, "--json", "--no-timing").stdout)
    assert [len(line) // 4 for line in payload["result"]["rebuilt"]] == [7, 8]
    assert len(payload["result"]["staircase"]) == 5


def test_count_over_limit_is_refused(run_cli):
    # the only bound on n is COUNT_MAX_N; --force changes nothing
    for flags in ((), ("--force",)):
        result = run_cli("count", 31, 496, 496, *flags)
        assert result.returncode == 0, result.stderr
        assert "count = 1" in result.stdout
    n = COUNT_MAX_N + 1
    result = run_cli("count", n, n * (n + 1) // 2, n * (n + 1) // 2)
    assert result.returncode == 2
    assert f"count accepts n <= {COUNT_MAX_N}" in result.stderr


@pytest.mark.parametrize("n", [1200, 3000])
def test_deep_forced_count(run_cli, n):
    t = n * (n + 1) // 2
    result = run_cli("count", n, t, t, "--force")
    assert result.returncode == 0, result.stderr
    assert "count = 1" in result.stdout


@pytest.mark.parametrize(
    "value,odd_divisor_count",
    [(9223372036854775807, 96), (4611685975477714963, 4)],
)
def test_runs_of_large_64_bit_values(run_cli, value, odd_divisor_count):
    result = run_cli("runs", value, "--json", "--no-timing")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)["result"]
    assert payload["odd_divisor_count"] == odd_divisor_count
    assert len(payload["runs"]) == odd_divisor_count


@pytest.mark.parametrize(
    "args",
    [
        ["runs", 0],
        ["partition", 5, 7, 9],
        ["partition", 5, 9, 7],
        ["render", 5, 7],
        ["render", 0],
        ["partition", PARTITION_MAX_N + 1, 1, 1],
        # past the census state cap, and past its bound on n
        ["count", 35, 66, 74, "--force"],
        ["count", 250001, 31250375001, 31250375001, "--force"],
        ["count", 5, 7, 8, "--list", "--limit", -3],
        ["count", 5, 7, 8, "--list", "--limit", LIST_MAX_LIMIT + 1],
        # wide censuses past the entry bound, and n past COUNT_MAX_N: each
        # must be refused before it outgrows the child's address-space limit
        ["count", 1000, 1108, 1492, "--force"],
        ["count", 4095, 5462, 6826],
        ["count", 100000000, 1, 100000000, "--force"],
        # rows wider than RENDER_MAX_WIDTH, staircase and rebuilt
        ["render", RENDER_MAX_WIDTH + 1],
        ["render", 14, 105, 105],
    ],
    ids=_argv_id,
)
def test_user_errors_exit_2(run_cli, args):
    result = run_cli(*args)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


def test_a_huge_integer_is_refused_in_one_line(run_cli):
    # 4,000 digits parse under Python's 4,300-digit limit on int(str); the
    # 64-bit check then refuses the value before any sum is printed or written
    huge = "9" * 4000
    for args in (["partition", 14, 15, huge], ["count", 5, 7, huge], ["runs", huge]):
        result = run_cli(*args)
        assert result.returncode == 2, args[0]
        assert result.stderr.count("\n") == 1, result.stderr
        assert "exceeds the 64-bit range" in result.stderr
        assert "Traceback" not in result.stderr


def test_limit_without_list_is_checked_and_lists_nothing(run_cli):
    result = run_cli("count", 5, 7, 8, "--limit", 0)
    assert result.returncode == 2
    assert result.stderr.startswith("error: --limit must be in 1..")
    result = run_cli("count", 5, 7, 8, "--limit", 3, "--json", "--no-timing")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["result"] == {"count": 3}


def test_usage_error_exits_2(run_cli):
    assert run_cli("partition", "fourteen", 15, 20).returncode == 2
    assert run_cli("no-such-command").returncode == 2


def test_main_returns_the_exit_code_of_usage_errors_and_help(capsys):
    assert cli.main(["runs"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: staircase-sums runs [-h] [--json] [--no-timing] N\n")
    assert err.endswith("error: the following arguments are required: N\n")
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: staircase-sums [-h]")


def test_shared_parser_leaks_nothing_between_calls(monkeypatch, capsys, run_cli):
    # help is wrapped to COLUMNS, here and in the children
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["partition", "14", "15", "20", "--trace", "--json", "--no-timing"],
        ["partition", "14", "15", "20", "--json", "--no-timing"],
        ["count", "14", "15", "20", "--list", "--limit", "3"],
        ["count", "14", "15", "20", "--list"],  # the default limit, 20
        ["partition", "fourteen", "15", "20"],  # refused by the parser
        ["partition", "5", "7", "9"],  # refused by the handler
        ["runs", "15", "--json", "--no-timing"],
        ["--help"],
        ["partition", "--help"],
        ["count", "31", "496", "496", "--force"],
        # the removed selftest command: refused by the parser
        ["selftest", "12"],
        ["selftest", "1000", "--json"],
    ]
    for argv in calls:
        code = cli.main(argv)
        out, err = capsys.readouterr()
        child = run_cli(*argv)
        assert (code, out, err) == (child.returncode, child.stdout, child.stderr), argv
        if argv[0] == "selftest":
            assert (code, out) == (2, ""), argv
            assert err.startswith("usage: staircase-sums [-h]"), argv
            assert "invalid choice: 'selftest'" in err, argv
    assert cli.build_parser() is cli.build_parser()


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # nor json.decoder: the CLI takes only the string escaper, from _json
    code = ("import sys, staircase_sums.cli; "
            "print(sorted({'dataclasses', 'inspect', 'json.decoder'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def test_partition_that_fails_verify_exits_1(monkeypatch, capsys):
    solve = cli.solve

    def drops_an_element(inst, want_trace=False):
        partition, traces = solve(inst, want_trace)
        blocks = dict(partition.blocks)
        blocks[15] = blocks[15][1:]
        return Partition(partition.n, partition.run, blocks), traces

    monkeypatch.setattr(cli, "solve", drops_an_element)
    # neither command writes a reply that verify rejects, in either form
    errors = set()
    for command in ("partition", "render"):
        for form in ([], ["--json"]):
            assert cli.main([command, "14", "15", "20", *form]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("internal defect: verify found")
            errors.add(err)
    assert len(errors) == 1


def test_schema_refuses_an_unverified_partition(envelope_schema):
    payload = json.loads(_reply(["partition", "5", "7", "8", "--json", "--no-timing"]))
    jsonschema.validate(payload, envelope_schema)
    payload["result"]["verified"] = False
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(payload, envelope_schema)


def test_an_overstated_census_under_list_exits_1(monkeypatch, capsys):
    # [7..8] over 5 has 3 partitions; a count of 4 cannot be met by the listing
    count_partitions = oracle._count_partitions
    monkeypatch.setattr(oracle, "_count_partitions", lambda n, t: count_partitions(n, t) + 1)
    for args in (["count", "5", "7", "8", "--list"], ["count", "5", "7", "8", "--list", "--json"]):
        assert cli.main(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "internal defect: census counted more partitions than the 3 listed\n"


# Code run before cli.main in a child interpreter, each planting one internal
# defect: a census that overstates its count under --list, and a solver that
# drops an element
PLANTED_DEFECTS = {
    "overstated-listing": (["count", "5", "7", "8", "--list"], """
from staircase_sums import oracle
count_partitions = oracle._count_partitions
oracle._count_partitions = lambda n, t: count_partitions(n, t) + 1
"""),
    "dropped-element": (["partition", "14", "15", "20"], """
from staircase_sums import cli
solve = cli.solve
def drops_an_element(inst, want_trace=False):
    partition, trace = solve(inst, want_trace)
    blocks = dict(partition.blocks)
    blocks[15] = blocks[15][1:]
    return type(partition)(partition.n, partition.run, blocks), trace
cli.solve = drops_an_element
"""),
}


@pytest.mark.parametrize("defect", PLANTED_DEFECTS)
def test_internal_defects_exit_1_under_python_O(defect):
    # -O strips assert statements, so each defect check must raise by itself
    argv, plant = PLANTED_DEFECTS[defect]
    for form in ([], ["--json"]):
        code = f"{plant}\nimport sys\nfrom staircase_sums import cli\nsys.exit(cli.main({argv + form!r}))"
        replies = [subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                                  text=True, timeout=120)
                   for flags in ([], ["-O"])]
        plain, optimized = [(r.returncode, r.stdout, r.stderr) for r in replies]
        assert optimized == plain, form
        status, out, err = optimized
        assert (status, out) == (1, ""), form
        assert err.startswith("internal defect: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


def _interrupted(inst, want_trace=False):
    raise KeyboardInterrupt


def test_interrupt_exits_130_without_traceback(monkeypatch, capsys):
    monkeypatch.setattr(cli, "solve", _interrupted)
    monkeypatch.setattr(sys, "argv", ["staircase-sums", "partition", "14", "15", "20"])
    assert cli.run() == 130
    assert capsys.readouterr() == ("", "")


def test_interrupt_stops_an_in_process_caller(monkeypatch):
    # the benchmark harness calls main once per request and records any exit
    # code as that request's failure; an interrupt must end the whole pass
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", Path(__file__).parent.parent / "perfbench" / "run.py")
    harness = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, harness)  # for its dataclasses
    spec.loader.exec_module(harness)
    monkeypatch.setattr(cli, "solve", _interrupted)
    result = harness.Replay(size=1)
    with pytest.raises(KeyboardInterrupt):
        harness.run_pass([SimpleNamespace(argv=("partition", "14", "15", "20"))], cli.main, result)
    assert result.failed == 0


def _out_of_memory(inst, want_trace=False):
    raise MemoryError


def test_running_out_of_memory_exits_71_without_traceback(monkeypatch, capsys):
    monkeypatch.setattr(cli, "solve", _out_of_memory)
    for form in ([], ["--json"]):
        assert cli.main(["partition", "14", "15", "20", *form]) == 71
        assert capsys.readouterr() == ("", "error: out of memory\n")


class _Stdout:
    """A stdout that keeps every piece written to it.  A write past its first
    ``room`` characters raises MemoryError, as one does once the address space
    is used up; ``main`` then points ``fileno`` at devnull."""

    def __init__(self, room: float = math.inf, fileno: int = -1):
        self.pieces: list[str] = []
        self.room, self._fileno = room, fileno

    def write(self, text: str) -> int:
        if len(text) > self.room:
            raise MemoryError
        self.room -= len(text)
        self.pieces.append(text)
        return len(text)

    def writelines(self, lines) -> None:
        for line in lines:
            self.write(line)

    def flush(self) -> None:
        pass

    def fileno(self) -> int:
        return self._fileno


@pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
def test_running_out_of_memory_while_writing_exits_71(capsys, tmp_path, form):
    # the reply is far longer than the room, so the write fails partway
    with open(tmp_path / "stdout", "w") as file:
        stdout = _Stdout(10_000, file.fileno())
        with contextlib.redirect_stdout(stdout):
            assert cli.main(["partition", "300", "45150", "45150", "--trace", *form]) == 71
    assert 0 < len("".join(stdout.pieces)) <= 10_000
    assert capsys.readouterr() == ("", "error: out of memory\n")


_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t é€\U0001f600') | st.characters())
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.lists(st.integers() | st.booleans()),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.dictionaries(_TEXT, inner),
    max_leaves=20,
)


def _written(value) -> str:
    """The JSON ``cli.to_json`` writes for ``value``, its pieces joined."""
    pieces: list[str] = []
    cli.to_json(value, pieces.append)
    return "".join(pieces)


@settings(max_examples=150)
@given(_JSON_VALUES)
def test_json_writer_matches_stdlib_indent_2(value):
    assert _written(value) == json.dumps(value, indent=2)


def test_json_writer_refuses_what_json_cannot_hold():
    for value in ({1, 2}, [b"bytes"], {"key": object()}, {1: "int key"}):
        with pytest.raises(TypeError):
            _written(value)
    with pytest.raises(ValueError):
        _written([float("nan")])


# Partitions of several blocks, empty or of ints of 1 to 12 digits, some wider
# than the sqrt of their total, so that the writer cuts them; no check runs on them
_PARTITIONS = st.dictionaries(
    st.integers(1, 10**12 - 1),
    st.lists(st.integers(-(10**12) + 1, 10**12 - 1), min_size=0, max_size=8).map(tuple)
    | st.lists(st.integers(1, 10**6), min_size=9, max_size=300).map(tuple),
    min_size=1,
    max_size=6,
).map(lambda blocks: Partition(1, ConsecutiveRun(1, 1), blocks))
_ELEMENT_LINE = re.compile(r"^ +-?[0-9]+,?$", re.MULTILINE)


@settings(max_examples=200)
@given(_PARTITIONS)
@example(Partition(1, ConsecutiveRun(1, 1), {3: (1, 2), 5: tuple(range(1, 101)), 9: (), 11: (4,)}))
def test_partition_writers_keep_their_bytes(partition):
    blocks = sorted(partition.blocks.items())
    pieces: list[str] = []
    cli.to_json(partition, pieces.append)
    assert "".join(pieces) == json.dumps({str(t): list(b) for t, b in blocks}, indent=2)
    # a piece holds under twice the sqrt of the element count, however wide a block is
    size = math.isqrt(sum(len(block) for _, block in blocks)) or 1
    assert max(len(_ELEMENT_LINE.findall(piece)) for piece in pieces) < 2 * size
    assert cli._blocks_text(partition) == [
        f"U_{t} = {{{', '.join(map(str, block))}}}" for t, block in blocks
    ]


# Ints as the writers meet them: deficits of open targets are negative, and
# ints are unbounded; and separators as the writers use them, or drawn: any
# text that is not empty and holds no `%`.
_INTS = (st.integers(-(10**6), 10**6) | st.integers(2**64, 2**80)
         | st.integers(-(2**80), -(2**64)))
_SEPARATORS = st.sampled_from([", ", ",", "\n", ",\n    ", ",\n      "]) | st.text(
    st.characters(blacklist_characters="%", blacklist_categories=("Cs",)), min_size=1)


@settings(max_examples=200)
@given(st.lists(_INTS), _SEPARATORS)
@example([-(2**64) - 1, 2**64, -1, 0, 1], ",\n    ")
def test_ints_match_str_joins(values, sep):
    assert cli._ints(values, sep) == sep.join(map(str, values))
    assert cli._ints(iter(values), sep) == sep.join(map(str, values))


@st.composite
def _record_batches(draw):
    """A template of any text with ``width`` fields, one to 40 records for it,
    and the number of the first record."""
    width = draw(st.integers(0, 6))
    literals = st.text(st.characters(blacklist_categories=("Cs",))).map(
        lambda text: text.replace("%", "%%"))
    template = "%d".join(draw(literals) for _ in range(width + 1))
    rows = draw(st.lists(st.tuples(*[_INTS] * width), min_size=1, max_size=40))
    return template, rows, draw(st.integers(0, 10**6))


@settings(max_examples=200)
@given(_record_batches(), _SEPARATORS)
@example(('{\n  "a": %d,\n  "b": %d\n}', [(-(2**64), 2**64 + 1)] * 17, 3), ",\n")
def test_records_match_str_formatting_per_record(batch, sep):
    template, rows, lo = batch
    asked = []

    def ints(start, stop):
        asked.append((start, stop))
        return [value for row in rows[start - lo:stop - lo] for value in row]

    pieces = list(cli._records(template, sep, lo, lo + len(rows), ints))
    assert sep.join(pieces) == sep.join(template % row for row in rows)
    # the records are asked for in order, each once, about sqrt(count) a piece
    assert [start for start, _ in asked] == [lo, *(stop for _, stop in asked[:-1])]
    assert asked[-1][1] == lo + len(rows)
    assert {stop - start for start, stop in asked[:-1]} <= {math.isqrt(len(rows))}


def test_partition_without_blocks_is_an_empty_object():
    assert _written(Partition(1, ConsecutiveRun(1, 1), {})) == json.dumps({}, indent=2)


# Lists of dicts with one key set and int values, which cli.to_json writes
# through its general path, one piece per key, with at times one item of
# another shape: a bool, its keys in another order, or one key more.
_KEYS = st.lists(st.text(st.sampled_from('%d"\\/\x00\n é\U0001f600')), min_size=1, max_size=4,
                 unique=True)


@st.composite
def _int_dict_lists(draw):
    keys = draw(_KEYS)
    rows = st.lists(st.integers(), min_size=len(keys), max_size=len(keys))
    items = [dict(zip(keys, row)) for row in draw(st.lists(rows, max_size=12))]
    if items and draw(st.booleans()):
        odd = dict(items[draw(st.integers(0, len(items) - 1))])
        change = draw(st.sampled_from(["bool", "order", "key"]))
        if change == "bool":
            odd[keys[0]] = draw(st.booleans())
        elif change == "order":
            odd = dict(reversed(odd.items()))
        else:
            odd["extra"] = 0
        items.insert(draw(st.integers(0, len(items))), odd)
    return items


@settings(max_examples=200)
@given(_int_dict_lists())
@example([])
@example([{"a": 1}])
@example([{"%d": 10**30, 'q"\\%%': -2}] * 5)
@example([{"a": 1, "b": 2}, {"b": 2, "a": 1}])
@example([{"a": 1}, {"a": True}])
def test_lists_of_int_dicts_match_stdlib_indent_2(items):
    assert _written(items) == json.dumps(items, indent=2)
    assert _written({"runs": items}) == json.dumps({"runs": items}, indent=2)


# Reference trace writers, which build a dict per layer from the trace's
# records (see trace_rows), pair each layer's ends and name each pair's kind
# themselves; cli._Trace writes the same bytes straight from the solver's
# columns.
def _kind(t: int, c: int, m: int) -> str:
    if t - c > m:
        return "open"
    return "mirror-low" if t < c else "exact" if t == c else "mirror-high"


def _trace_json(records: list[tuple]) -> list[dict]:
    return [
        {
            "n": n,
            "run": {"a": a, "b": b},
            "s": len(ends) // 2,
            "c": c,
            "p_range": [n - len(ends) + 1, n - len(ends) // 2],
            "q_range": [n - len(ends) // 2 + 1, n],
            "deficits": [c - t for t in range(a, b + 1)],
            "m": m,
            "l": low,
            "assignments": [
                {"target": t, "pair": [p, q], "kind": _kind(t, c, m)}
                for t, p, q in zip(range(a, b + 1), ends[0::2], ends[1::2])
            ],
        }
        for n, a, b, c, m, low, ends in records
    ]


def _trace_text(trace: list[dict]) -> list[str]:
    lines = []
    for idx, tr in enumerate(trace, start=1):
        run, p, q = tr["run"], tr["p_range"], tr["q_range"]
        deficits = ",".join(map(str, tr["deficits"]))
        window = f" l={tr['l']}" if tr["l"] is not None else ""
        lines.append(
            f"layer {idx}: n={tr['n']} run=[{run['a']}..{run['b']}] s={tr['s']} c={tr['c']} "
            f"P=[{p[0]}..{p[1]}] Q=[{q[0]}..{q[1]}] "
            f"deficits=[{deficits}] m={tr['m']}{window}"
        )
        for asg in tr["assignments"]:
            lo, hi = asg["pair"]
            lines.append(f"  target {asg['target']} <- ({lo}, {hi})  [{asg['kind']}]")
    return lines


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2000), st.integers(0, 10**6))
@example(14, 2)  # [15..20]: a windowed layer
@example(5, 0)  # [1..5]: a peel and no layer
@example(300, 5)  # [286..414]: a windowed layer with m = 42 and a closing layer
@example(300, 23)  # [45150..45150]: a stretch of 149 layers, 12 per piece, and a closing layer
@example(300, 22)  # [15049..15051]: a stretch of 49 layers of width 3, 7 per piece
@example(9, 4)  # [22..23]: a stretch of one layer of width 2 and a closing layer
@example(12, 2)  # [25..27]: a stretch of one layer of width 3
@example(11, 2)  # [21..23]: a plain layer of width 3, a peel, then one of width 1
@example(98, 9)  # [261..278]: two layers of width 18, then two of width 2
@example(80, 5)  # [209..223]: groups of 2, 2 and 1 layers
@example(610, 12)  # [18631..18640]: 30 layers of width 10, 5 per piece, each laid out per layer
def test_layer_record_writers_match_the_trace_writers(n, pick):
    runs = enumerate_runs(triangular(n))
    inst = Instance(n, runs[pick % len(runs)])
    trace = construct.solve(inst, want_trace=True)[1]
    records = trace_rows(trace)
    assert records == reference_solve(inst)[1]
    reference = _trace_json(records)
    assert _written(cli._Trace(trace)) == json.dumps(reference, indent=2)
    assert "\n".join(cli._Trace(trace).text()) == "\n".join(_trace_text(reference))


@pytest.mark.parametrize("n", [1, 2, 5, 24, 300])
def test_a_peel_only_run_writes_an_empty_trace(capsys, n):
    # [1..n] is met by one peel, so every trace column is empty
    args = ["partition", str(n), "1", str(n), "--trace"]
    assert cli.main([*args, "--json", "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert '\n    "trace": []\n' in out
    assert json.loads(out)["result"]["trace"] == []
    assert cli.main(args) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"n = {n}, run = [1..{n}]\n") and "layer" not in out


@pytest.mark.parametrize("args,first_line", [
    (("partition", 10000, 50005000, 50005000, "--trace"), b"layer 1: n=10000 "),
    (("partition", 10000, 50005000, 50005000, "--trace", "--json"), b"{"),
    (("runs", 6181604729214089175), b"6181604729214089175 has 46080 "),
    (("runs", 6181604729214089175, "--json"), b"{"),
    (("count", 35, 9, 36, "--list", "--limit", 10000), b"n = 35, run = [9..36]"),
    (("count", 35, 9, 36, "--list", "--limit", 10000, "--json"), b"{"),
], ids=["trace", "trace-json", "runs", "runs-json", "list", "list-json"])
def test_closed_pipe_exits_141_without_traceback(spawn_cli, args, first_line):
    # each reply (0.8 to 12 MB) is well past the pipe's buffer, so a write of
    # the trace, runs or listing writer meets the closed pipe
    child = spawn_cli(*args)
    assert child.stdout.readline().startswith(first_line)
    child.stdout.close()
    err = child.stderr.read()
    assert child.wait(timeout=120) == 141
    assert b"Traceback" not in err
    assert err == b""


def test_closed_stdout_is_not_an_error():
    # started with stdout closed, Python sets sys.stdout to None
    result = subprocess.run(
        [sys.executable, "-m", "staircase_sums", "partition", "14", "15", "20", "--trace"],
        stderr=subprocess.PIPE, text=True, timeout=120, preexec_fn=lambda: os.close(1),
    )
    assert (result.returncode, result.stderr) == (0, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args", [
    ["runs", 15],
    ["partition", 10000, 50005000, 50005000, "--trace", "--json"],
], ids=_argv_id)
def test_a_failed_write_exits_74_without_traceback(args):
    # every write to /dev/full fails with ENOSPC
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "staircase_sums", *map(str, args)],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    assert result.returncode == 74
    assert result.stderr == "error: cannot write the reply: No space left on device\n"


def test_widest_layer_is_answered_and_verified(run_cli):
    # [128269..162643] over n = 10^5 starts with a windowed layer of 34,375
    # targets, the widest layer any partition request reaches; its 142 open
    # targets are then filled by plain layers
    result = run_cli("partition", 100000, 128269, 162643, "--trace", "--json", "--no-timing")
    assert (result.returncode, result.stderr) == (0, "")
    reply = json.loads(result.stdout)["result"]
    assert reply["verified"] is True
    widths = [(layer["s"], layer["m"]) for layer in reply["trace"]]
    assert widths == [(34375, 2982)] + [(142, 0)] * 10


@pytest.mark.parametrize(
    "args",
    [
        ["partition", 100000, 5000050000, 5000050000, "--trace"],
        ["count", 178, 7965, 7966, "--list", "--limit", LIST_MAX_LIMIT],
    ],
    ids=_argv_id,
)
def test_long_replies_are_streamed(run_cli, args):
    # Each reply is far larger than this address space once held whole (30 MB
    # and 26 MB of JSON); written as it is formatted, it fits.
    result = run_cli(*args, "--json", "--no-timing", address_space=96 * 2**20)
    assert result.returncode == 0, result.stderr[-500:]
    assert result.stdout.endswith("\n}\n")


# (argv, largest piece allowed, sha256 of the reply)
_BOUNDED_PIECES = [
    # the worst run's one block of 10^5 ints, 1.5 MB whole
    (["partition", 100000, 5000050000, 5000050000, "--json", "--no-timing"], 2**13,
     "41f5ae0d1846e28aba430ffb627aa0855470250db038639ad8dd84f5935c623b"),
    # the widest layer, 6.1 MB whole, and 34,375 small blocks, 2.4 MB together
    (["partition", 100000, 128269, 162643, "--trace", "--json", "--no-timing"], 2**17,
     "3101c8d93bbeaf93fd45fbec67c4c32052066caa86f0031a8176fa4781f09e5c"),
    # as text the layer was 1.7 MB; its state line, which holds all 34,375
    # deficits, is now the largest piece
    (["partition", 100000, 128269, 162643, "--trace"], 2**18,
     "5af859b389f9b3324fdb9fd273520746d530539111d0b99d54dc2bbf05b34c3f"),
]


@pytest.mark.parametrize("args,bound,digest", _BOUNDED_PIECES,
                         ids=[_argv_id(args) for args, _, _ in _BOUNDED_PIECES])
def test_wide_blocks_and_layers_are_written_in_bounded_pieces(args, bound, digest):
    stdout = _Stdout()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(list(map(str, args))) == 0
    assert max(map(len, stdout.pieces)) <= bound
    assert hashlib.sha256("".join(stdout.pieces).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "args",
    [
        ["partition", 10000, 50005000, 50005000, "--trace"],
        ["partition", 14, 15, 20, "--trace"],
        ["partition", 100000, 5000050000, 5000050000],
        ["partition", 300, 1273, 1307],
        ["runs", 720720],
        ["count", 14, 15, 20, "--list", "--limit", 30],
        ["render", 5, 7, 8],
    ],
    ids=_argv_id,
)
def test_json_replies_are_stdlib_indent_2(capsys, args):
    # timing_ms stays in, so a float is written too
    assert cli.main([*map(str, args), "--json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def _reply(argv: list[str]) -> str:
    """The stdout of ``cli.main(argv)``, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


# Reference `runs` replies, built from a dict and an f-string line per
# ConsecutiveRun; cli._Runs writes the same bytes from the runs' int ends.
@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10**12))
@example(1)
@example(2**40)
@example(720720)
@example(6181604729214089175)  # 46,080 runs
def test_runs_replies_match_per_run_references(value):
    runs = enumerate_runs(value)
    envelope = {
        "schema_version": cli.SCHEMA_VERSION, "command": "runs", "input": {"n": value},
        "result": {"odd_divisor_count": len(runs),
                   "runs": [{"a": r.a, "b": r.b, "length": r.length()} for r in runs]},
    }
    reply = _reply(["runs", str(value), "--json", "--no-timing"])
    assert reply == json.dumps(envelope, indent=2) + "\n"
    lines = [f"{value} has {len(runs)} consecutive-run representations "
             f"(odd divisors: {len(runs)})", *(f"  {value} = [{r.a}..{r.b}]" for r in runs)]
    assert _reply(["runs", str(value)]) == "".join(line + "\n" for line in lines)


def test_runs_replies_build_no_run_objects(monkeypatch):
    built = []
    init = ConsecutiveRun.__init__

    def counted(self, a, b):
        built.append((a, b))
        init(self, a, b)

    monkeypatch.setattr(ConsecutiveRun, "__init__", counted)
    assert _reply(["runs", "720720"]).startswith("720720 has 48 consecutive-run")
    assert '"odd_divisor_count": 48,' in _reply(["runs", "720720", "--json"])
    assert built == []
    ConsecutiveRun(15, 20)  # the count sees the runs that are built
    assert built == [(15, 20)]
