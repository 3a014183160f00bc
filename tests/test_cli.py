"""CLI behavior: golden envelopes, schema validity, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib import resources

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
    SELFTEST_MAX_N,
)
from staircase_sums.construct import Partition
from staircase_sums.runs import ConsecutiveRun, Instance, enumerate_runs, triangular

GOLDEN_COMMANDS = {
    "runs_15.json": ["runs", 15],
    "runs_1.json": ["runs", 1],
    "runs_8.json": ["runs", 8],
    "partition_14_15_20.json": ["partition", 14, 15, 20],
    "partition_14_15_20_trace.json": ["partition", 14, 15, 20, "--trace"],
    # a stretch of plain layers and a closing layer
    "partition_300_45150_45150_trace.json": ["partition", 300, 45150, 45150, "--trace"],
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
    "selftest_12.json": ["selftest", 12],
}
# the text reply of each golden command, plus a larger selftest
GOLDEN_TEXT_COMMANDS = {
    **{name.replace(".json", ".txt"): args for name, args in GOLDEN_COMMANDS.items()},
    "selftest_30.txt": ["selftest", 30],
}


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
        ["selftest", 0],
        ["partition", PARTITION_MAX_N + 1, 1, 1],
        ["selftest", SELFTEST_MAX_N + 1],
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
)
def test_user_errors_exit_2(run_cli, args):
    result = run_cli(*args)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


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
    ]
    for argv in calls:
        code = cli.main(argv)
        out, err = capsys.readouterr()
        child = run_cli(*argv)
        assert (code, out, err) == (child.returncode, child.stdout, child.stderr), argv
    assert cli.build_parser() is cli.build_parser()


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # nor json.decoder: the CLI takes only the string escaper, from _json
    code = ("import sys, staircase_sums.cli; "
            "print(sorted({'dataclasses', 'inspect', 'json.decoder'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def test_selftest_passes(run_cli):
    result = run_cli("selftest", 25)
    assert result.returncode == 0
    assert "all checks passed" in result.stdout


def test_partition_that_fails_verify_exits_1(monkeypatch, capsys, envelope_schema):
    solve = cli.solve

    def drops_an_element(inst, want_trace=False):
        partition, traces = solve(inst, want_trace)
        blocks = dict(partition.blocks)
        blocks[15] = blocks[15][1:]
        return Partition(partition.n, partition.run, blocks), traces

    monkeypatch.setattr(cli, "solve", drops_an_element)
    args = ["partition", "14", "15", "20"]
    assert cli.main(args) == 1
    out, err = capsys.readouterr()
    assert out.endswith("verified: FAILED\n")
    assert err.startswith("internal defect: verify found")
    assert cli.main([*args, "--json"]) == 1
    out, err = capsys.readouterr()
    payload = json.loads(out)
    jsonschema.validate(payload, envelope_schema)
    assert payload["result"]["verified"] is False
    assert err.startswith("internal defect: verify found")


def test_selftest_that_fails_a_sweep_exits_1(monkeypatch, capsys, envelope_schema):
    verify = oracle.verify

    def fails_at_n_3(n, run, partition):
        report = verify(n, run, partition)
        return oracle.VerifyReport(False, (("planted", n),)) if n == 3 else report

    monkeypatch.setattr(cli.oracle, "verify", fails_at_n_3)
    assert cli.main(["selftest", "5"]) == 1
    out = capsys.readouterr().out
    assert "  solve-verify: FAIL after 3 cases: verify failed at n=3" in out
    assert out.endswith("SELFTEST FAILED\n")
    assert cli.main(["selftest", "5", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, envelope_schema)
    [check] = payload["result"]["checks"]
    assert check["ok"] is False and check["failure"].startswith("verify failed at n=3")
    assert payload["result"]["ok"] is False


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


# Partitions of several blocks, empty or of ints of 1 to 12 digits; no check runs on them
_PARTITIONS = st.dictionaries(
    st.integers(1, 10**12 - 1),
    st.lists(st.integers(-(10**12) + 1, 10**12 - 1), min_size=0, max_size=8).map(tuple),
    min_size=1,
    max_size=6,
).map(lambda blocks: Partition(1, ConsecutiveRun(1, 1), blocks))


@settings(max_examples=200)
@given(_PARTITIONS)
def test_partition_writers_keep_their_bytes(partition):
    blocks = sorted(partition.blocks.items())
    assert _written(partition) == json.dumps({str(t): list(b) for t, b in blocks}, indent=2)
    assert cli._blocks_text(partition) == [
        f"U_{t} = {{{', '.join(map(str, block))}}}" for t, block in blocks
    ]


# Reference trace writers, which build a dict per layer from the solver's
# records and name each pair's kind themselves; cli._Trace writes the same
# bytes straight from the records.
def _kind(t: int, c: int, m: int) -> str:
    if t - c > m:
        return "open"
    return "mirror-low" if t < c else "exact" if t == c else "mirror-high"


def _trace_json(records: list[tuple]) -> list[dict]:
    return [
        {
            "n": n,
            "run": {"a": a, "b": b},
            "s": len(pairs),
            "c": c,
            "p_range": [n - 2 * len(pairs) + 1, n - len(pairs)],
            "q_range": [n - len(pairs) + 1, n],
            "deficits": [c - t for t in range(a, b + 1)],
            "m": m,
            "l": low,
            "assignments": [
                {"target": t, "pair": list(pair), "kind": _kind(t, c, m)}
                for t, pair in zip(range(a, b + 1), pairs)
            ],
        }
        for n, a, b, c, m, low, pairs in records
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
@example(300, 5)  # [45150..45150]: a stretch and a closing layer
def test_layer_record_writers_match_the_trace_writers(n, pick):
    runs = enumerate_runs(triangular(n))
    inst = Instance(n, runs[pick % len(runs)])
    records = construct.solve(inst, want_trace=True)[1]
    reference = _trace_json(records)
    assert _written(cli._Trace(records)) == json.dumps(reference, indent=2)
    assert "\n".join(cli._Trace(records).text()) == "\n".join(_trace_text(reference))


def test_closed_pipe_exits_141_without_traceback(spawn_cli):
    # about 800 kB of text, well past the pipe's buffer, so a write meets the
    # closed pipe
    child = spawn_cli("partition", 10000, 50005000, 50005000, "--trace")
    assert child.stdout.readline().startswith(b"layer 1: n=10000 ")
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


@pytest.mark.parametrize(
    "args",
    [
        ["partition", 100000, 5000050000, 5000050000, "--trace"],
        ["count", 178, 7965, 7966, "--list", "--limit", LIST_MAX_LIMIT],
    ],
)
def test_long_replies_are_streamed(run_cli, args):
    # Each reply is far larger than this address space once held whole (30 MB
    # and 26 MB of JSON); written as it is formatted, it fits.
    result = run_cli(*args, "--json", "--no-timing", address_space=96 * 2**20)
    assert result.returncode == 0, result.stderr[-500:]
    assert result.stdout.endswith("\n}\n")


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
        ["selftest", 12],
    ],
)
def test_json_replies_are_stdlib_indent_2(capsys, args):
    # timing_ms stays in, so a float is written too
    assert cli.main([*map(str, args), "--json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
