"""Staircase and rebuilt tableau rendering."""

from __future__ import annotations

import pytest

from staircase_sums.construct import solve
from staircase_sums.render import render_rebuilt, render_staircase
from staircase_sums.runs import ConsecutiveRun, Instance, Partition, enumerate_runs, triangular

FIGURE_PARTITION = Partition(5, ConsecutiveRun(7, 8), {8: (3, 5), 7: (1, 2, 4)})


def test_staircase_single_cell():
    assert render_staircase(1) == "[ 1]"


def test_staircase_three_rows():
    assert render_staircase(3) == "[ 1]\n[ 2][ 2]\n[ 3][ 3][ 3]"


def test_staircase_five_rows():
    lines = render_staircase(5).split("\n")
    assert len(lines) == 5
    assert lines[0] == "[ 1]"
    assert lines[4] == "[ 5][ 5][ 5][ 5][ 5]"


def test_staircase_width_limits():
    with pytest.raises(ValueError):
        render_staircase(0)
    # the width limit is the CLI's; the library draws any n >= 1
    assert render_staircase(101).count("\n") == 100
    # from n = 100 on, a label takes three characters, and so does every cell
    lines = render_staircase(100).split("\n")
    assert lines[0] == "[  1]" and lines[9] == "[ 10]" * 10
    assert lines[99] == "[100]" * 100


def test_rebuilt_figure_partition():
    # rows: shortest on top; segments within a row in descending element order
    assert render_rebuilt(FIGURE_PARTITION) == (
        "[ 4][ 4][ 4][ 4][ 2][ 2][ 1]\n[ 5][ 5][ 5][ 5][ 5][ 3][ 3][ 3]"
    )
    # a block with no elements draws as an empty line
    run = ConsecutiveRun(1, 3)
    assert render_rebuilt(Partition(3, run, {1: (), 2: (2,), 3: (1, 3)})) == (
        "\n[ 2][ 2]\n[ 3][ 3][ 3][ 1]"
    )
    assert render_rebuilt(Partition(1, ConsecutiveRun(1, 1), {1: ()})) == ""
    with pytest.raises(ValueError):
        render_rebuilt(Partition(3, run, {}))


def test_rebuilt_identity_matches_staircase():
    identity = Partition(3, ConsecutiveRun(1, 3), {t: (t,) for t in range(1, 4)})
    assert render_rebuilt(identity) == render_staircase(3)


def test_rebuilt_solver_output():
    partition, _ = solve(Instance(5, ConsecutiveRun(7, 8)))
    assert render_rebuilt(partition) == (
        "[ 4][ 4][ 4][ 4][ 3][ 3][ 3]\n[ 5][ 5][ 5][ 5][ 5][ 2][ 2][ 1]"
    )


def test_rebuilt_width_limit():
    # the library draws any width; the CLI's limit is tested in test_cli.py
    partition, _ = solve(Instance(15, ConsecutiveRun(120, 120)))
    assert render_rebuilt(partition).count("[") == 120


def test_layout_row_metadata():
    assert [row.count("[") for row in render_staircase(4).split("\n")] == [1, 2, 3, 4]
    assert [row.count("[") for row in render_rebuilt(FIGURE_PARTITION).split("\n")] == [7, 8]


def test_conservation_sweep(rebuilt_fault):
    # single-run representations reach rows of T(40) = 820 cells; the
    # staircase is the partition of 1..n into the targets 1..n
    for n in range(1, 41):
        assert rebuilt_fault(render_staircase(n), n, 1, n) is None
        for run in enumerate_runs(triangular(n)):
            partition, _ = solve(Instance(n, run))
            assert rebuilt_fault(render_rebuilt(partition), n, run.a, run.b) is None


@pytest.mark.parametrize("text, b, fault", [
    ("[ 4][ 4][ 4][ 4][ 2][ 2][ 1]\n[ 5][ 5][ 5][ 5][ 5][ 3][ 3]", 8, "not 8 cells"),
    ("[ 4][ 4][ 4][ 4][ 2][ 1][ 2]\n[ 5][ 5][ 5][ 5][ 5][ 3][ 3][ 3]", 8, "element 2"),
    ("[ 4][ 4][ 2][ 2][ 4][ 4][ 1]\n[ 5][ 5][ 5][ 5][ 5][ 3][ 3][ 3]", 8, "element 4"),
    ("[ 4][ 4][ 4][ 4][ 1][ 2][ 2]\n[ 5][ 5][ 5][ 5][ 5][ 3][ 3][ 3]", 8, "element 2"),
    ("[ 4][ 4][ 4][ 4][ 2][ 2][ 1]\n[ 5][ 5][ 5][ 5][ 5][ 2][ 2][ 1]", 8, "element 2"),
    ("[ 6][ 6][ 6][ 6][ 6][ 6][ 1]\n[ 5][ 5][ 5][ 5][ 5][ 3][ 3][ 3]", 8, "element 6"),
    ("[4][4][4][4][2][2][1]\n[ 5][ 5][ 5][ 5][ 5][ 3][ 3][ 3]", 8, "malformed"),
    ("[ 4][ 4][ 4][ 4][ 2][ 2][ 1]", 8, "1 rows, expected 2"),
    # rows a..b holding fewer cells than T(n) leave an element out
    ("[ 4][ 4][ 4][ 4][ 2][ 2][ 1]", 7, "every element"),
])
def test_conservation_check_rejects_broken_rows(rebuilt_fault, text, b, fault):
    assert fault in rebuilt_fault(text, 5, 7, b)


def test_rendering_is_pure():
    partition, _ = solve(Instance(14, ConsecutiveRun(15, 20)))
    assert render_rebuilt(partition) == render_rebuilt(partition)
    assert render_staircase(14) == render_staircase(14)
