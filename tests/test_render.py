"""Staircase and rebuilt tableau rendering."""

from __future__ import annotations

from collections import Counter

import pytest

from staircase_sums.construct import Partition, solve
from staircase_sums.render import (
    rebuilt_layout,
    render_rebuilt,
    render_staircase,
    staircase_layout,
)
from staircase_sums.runs import ConsecutiveRun, Instance, enumerate_runs, triangular

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


def test_rebuilt_figure_partition():
    # rows: shortest on top; segments within a row in descending element order
    assert render_rebuilt(FIGURE_PARTITION) == (
        "[ 4][ 4][ 4][ 4][ 2][ 2][ 1]\n[ 5][ 5][ 5][ 5][ 5][ 3][ 3][ 3]"
    )


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
    assert len(rebuilt_layout(partition).rows[0][1]) == 120


def test_layout_row_metadata():
    layout = staircase_layout(4)
    assert [length for length, _ in layout.rows] == [1, 2, 3, 4]
    rebuilt = rebuilt_layout(FIGURE_PARTITION)
    assert [length for length, _ in rebuilt.rows] == [7, 8]
    assert [len(labels) for _, labels in rebuilt.rows] == [7, 8]


def test_conservation_sweep():
    # single-run representations reach rows of T(40) = 820 cells
    for n in range(1, 41):
        staircase = staircase_layout(n)
        stair_labels = [lab for _, labels in staircase.rows for lab in labels]
        assert len(stair_labels) == triangular(n)
        for run in enumerate_runs(triangular(n)):
            partition, _ = solve(Instance(n, run))
            rebuilt = rebuilt_layout(partition)
            labels = [lab for _, labels in rebuilt.rows for lab in labels]
            assert len(labels) == triangular(n)
            assert Counter(labels) == Counter(stair_labels)
            assert Counter(labels) == {e: e for e in range(1, n + 1)}


def test_rendering_is_pure():
    partition, _ = solve(Instance(14, ConsecutiveRun(15, 20)))
    assert render_rebuilt(partition) == render_rebuilt(partition)
    assert render_staircase(14) == render_staircase(14)
