"""Plain-text rendering of staircase and rebuilt tableaux.

A staircase tableau for n has rows of lengths 1..n, each cell labeled with its
row length.  A rebuilt tableau for a partition has one row per target, each
element e of the target's block contributing e consecutive cells labeled e, so
the two renderings of the same n use the same multiset of cells.
"""

from __future__ import annotations

from .construct import Partition
from .runs import _Value


class TableauLayout(_Value):
    """Rows top-to-bottom, each as (row length, cell labels left-to-right)."""

    __slots__ = ("rows",)
    rows: tuple[tuple[int, tuple[int, ...]], ...]


def staircase_layout(n: int) -> TableauLayout:
    """Rows of lengths 1..n, shortest on top."""
    if n < 1:
        raise ValueError(f"staircase rows must satisfy n >= 1, got {n}")
    return TableauLayout(rows=tuple((k, (k,) * k) for k in range(1, n + 1)))


def rebuilt_layout(partition: Partition) -> TableauLayout:
    """One row per target, shortest on top, segments in descending element order."""
    targets = sorted(partition.blocks)
    if not targets:
        raise ValueError("partition has no blocks to render")
    rows = []
    for t in targets:
        labels: list[int] = []
        for e in sorted(partition.blocks[t], reverse=True):
            labels.extend([e] * e)
        rows.append((t, tuple(labels)))
    return TableauLayout(rows=tuple(rows))


def render_layout(layout: TableauLayout) -> str:
    """Fixed-width bracketed cells, one text line per row."""
    width = 2
    for _, labels in layout.rows:
        for label in labels:
            width = max(width, len(str(label)))
    return "\n".join(
        "".join(f"[{label:>{width}}]" for label in labels) for _, labels in layout.rows
    )


def render_staircase(n: int) -> str:
    return render_layout(staircase_layout(n))


def render_rebuilt(partition: Partition) -> str:
    return render_layout(rebuilt_layout(partition))
