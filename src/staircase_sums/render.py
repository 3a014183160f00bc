"""Plain-text rendering of staircase and rebuilt tableaux.

A staircase tableau for n has rows of lengths 1..n, each cell labeled with its
row length.  A rebuilt tableau for a partition has one row per target, each
element e of the target's block contributing e consecutive cells labeled e, so
the two renderings of the same n use the same multiset of cells.
"""

from __future__ import annotations

from .runs import Partition


def _draw(rows: list[list[int]]) -> str:
    """One text line per row, each element e as e fixed-width bracketed cells labelled e."""
    width = max(2, len(str(max((e for row in rows for e in row), default=0))))
    return "\n".join("".join(f"[{e:>{width}}]" * e for e in row) for row in rows)


def render_staircase(n: int) -> str:
    """Rows of lengths 1..n, shortest on top."""
    if n < 1:
        raise ValueError(f"staircase rows must satisfy n >= 1, got {n}")
    return _draw([[k] for k in range(1, n + 1)])


def render_rebuilt(partition: Partition) -> str:
    """One row per target, shortest on top, segments in descending element order."""
    if not partition.blocks:
        raise ValueError("partition has no blocks to render")
    return _draw([sorted(partition.blocks[t], reverse=True) for t in sorted(partition.blocks)])
