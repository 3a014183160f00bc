"""Consecutive-sum representations of integers and constructive staircase partitions.

The sum 1 + ... + n can be rewritten as a + (a+1) + ... + b in exactly as many
ways as its value has odd divisors; for every such rewriting, {1..n} can be
split into disjoint blocks whose sums are exactly a, a+1, ..., b.  This package
enumerates the rewritings, constructs such a block partition deterministically,
verifies and exhaustively counts partitions with an independent oracle, and
renders the corresponding tableaux.
"""

from .construct import Partition, difference_pairs, solve
from .oracle import (
    VerifyReport,
    count_runs_bruteforce,
    enumerate_all,
    verify,
)
from .render import render_rebuilt, render_staircase
from .runs import (
    ConsecutiveRun,
    Instance,
    enumerate_runs,
    odd_divisors,
    triangular,
)

__version__ = "0.1.0"

__all__ = [
    "ConsecutiveRun",
    "Instance",
    "Partition",
    "VerifyReport",
    "count_runs_bruteforce",
    "difference_pairs",
    "enumerate_all",
    "enumerate_runs",
    "odd_divisors",
    "render_rebuilt",
    "render_staircase",
    "solve",
    "triangular",
    "verify",
]
