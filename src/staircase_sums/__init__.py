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
    count_runs_bruteforce_upto,
    enumerate_all,
    verify,
)
from .render import (
    TableauLayout,
    rebuilt_layout,
    render_rebuilt,
    render_staircase,
    staircase_layout,
)
from .runs import (
    ConsecutiveRun,
    Instance,
    check_length_bound,
    enumerate_runs,
    is_triangular,
    odd_divisors,
    triangular,
)

__version__ = "0.1.0"

__all__ = [
    "ConsecutiveRun",
    "Instance",
    "Partition",
    "TableauLayout",
    "VerifyReport",
    "check_length_bound",
    "count_runs_bruteforce",
    "count_runs_bruteforce_upto",
    "difference_pairs",
    "enumerate_all",
    "enumerate_runs",
    "is_triangular",
    "odd_divisors",
    "rebuilt_layout",
    "render_rebuilt",
    "render_staircase",
    "solve",
    "staircase_layout",
    "triangular",
    "verify",
]
