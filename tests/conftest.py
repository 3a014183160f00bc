from __future__ import annotations

import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"
# Address space each CLI child may map; a command that outgrows it fails with
# MemoryError instead of taking the machine's memory.
CLI_ADDRESS_SPACE = 512 * 2**20
CELL = re.compile(r"\[ *(\d+)\]")


def _limit_address_space(limit: int = CLI_ADDRESS_SPACE):
    """A ``preexec_fn`` that caps the child's address space at ``limit`` bytes."""
    return lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.fixture
def run_cli():
    """Run the CLI in a subprocess, under ``CLI_ADDRESS_SPACE`` unless
    ``address_space`` says otherwise, and return the CompletedProcess."""

    def _run(*args, address_space: int = CLI_ADDRESS_SPACE):
        return subprocess.run(
            [sys.executable, "-m", "staircase_sums", *map(str, args)],
            capture_output=True,
            text=True,
            timeout=120,
            preexec_fn=_limit_address_space(address_space),
        )

    return _run


@pytest.fixture
def spawn_cli():
    """Start the CLI in a subprocess under ``CLI_ADDRESS_SPACE``, with stdout
    and stderr piped, and return the Popen."""

    def _spawn(*args):
        return subprocess.Popen(
            [sys.executable, "-m", "staircase_sums", *map(str, args)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            preexec_fn=_limit_address_space(),
        )

    return _spawn


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture
def rebuilt_fault():
    """A check of rendered rows, cell by cell: what is wrong with ``text`` as
    the rows of a partition of 1..n into the targets a..b, or None."""

    def _fault(text: str, n: int, a: int, b: int) -> str | None:
        # row t holds t cells, and each element e of 1..n one contiguous
        # segment of e cells labelled e, in exactly one row; segments descend
        width = max(2, len(str(n)))
        rows = text.split("\n")
        if len(rows) != b - a + 1:
            return f"{len(rows)} rows, expected {b - a + 1}"
        seen: set[int] = set()
        for t, row in zip(range(a, b + 1), rows):
            labels = [int(x) for x in CELL.findall(row)]
            if "".join(f"[{e:>{width}}]" for e in labels) != row or len(labels) != t:
                return f"row {t} is malformed or not {t} cells long"
            i, previous = 0, n + 1
            while i < t:
                e = labels[i]
                if labels[i:i + e] != [e] * e or not 1 <= e < previous or e in seen:
                    return f"row {t} splits, repeats or misorders element {e}"
                seen.add(e)
                previous = e
                i += e
        if len(seen) != n:
            return "the rows do not use every element of 1..n"
        return None

    return _fault
