from __future__ import annotations

import resource
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"
# Address space each CLI child may map; a command that outgrows it fails with
# MemoryError instead of taking the machine's memory.
CLI_ADDRESS_SPACE = 512 * 2**20


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CLI_ADDRESS_SPACE, CLI_ADDRESS_SPACE))


@pytest.fixture
def run_cli():
    """Run the CLI in a subprocess, under ``CLI_ADDRESS_SPACE``, and return the
    CompletedProcess."""

    def _run(*args):
        return subprocess.run(
            [sys.executable, "-m", "staircase_sums", *map(str, args)],
            capture_output=True,
            text=True,
            timeout=120,
            preexec_fn=_limit_address_space,
        )

    return _run


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR
