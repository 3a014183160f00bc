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
