"""Checks on the repository around the package: the benchmark harness's own
reply checks still pass on the package, and every Python file keeps to the
Python 3.10 floor of ``pyproject.toml``."""

from __future__ import annotations

import ast
import importlib.util
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from staircase_sums.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_harness_checks_pass_on_one_request_of_each_workload(monkeypatch):
    # the harness reads the package through names no command needs
    # (Partition(n, run, dict), oracle.count_runs_bruteforce, VerifyReport.ok,
    # count --force); sending its requests through main keeps them working.
    # workloads.py is read from the checkout this file is in, and its
    # dataclass needs it in sys.modules while it runs
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    picked = []
    for name, build in workloads.WORKLOADS.items():
        requests = build(1)
        if name == "census":
            picked.append(next(r for r in requests if "--force" in r.argv))
        elif name == "runs":  # small enough for the window-scan cross-check
            request = min((r for r in requests if int(r.argv[1]).bit_count() > 1),
                          key=lambda r: int(r.argv[1]))
            assert int(request.argv[1]) <= workloads.WINDOW_SCAN_MAX
            picked.append(request)
        else:
            picked.append(min(requests, key=lambda r: int(r.argv[1])))
    for request in picked:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(list(request.argv))
        assert (code, request.check(out.getvalue())) == (0, None), request.argv


def test_python_files_parse_as_python_3_10():
    # syntax only: a call to a library function added after 3.10 still parses
    paths = [path for part in ("src", "tests", "perfbench", "tools") for path in (ROOT / part).rglob("*.py")]
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
