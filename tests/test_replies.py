"""Same outputs: the sha256 of each group of pinned replies equals its digest in
``golden/reply_digests.json``.

Each request is sent through ``cli.main`` in-process, and its group's hash takes
one JSON line per request: argv, exit code, the sha256 of stdout, and stderr.
A change that alters these bytes on purpose puts the new digest, which the
failure names, into the file, and says why in CHANGES.md, as for a golden.
``tools/replies.py`` prints the digest of each request's line, and names the
first request whose line differs between two checkouts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

from staircase_sums import cli
from staircase_sums.runs import enumerate_runs, triangular

DIGESTS = "reply_digests.json"
CHECKOUT = Path(__file__).resolve().parent.parent


def _runs_of_triangles(command: str, top: int) -> list[list[str]]:
    """``command n a b`` for every run [a..b] of T(n), n <= ``top``."""
    return [[command, str(n), str(run.a), str(run.b)]
            for n in range(1, top + 1) for run in enumerate_runs(triangular(n))]


# every run of T(n), n <= 15, as a count, bare and listing its first 30
# partitions; both 10,000-partition listings; every run of T(n), n <= 300, as a
# partition, bare and traced; both drawings for n <= 13; runs of 1 to 1,499; the
# longest and the widest trace at n = 10^5; each as text and as JSON
CENSUS = _runs_of_triangles("count", 15)
PARTITIONS = _runs_of_triangles("partition", 300)
GROUPS = {
    "count n<=15": CENSUS,
    "count n<=15 --list --limit 30": [argv + ["--list", "--limit", "30"] for argv in CENSUS],
    "count 35 9 36 --list --limit 10000": [["count", "35", "9", "36", "--list", "--limit", "10000"]],
    "count 178 7965 7966 --list --limit 10000":
        [["count", "178", "7965", "7966", "--list", "--limit", "10000"]],
    "partition n<=300": PARTITIONS,
    "partition n<=300 --trace": [argv + ["--trace"] for argv in PARTITIONS],
    "render n<=13": [["render", str(n)] for n in range(1, 14)] + _runs_of_triangles("render", 13),
    "runs 1..1499": [["runs", str(value)] for value in range(1, 1500)],
    "partition 100000 5000050000 5000050000 --trace":
        [["partition", "100000", "5000050000", "5000050000", "--trace"]],
    "partition 100000 128269 162643 --trace": [["partition", "100000", "128269", "162643", "--trace"]],
}
GROUPS.update({f"{name} --json": [argv + ["--json", "--no-timing"] for argv in argvs]
               for name, argvs in list(GROUPS.items())})


class _Sha256Out:
    """A stdout that keeps only the sha256 of what is written to it, so that a
    26 MB listing is hashed as it is written, not held."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha.update(text.encode())
        return len(text)

    def writelines(self, lines) -> None:
        for line in lines:
            self.write(line)

    def flush(self) -> None:
        pass


def request_line(argv: list[str]) -> bytes:
    """The line a group's hash takes for ``argv``: argv, exit code, the sha256
    of stdout and stderr, as JSON, with its newline."""
    out, err = _Sha256Out(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return json.dumps([argv, code, out.sha.hexdigest(), err.getvalue()]).encode() + b"\n"


def _group_digest(argvs: list[list[str]]) -> str:
    sha = hashlib.sha256()
    for argv in argvs:
        sha.update(request_line(argv))
    return sha.hexdigest()


def test_replies_match_their_pinned_digests(golden_dir):
    assert (len(CENSUS), len(PARTITIONS), len(GROUPS["render n<=13"])) == (54, 3074, 55)
    pinned = json.loads((golden_dir / DIGESTS).read_text())
    now = {name: _group_digest(argvs) for name, argvs in GROUPS.items()}
    differ = [f"{name}: pinned {pinned.get(name)}, now {now.get(name)}"
              for name in sorted(pinned.keys() | now.keys()) if pinned.get(name) != now.get(name)]
    assert not differ, "replies differ from their pinned digests:\n" + "\n".join(differ)


def test_the_tool_names_the_first_request_that_differs(tmp_path):
    """``tools/replies.py`` finds no difference between a checkout and itself,
    and names the first reply that a one-byte change to the program alters."""
    tool = [sys.executable, str(CHECKOUT / "tools" / "replies.py")]
    same = subprocess.run([*tool, "--group", "render n<=13", CHECKOUT, CHECKOUT],
                          capture_output=True, text=True, timeout=60)
    assert (same.returncode, same.stdout) == (0, "55 requests, the same replies\n")
    mutant = tmp_path / "src" / "staircase_sums"
    shutil.copytree(CHECKOUT / "src" / "staircase_sums", mutant,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(mutant / "cli.py", "a") as cli_py:  # every JSON reply, not a text one
        cli_py.write('SCHEMA_VERSION = "2"\n')
    differ = subprocess.run([*tool, "--group", "runs 1..1499 --json", CHECKOUT, tmp_path],
                            capture_output=True, text=True, timeout=60)
    assert (differ.returncode, differ.stdout) == (
        1, "first difference: request 1, in group 'runs 1..1499 --json': runs 1 --json --no-timing\n")
