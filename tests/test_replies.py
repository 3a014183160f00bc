"""Same outputs: the sha256 of each group of pinned replies equals its digest in
``golden/reply_digests.json``.

Each request is sent through ``cli.main`` in-process, and its group's hash takes
one JSON line per request: argv, exit code, the sha256 of stdout, and stderr.
A change that alters these bytes on purpose puts the new digest, which the
failure names, into the file, and says why in CHANGES.md, as for a golden.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

from staircase_sums import cli
from staircase_sums.runs import enumerate_runs, triangular

DIGESTS = "reply_digests.json"

# every run of T(n), n <= 15, as a count, bare and listing its first 30
# partitions, as text and as JSON; and the two 10,000-partition listings
CENSUS = [["count", str(n), str(run.a), str(run.b)]
          for n in range(1, 16) for run in enumerate_runs(triangular(n))]
GROUPS = {
    "count n<=15": CENSUS,
    "count n<=15 --list --limit 30": [argv + ["--list", "--limit", "30"] for argv in CENSUS],
    "count 35 9 36 --list --limit 10000": [["count", "35", "9", "36", "--list", "--limit", "10000"]],
    "count 178 7965 7966 --list --limit 10000":
        [["count", "178", "7965", "7966", "--list", "--limit", "10000"]],
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


def _group_digest(argvs: list[list[str]]) -> str:
    sha = hashlib.sha256()
    for argv in argvs:
        out, err = _Sha256Out(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        line = json.dumps([argv, code, out.sha.hexdigest(), err.getvalue()])
        sha.update(line.encode() + b"\n")
    return sha.hexdigest()


def test_replies_match_their_pinned_digests(golden_dir):
    assert len(CENSUS) == 54
    pinned = json.loads((golden_dir / DIGESTS).read_text())
    now = {name: _group_digest(argvs) for name, argvs in GROUPS.items()}
    differ = [f"{name}: pinned {pinned.get(name)}, now {now.get(name)}"
              for name in sorted(pinned.keys() | now.keys()) if pinned.get(name) != now.get(name)]
    assert not differ, "replies differ from their pinned digests:\n" + "\n".join(differ)
