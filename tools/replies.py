"""Per-request digests of the pinned replies, and the first request whose reply
differs between two checkouts.

    python3 tools/replies.py CHECKOUT                 # one line per request
    python3 tools/replies.py CHECKOUT OTHER           # the first request that differs
    python3 tools/replies.py --group 'runs 1..1499' CHECKOUT OTHER

The requests are the groups of ``tests/test_replies.py`` in the checkout that
holds this script; each CHECKOUT only supplies the program, from its ``src/``.
A request's digest is the sha256 of the line the test hashes into its group's
digest: argv, exit code, the sha256 of stdout, and stderr.  Each checkout runs in
a child interpreter started with ``-S``, so no installed copy of the package is
imported.  With two checkouts the exit code is 1 if a reply differs, else 0.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"

# run in the child: prints "group<TAB>digest<TAB>argv" per request, in order
CHILD = r"""
import hashlib, json, sys
src, tests, names = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
sys.path[:0] = [src, tests]
import test_replies
for name in names or test_replies.GROUPS:
    for argv in test_replies.GROUPS[name]:
        digest = hashlib.sha256(test_replies.request_line(argv)).hexdigest()
        print(name, digest, " ".join(argv), sep="\t")
"""


def digests(checkout: str, groups: list[str]) -> subprocess.Popen:
    """A child writing the digest lines of ``groups`` (all if empty) for ``checkout``."""
    src = Path(checkout) / "src"
    if not (src / "staircase_sums").is_dir():
        sys.exit(f"error: {checkout} has no src/staircase_sums")
    return subprocess.Popen([sys.executable, "-S", "-c", CHILD, str(src), str(TESTS),
                            json.dumps(groups)], stdout=subprocess.PIPE, text=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+", metavar="CHECKOUT",
                        help="one checkout to list, or two to compare")
    parser.add_argument("--group", action="append", default=[],
                        help="only this group of tests/test_replies.py (repeatable)")
    args = parser.parse_args(argv)
    if len(args.checkouts) > 2:
        parser.error("give one checkout or two")
    children = [digests(checkout, args.group) for checkout in args.checkouts]
    try:
        if len(children) == 1:
            sys.stdout.writelines(children[0].stdout)
            return children[0].wait()
        count = 0
        for left, right in zip(*(child.stdout for child in children)):
            if left != right:
                group, _, request = left.rstrip("\n").split("\t")
                print(f"first difference: request {count + 1}, in group {group!r}: {request}")
                return 1
            count += 1
        codes = [child.wait() for child in children]
        if any(codes):
            sys.exit(f"error: a checkout's child exited {codes}")
        print(f"{count} requests, the same replies")
        return 0
    finally:
        for child in children:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
