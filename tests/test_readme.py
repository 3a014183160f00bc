"""The README's library example runs as written, and the README names every
public name."""

from __future__ import annotations

import re
from pathlib import Path

import staircase_sums

README = Path(__file__).parent.parent / "README.md"


def test_readme_library_example_runs():
    found = re.search(r"^## Library\n\n```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert found is not None, "README.md has no python block right under ## Library"
    exec(compile(found.group(1), str(README), "exec"), {})


def test_readme_names_every_public_name():
    # as a code span, `name` or `name(...)`, not just a word of the prose
    text = README.read_text()
    assert [name for name in staircase_sums.__all__ if not re.search(rf"`{name}\b", text)] == []
