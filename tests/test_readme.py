"""The README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_library_example_runs():
    found = re.search(r"^## Library\n\n```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert found is not None, "README.md has no python block right under ## Library"
    exec(compile(found.group(1), str(README), "exec"), {})
