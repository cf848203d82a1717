"""The README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    text = README.read_text()
    block = re.search(r"^## Library sketch\n+```python\n(.*?)^```$", text, re.M | re.S)
    assert block, "README has no python block under '## Library sketch'"
    exec(compile(block.group(1), "README.md: Library sketch", "exec"), {})
