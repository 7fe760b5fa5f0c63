"""The README's python examples run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks  # the pattern found the examples
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
