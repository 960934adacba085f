"""The README's library snippets run as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    """Each ```python block of the README runs on its own, top to bottom."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2, "the README's library snippets are gone"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
