"""The README's Python examples run as written, so a removed or renamed
name they use fails here."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_readme_python_block_runs(index):
    code = compile(PYTHON_BLOCKS[index], f"README.md python block {index}", "exec")
    exec(code, {"__name__": "readme"})
