"""Every ```python block of README.md runs as written, from the repository root."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _python_blocks() -> dict[str, str]:
    """Each block by the README line of its fence, padded so that a traceback gives README lines."""
    blocks = {}
    for block in re.finditer(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL):
        fence_line = README.count("\n", 0, block.start(1))
        blocks[f"line {fence_line}"] = "\n" * fence_line + block.group(1)
    return blocks


BLOCKS = _python_blocks()


def test_the_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", list(BLOCKS.values()), ids=list(BLOCKS))
def test_readme_example_runs(source, monkeypatch):
    monkeypatch.chdir(ROOT)
    exec(compile(source, "README.md", "exec"), {"__name__": "readme_example"})
