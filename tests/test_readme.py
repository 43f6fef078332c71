"""The README's Python examples run against the package as it stands, so a
rename of public API fails here instead of leaving the docs broken."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)


def test_readme_has_a_quick_start():
    assert BLOCKS and "reconstruct(" in BLOCKS[0]


@pytest.mark.parametrize("k", range(len(BLOCKS)))
def test_python_block_runs(k, tmp_path, monkeypatch):
    # the blocks may write files into the working directory
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[k], f"README.md python block {k}", "exec"), {"__name__": "readme"})
