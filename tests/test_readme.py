"""The README's Python examples and CLI commands run against the package as it
stands, so a rename of public API or a flag fails here instead of leaving the
docs broken."""

import re
import shlex
from pathlib import Path

import pytest

from invsl.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"```python\n(.*?)```", TEXT, flags=re.S)
CLI_LINES = [line for block in re.findall(r"```bash\n(.*?)```", TEXT, flags=re.S)
             for line in block.splitlines() if line.startswith("invsl ")]


def test_readme_has_a_quick_start():
    assert BLOCKS and "reconstruct(" in BLOCKS[0]


@pytest.mark.parametrize("k", range(len(BLOCKS)))
def test_python_block_runs(k, tmp_path, monkeypatch):
    # the blocks may write files into the working directory
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[k], f"README.md python block {k}", "exec"), {"__name__": "readme"})


def test_cli_block_runs(tmp_path, monkeypatch):
    # the generator block writes every input file the CLI block reads
    monkeypatch.chdir(tmp_path)
    (generator,) = [b for b in BLOCKS if "subspectrum.json" in b]
    exec(compile(generator, "README.md generator block", "exec"), {"__name__": "readme"})
    assert CLI_LINES
    for line in CLI_LINES:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
