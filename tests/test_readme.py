"""The README's library example and CLI examples run against the
installed names."""

import re
import shlex
from pathlib import Path

import pytest

from aglstab.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def run_block(block: str) -> None:
    """Run one python block with its asserts kept, even under python -O."""
    exec(compile(block, str(README), "exec", optimize=0), {})


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        run_block(block)


def test_run_block_keeps_asserts():
    with pytest.raises(AssertionError):
        run_block("assert False\n")


def test_readme_cli_examples_exit_0(capsys):
    block, = re.findall(r"^## CLI\n\n```sh\n(.*?)^```", README.read_text(),
                        re.DOTALL | re.MULTILINE)
    commands = [shlex.split(line, comments=True)
                for line in block.splitlines() if line.startswith("aglstab ")]
    assert len(commands) == 8
    for argv in commands:
        assert argv[0] == "aglstab"
        assert main(argv[1:]) == EXIT_OK, argv
        capsys.readouterr()


def test_readme_install_names_the_build_system_floor():
    # tomllib is Python 3.11+, so the requires line is read with a regex
    pyproject = (README.parent / "pyproject.toml").read_text()
    requires, = re.findall(r"^requires = \[(.*)\]$", pyproject, re.MULTILINE)
    section, = re.findall(r"^## Install and test\n(.*?)^## ",
                          README.read_text(), re.DOTALL | re.MULTILINE)
    floors = set(re.findall(r"setuptools>=([\d.]+)", section))
    assert floors == set(re.findall(r"setuptools>=([\d.]+)", requires))
    assert len(floors) == 1
    assert "--no-build-isolation" in section and "`wheel`" in section
