"""The Python code shown in README.md runs as written, and its command
lines parse."""

import re
import shlex
from pathlib import Path

import pytest

from zipfcache.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
FENCED = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(), re.S | re.M)
BLOCKS = [body for lang, body in FENCED if lang == "python"]
# `zipfcache ...` lines of the plain blocks, continuations joined, as argv
COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for lang, body in FENCED if not lang
    for line in body.replace("\\\n", " ").splitlines()
    if line.startswith("zipfcache ")
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_has_command_lines():
    assert COMMANDS


@pytest.mark.parametrize("index", range(len(COMMANDS)))
def test_readme_command_line_parses(index):
    build_parser().parse_args(COMMANDS[index])
