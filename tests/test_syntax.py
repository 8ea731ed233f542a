"""Every Python file under `src/`, `tests/`, `tools/` and `demos/` parses
under the grammar of the oldest Python that `pyproject.toml` declares.
This checks grammar only: a call to a function that a later Python added
still passes here."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_file_parses_as_the_oldest_declared_python():
    declared = re.search(r'^requires-python = ">=3\.(\d+)"$',
                         (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    version = (3, int(declared.group(1)))
    files = sorted(path for top in ("src", "tests", "tools", "demos")
                   for path in (ROOT / top).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)
