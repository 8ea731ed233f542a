"""Every Python file under `src/`, `tests/`, `tools/` and `demos/` parses
under the grammar of the oldest Python that `pyproject.toml` declares,
and uses none of the listed standard-library names that a later Python
added.  The list covers the additions of 3.11 most likely to slip in; a
name outside it still passes here."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Modules, and (module, name) pairs, that Python 3.11 added; builtins
# count as module "builtins".
NEW_MODULES = {"tomllib"}
NEW_NAMES = {
    ("contextlib", "chdir"), ("datetime", "UTC"), ("enum", "StrEnum"), ("typing", "Self"),
    ("builtins", "ExceptionGroup"), ("asyncio", "TaskGroup"), ("hashlib", "file_digest"),
    ("operator", "call"), ("math", "cbrt"), ("math", "exp2"),
}


def _files():
    files = sorted(path for top in ("src", "tests", "tools", "demos")
                   for path in (ROOT / top).rglob("*.py"))
    assert len(files) > 20
    return files


def newer_names(tree: ast.AST) -> list[str]:
    """The listed names `tree` imports or uses: through `import m`
    (aliased or not) and `m.name`, through `from m import name`, or as a
    builtin."""
    modules = {}  # local name -> module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.asname or alias.name.partition(".")[0]] = alias.name
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.partition(".")[0] in NEW_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.partition(".")[0] in NEW_MODULES:
                found.append(node.module)
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if (node.module, alias.name) in NEW_NAMES]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = modules.get(node.value.id)
            if (module, node.attr) in NEW_NAMES:
                found.append(f"{module}.{node.attr}")
        elif isinstance(node, ast.Name) and ("builtins", node.id) in NEW_NAMES:
            found.append(node.id)
    return found


def test_every_file_parses_as_the_oldest_declared_python():
    declared = re.search(r'^requires-python = ">=3\.(\d+)"$',
                         (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    version = (3, int(declared.group(1)))
    for path in _files():
        ast.parse(path.read_text(), filename=str(path), feature_version=version)


def test_no_file_uses_a_standard_library_name_added_after_3_10():
    found = {str(path.relative_to(ROOT)): newer_names(ast.parse(path.read_text()))
             for path in _files()}
    assert {path: names for path, names in found.items() if names} == {}


@pytest.mark.parametrize("source, name", [
    ("import tomllib", "tomllib"),
    ("from tomllib import loads", "tomllib"),
    ("from contextlib import chdir", "contextlib.chdir"),
    ("import datetime\ndatetime.UTC", "datetime.UTC"),
    ("import math as m\nm.cbrt(8.0)", "math.cbrt"),
    ("from typing import Self", "typing.Self"),
    ("raise ExceptionGroup('x', [ValueError()])", "ExceptionGroup"),
])
def test_newer_names_finds_each_form_of_use(source, name):
    assert newer_names(ast.parse(source)) == [name]


def test_newer_names_passes_what_3_10_has():
    # 3.10's names of those modules, and the listed names as attributes
    # of other objects, pass
    source = "import math\nmath.sqrt(2.0)\nx.cbrt\nfrom typing import List\nself.Self"
    assert newer_names(ast.parse(source)) == []
