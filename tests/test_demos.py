"""The demos stay importable and runnable: every name a demo imports from
zipfcache exists, and the closed-form walkthrough runs to completion.
The simulating demos take seconds each, so only their imports are
checked here."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _zipfcache_imports(path):
    """(module, name) for each name the demo imports from zipfcache."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("zipfcache"):
            yield from ((node.module, alias.name) for alias in node.names)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    pairs = list(_zipfcache_imports(path))
    assert pairs, f"{path.name} imports nothing from zipfcache"
    for module, name in pairs:
        mod = importlib.import_module(module)
        assert hasattr(mod, name), f"{path.name}: {module}.{name} is gone"


def test_popularity_law_demo_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / "popularity_law.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "popularity law" in done.stdout
