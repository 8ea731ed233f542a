"""The mutation gate's targets stay planted: each mutation of
`tools/mutation_check.py` names old text that occurs exactly once in its
file under `src/zipfcache`, and an oracle test file that exists.  A
refactor that rewrites a planted line fails here, not the next time the
gate runs.  The gate's `--full` plugin turns off shrinking and nothing
else of the suite's Hypothesis settings."""

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("mutation_check",
                                               ROOT / "tools" / "mutation_check.py")
mutation_check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutation_check)


@pytest.mark.parametrize("mutation", mutation_check.MUTATIONS, ids=lambda m: m[0])
def test_mutation_target_occurs_once(mutation):
    _, file, old, _, oracle = mutation
    assert (ROOT / "src" / "zipfcache" / file).read_text().count(old) == 1
    assert (ROOT / "tests" / oracle).is_file()


_PROBE = """from hypothesis import Phase, settings


def test_probe():
    loaded = settings.default
    assert Phase.shrink not in loaded.phases
    assert Phase.explain not in loaded.phases
    assert Phase.generate in loaded.phases
    assert loaded.derandomize
    assert loaded.deadline is None
    assert loaded.database is None
"""


def test_no_shrink_plugin_keeps_deterministic_settings(tmp_path):
    # Laid out as the gate runs it: the plugin beside `tests/`, whose
    # conftest loads the `deterministic` profile.
    (tmp_path / "no_shrink.py").write_text(mutation_check.NO_SHRINK)
    (tmp_path / "tests").mkdir()
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path / "tests")
    (tmp_path / "tests" / "test_probe.py").write_text(_PROBE)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "no_shrink",
         "tests/test_probe.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
