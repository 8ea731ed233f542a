"""The mutation gate's targets stay planted: each mutation of
`tools/mutation_check.py` names old text that occurs exactly once in its
file under `src/zipfcache`, and an oracle test file that exists.  A
refactor that rewrites a planted line fails here, not the next time the
gate runs."""

import importlib.util
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
