"""The mutation catalogue (scripts/mutants.py): every mutant's old string
occurs exactly once in its file, so an edit of the source that leaves a
mutant stale fails here, not only in the catalogue's own run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name", list(mutants.MUTANTS))
def test_old_string_occurs_once(name):
    path, old, new, _ = mutants.MUTANTS[name]
    assert (ROOT / path).read_text().count(old) == 1 and new != old
