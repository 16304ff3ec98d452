import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parent / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name, old, new, expected, reason", mutants.MUTANTS,
                         ids=[f"{m[0]}: {m[4]}" for m in mutants.MUTANTS])
def test_each_mutant_applies_at_one_place(name, old, new, expected, reason):
    # the runner replaces the first occurrence; a second one, or none, would
    # mutate the wrong line or nothing
    text = (mutants.ROOT / mutants.SOURCE / name).read_text(encoding="utf-8")
    assert text.count(old) == 1
    assert new != old and expected in ("killed", "equivalent")
