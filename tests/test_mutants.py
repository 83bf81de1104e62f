"""The known mutants in ``tests/mutants.py`` must still apply: each old
text occurs exactly once in its file, and each named test function is
still defined in its test file, so a refactor that moves such code or
renames such a test updates the list with it (run ``python
tests/mutants.py`` to check they are killed)."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_old_text_occurs_once():
    mutants = _mutants()
    assert len(mutants) >= 8 and len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        text = (ROOT / "src" / "dynbc" / m.file).read_text(encoding="utf-8")
        assert text.count(m.old) == 1, m.name
        assert m.new != m.old and m.tests, m.name
        for test in m.tests:
            path, _, name = test.partition("::")
            assert (ROOT / path).is_file(), (m.name, test)
            if name:  # a test function, less any [param] suffix
                source = (ROOT / path).read_text(encoding="utf-8")
                assert f"def {name.split('[')[0]}(" in source, (m.name, test)
