"""The mutant corpus (`mutants.py`) stays in step with the code: each
mutant's snippet occurs exactly once in its file, so a change that moves the
code it breaks must update the record. Running the corpus takes a subprocess
per mutant and is left to `python tests/mutants.py`."""

from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT, occurrences


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_snippet_occurs_exactly_once(mutant):
    assert occurrences(mutant) == 1
    assert mutant.new != mutant.old and mutant.source


def test_each_mutant_names_tests_that_exist():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert mutant.nodes, mutant.name
        for node in mutant.nodes:
            file, function = node.split("::")
            function = function.split("[")[0]
            assert f"\ndef {function}(" in Path(ROOT, file).read_text(encoding="utf-8"), node
