"""The rows of tests/mutants.py still apply to the code they mutate.

The mutants themselves run apart from Tier-1 (`python tests/mutants.py`
takes 30 s and more), so a row that an edit left stale would show only
there; this check reads the files alone."""
import re

import mutants


def test_every_mutant_row_names_text_and_tests_that_exist():
    """Each row's old text occurs exactly once in its file, and each
    `path::name` it names (less a parameter id) is a def in that file."""
    stale = []
    for mutant in mutants.MUTANTS:
        count = (mutants.ROOT / mutant.file).read_text().count(mutant.old)
        if count != 1:
            stale.append(f"{mutant.name}: old text occurs {count} times")
        for test in mutant.tests:
            path, name = test.split("[")[0].split("::")
            if not re.search(rf"^def {re.escape(name)}\(", (mutants.ROOT / path).read_text(), re.M):
                stale.append(f"{mutant.name}: no def {name} in {path}")
    assert stale == []
