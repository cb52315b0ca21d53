import ast

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_each_mutant_applies_once_and_names_existing_tests(mutant):
    # a mutant whose text an edit moved, or whose test was renamed, would
    # stop the mutation run with no verdict; here it fails tier-1 instead
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    for test in mutant.tests:
        path, _, name = test.partition("::")
        assert (ROOT / path).is_file(), test
        if name:
            module = ast.parse((ROOT / path).read_text())
            defined = {node.name for node in module.body if isinstance(node, ast.FunctionDef)}
            assert name in defined, test
