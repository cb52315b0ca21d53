import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_run():
    # the README's library overview is a doctest, so it cannot name an API
    # that is gone or show an output the library no longer prints
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
