import doctest
import pathlib

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples():
    # The library examples run the closed form and its brute-force twin.
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
