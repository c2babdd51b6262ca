"""Run the doctest examples embedded in docstrings.

Documentation that executes is documentation that stays true; every
module with a runnable example in its docstrings is exercised here.
"""

import doctest
import importlib

import pytest

MODULE_NAMES = [
    "repro",
    "repro.runtime",
    "repro.util.timing",
]


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_doctests(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{result.failed} doctest failures in {name}"
    assert result.attempted > 0, f"no doctests found in {name}"
