"""The examples in the library's docstrings and in README.md run and pass."""

import doctest
import importlib
import pathlib
import pkgutil

import pytest

import stackyring

MODULES = [stackyring] + [importlib.import_module(f"stackyring.{info.name}")
                          for info in pkgutil.iter_modules(stackyring.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    assert doctest.testmod(module).failed == 0


def test_some_examples_run():
    assert sum(doctest.testmod(m).attempted for m in MODULES) > 0


def test_readme_examples_run():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.failed == 0 and result.attempted > 0
