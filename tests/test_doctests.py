"""The examples in the library's docstrings run and pass."""

import doctest
import importlib
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
