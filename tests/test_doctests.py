"""Run the docstring examples of every transdist module."""

import doctest
import importlib
import pkgutil

import pytest

import transdist

MODULES = ["transdist"] + sorted(
    m.name for m in pkgutil.iter_modules(transdist.__path__, "transdist."))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_quick_start_and_diff_examples_are_collected():
    examples = {name: doctest.testmod(importlib.import_module(name)).attempted
                for name in ("transdist", "transdist.expr")}
    assert examples["transdist"] >= 6
    assert examples["transdist.expr"] >= 3
