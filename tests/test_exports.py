"""Every name a module exports must exist in that module, and every
module's doctests must pass."""

import doctest
import importlib
import pkgutil

import pytest

import qalt

MODULES = ("scalars", "tableaux", "word_algebra", "hecke_rep",
           "alt_decompose", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"qalt.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_doctests_pass():
    names = ["qalt"] + [f"qalt.{m.name}" for m in pkgutil.iter_modules(qalt.__path__)]
    failed = {name: doctest.testmod(importlib.import_module(name)).failed
              for name in names}
    assert failed == dict.fromkeys(names, 0)
