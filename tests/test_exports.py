"""Every name a module exports must exist in that module."""

import importlib

import pytest

MODULES = ("scalars", "tableaux", "word_algebra", "hecke_rep",
           "alt_decompose", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"qalt.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
