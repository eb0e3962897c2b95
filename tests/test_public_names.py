"""Every exported name exists, once: ``from liecomplete import *`` cannot fail."""

import importlib
import pkgutil

import pytest

import liecomplete

MODULES = ["liecomplete"] + [
    f"liecomplete.{m.name}" for m in pkgutil.iter_modules(liecomplete.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
