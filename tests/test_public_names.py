"""Every exported name exists, once: ``from liecomplete import *`` cannot fail.

The package imports its modules only when a name is first read, so the
package's names and submodules are also read off a fresh copy of it, on
which nothing has been read yet.
"""

import importlib
import importlib.util
import pkgutil

import pytest

import liecomplete

SUBMODULES = [m.name for m in pkgutil.iter_modules(liecomplete.__path__)]
MODULES = ["liecomplete"] + [f"liecomplete.{m}" for m in SUBMODULES]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_a_fresh_package_resolves_every_name_and_submodule():
    spec = importlib.util.find_spec("liecomplete")
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    loaded = {n: importlib.import_module(f"liecomplete.{n}") for n in SUBMODULES}
    assert [n for n in SUBMODULES if getattr(fresh, n, None) is not loaded[n]] == []
    assert [n for n in fresh.__all__ if getattr(fresh, n) != getattr(liecomplete, n)] == []
    assert not any(hasattr(fresh, n) for n in ("no_such_name", "flow.no_such_name"))
    star: dict = {}
    exec("from liecomplete import *", star)
    assert set(star) - {"__builtins__"} == set(liecomplete.__all__)
