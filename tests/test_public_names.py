"""Every name a scpnum module exports in ``__all__`` exists, and the
package exports exactly the names its modules declare.

A function or class that moves between modules can leave its old name
behind in ``__all__``, where only ``from scpnum.<module> import *``
would notice. These checks catch it here instead.
"""

import importlib
import pkgutil

import pytest

import scpnum

MODULES = sorted(m.name for m in pkgutil.iter_modules(scpnum.__path__))


def test_every_module_is_found():
    assert {"agents", "cli", "engine", "network", "oracle", "scenario", "utility"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"scpnum.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_exports_each_modules_names_once():
    # scpnum's names are its library modules' __all__ lists (the command
    # line is not one), each name declared by one module
    modules = [importlib.import_module(f"scpnum.{m}") for m in MODULES if m != "cli"]
    declared = [n for module in modules for n in module.__all__]
    assert len(set(declared)) == len(declared)
    assert sorted(scpnum.__all__) == sorted(declared)
    assert [n for module in modules for n in module.__all__
            if getattr(scpnum, n) is not getattr(module, n)] == []
