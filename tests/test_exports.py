"""Every name a module exports resolves, so a deleted one cannot linger."""

import importlib
import pkgutil

import pytest

import wsdmil

MODULES = ["wsdmil"] + [m.name for m in pkgutil.iter_modules(wsdmil.__path__, "wsdmil.")]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
