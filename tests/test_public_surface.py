"""Every exported name resolves, and removed modules stay removed."""

import importlib
import pkgutil

import pytest

import zetascope

MODULES = sorted(m.name for m in pkgutil.iter_modules(zetascope.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"zetascope.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert not missing


def test_quadrature_module_is_gone():
    with pytest.raises(ImportError):
        importlib.import_module("zetascope.quadrature")
