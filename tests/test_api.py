"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import swainval

MODULES = sorted(info.name for info in pkgutil.iter_modules(swainval.__path__))


def test_package_exports_resolve():
    missing = [name for name in swainval.__all__ if not hasattr(swainval, name)]
    assert missing == []


@pytest.mark.parametrize("module_name", MODULES)
def test_module_exports_resolve(module_name):
    module = importlib.import_module(f"swainval.{module_name}")
    exported = getattr(module, "__all__", ())
    assert [name for name in exported if not hasattr(module, name)] == []
