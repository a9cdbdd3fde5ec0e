"""Every name a module exports through ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import surfspline

MODULES = ["surfspline"] + [
    f"surfspline.{info.name}" for info in pkgutil.iter_modules(surfspline.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
