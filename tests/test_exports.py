"""Every name a module exports through ``__all__``, and every name the
benchmark wraps, exists."""

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


def test_benchmark_wrapped_names_resolve():
    # the benchmark wraps these by name, without a default; deleting or
    # renaming one breaks every traced pass
    from perfbench.layers import WRAPPED

    for module_name, attr, _span in WRAPPED:
        holder = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(holder, part), f"{module_name}.{attr} is gone"
            holder = getattr(holder, part)
        assert callable(holder), f"{module_name}.{attr} is not callable"


def test_dirichlet_holds_one_sided_trace():
    # the benchmark's wrapper test checks that the import in dirichlet is wrapped
    from surfspline import dirichlet, layerpot

    assert dirichlet.one_sided_trace is layerpot.one_sided_trace
