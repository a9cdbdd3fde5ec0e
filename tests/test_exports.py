"""Every name a module exports through ``__all__``, and every name the
benchmark wraps, exists; and the package keeps no module-level cache."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_no_functools_caches_in_the_package():
    # work that does not depend on one call's input lives in objects the
    # caller builds and passes (trace maps, pair plans, tile buffers), never
    # in a memo that every caller in the process shares
    banned = {"lru_cache", "cache"}
    found = []
    for path in sorted(Path(surfspline.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "functools"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names if alias.name in banned]
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in banned
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno} functools.{name}" for name in names]
    assert not found, f"module-level caches in the package: {found}"
