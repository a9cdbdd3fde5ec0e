"""Every name a module exports through ``__all__``, and every name the
benchmark wraps, exists; the package keeps no module-level cache; and its
import loads no scipy subpackage but ``scipy.sparse``."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_benchmark_collectors_read_their_arguments():
    # the benchmark's collectors bind the wrapped functions' arguments by
    # name, and read gamma from the boundary reproductions' keywords; a
    # signature change that breaks one fails here, not only in a traced run
    import numpy as np

    from perfbench import layers, workloads
    from perfbench.tracer import Tracer
    from surfspline import harness, scheme
    from surfspline.geometry import circle
    from surfspline.kernel import SplineParams

    def bindings():
        held = {
            (name, attr): value
            for name, mod in list(sys.modules.items())
            if name == "surfspline" or name.startswith("surfspline.")
            for attr, value in list(vars(mod).items())
        }
        for module_name, attr, _span in layers.WRAPPED:
            if "." in attr:
                cls, meth = attr.split(".")
                held[module_name, attr] = vars(getattr(sys.modules[module_name], cls))[meth]
        return held

    before = bindings()
    tracer = Tracer()
    layers.install(tracer)
    try:
        report = harness.converge(workloads.ladder_config("ladder-plain", 0, tiny=True))
        scheme.volume_potential(
            SplineParams(2), circle(1.0), lambda a: np.ones(len(a)), np.zeros((2, 2)), 8
        )
    finally:
        tracer.restore()
    assert all(rung.ok for rung in report.rungs)
    for key in ("lpr.interior.anchors", "lpr.boundary.nominal",
                "scheme.eval_approximant.entries", "scheme.volume_potential.points"):
        assert tracer.counters[key] > 0, key
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


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


def test_import_loads_scipy_sparse_only():
    # the cold start pays for scipy.sparse alone (scipy's private helpers
    # aside): neighbour searches run on a numpy cell grid and the Dirichlet
    # solve on numpy's LAPACK
    code = (
        "import sys\n"
        "import surfspline\n"
        "import surfspline.cli\n"
        "names = {m.split('.')[1] for m in sys.modules if m.startswith('scipy.')}\n"
        "public = {n for n in names if not n.startswith('_')}\n"
        "print(' '.join(sorted(n for n in public if hasattr(sys.modules['scipy.' + n], '__path__'))))\n"
    )
    env = dict(os.environ)
    src = str(Path(surfspline.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    packages = set(proc.stdout.split())
    assert not {"spatial", "linalg"} & packages
    assert packages == {"sparse"}
    # nor does any code path import them later
    imported = []
    for path in sorted(Path(surfspline.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported += [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    assert not [
        name for name in imported if name.startswith(("scipy.spatial", "scipy.linalg"))
    ]
