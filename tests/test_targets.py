"""Target functions: exact traces and m-Laplacians, checked in part against
nested finite differences."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from surfspline.geometry import BoundaryGrid, ellipse
from surfspline.targets import TARGET_LIBRARY, named_target
from tests.conftest import target_from_expression


def _fd_laplacian(g, h):
    """Fourth-order nine-point Laplacian of the callable g at step h."""
    stencil = [(1, 0, 16.0), (-1, 0, 16.0), (0, 1, 16.0), (0, -1, 16.0),
               (2, 0, -1.0), (-2, 0, -1.0), (0, 2, -1.0), (0, -2, -1.0)]

    def out(pts):
        acc = -60.0 * g(pts)
        for dx, dy, w in stencil:
            acc = acc + w * g(pts + np.array([dx * h, dy * h]))
        return acc / (12.0 * h * h)

    return out


def _fd_normal_derivative(g, h, pts, nrm):
    """Fourth-order central difference of g along the unit normals."""
    grad = []
    for e in (np.array([h, 0.0]), np.array([0.0, h])):
        grad.append((-g(pts + 2 * e) + 8 * g(pts + e) - 8 * g(pts - e) + g(pts - 2 * e)) / (12 * h))
    return nrm[:, 0] * grad[0] + nrm[:, 1] * grad[1]


def _fd_traces(fn, pts, nrm, m, step=4e-3):
    """Traces op_k fn, k = 0 .. 2m-1, from nested stencils; the step grows by
    1.6 per nesting level to keep the rounding noise in check."""
    out = []
    g, h = fn, step
    for k in range(0, 2 * m, 2):
        out.append(g(pts))
        out.append(_fd_normal_derivative(g, h, pts, nrm))
        g, h = _fd_laplacian(g, h), 1.6 * h
    return out


def test_library_contents():
    for name in ("poly1", "harmonic3", "biharm", "quartic", "expx", "wave"):
        assert name in TARGET_LIBRARY
    with pytest.raises(KeyError):
        named_target("nosuch", 2)


@pytest.mark.parametrize("name", sorted(TARGET_LIBRARY))
def test_closed_forms_match_the_symbolic_oracle(name, disk, rng):
    # every op_k f (k < 2m) and Lap^m f, m = 1 .. 3, against the lambdified
    # sympy derivatives of the library expression; the oracle built at m = 3
    # holds op_k for every k <= 6
    oracle = target_from_expression(TARGET_LIBRARY[name][0], m=3, name=name)
    theta = rng.uniform(0, 2 * np.pi, size=40)
    point_sets = [
        (rng.uniform(-1.5, 1.5, size=(40, 2)), np.column_stack([np.cos(theta), np.sin(theta)])),
    ] + [
        (g.points, g.normals)
        for g in (BoundaryGrid.build(disk, 64), BoundaryGrid.build(ellipse(1.5, 1.0), 64))
    ]
    for m in (1, 2, 3):
        f = named_target(name, m)
        for pts, nrm in point_sets:
            pairs = [(f.trace(k, pts, nrm), oracle.op(k, pts, nrm)) for k in range(2 * m)]
            pairs.append((f.m_laplacian(pts), oracle.op(2 * m, pts, None)))
            for k, (got, want) in enumerate(pairs):
                assert got.shape == want.shape
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= 1e-14 * scale, (m, k)


def test_trace_order_out_of_range(grid256):
    f = named_target("wave", 2)
    for k in (4, -1):
        with pytest.raises(ValueError, match=r"0 \.\. 3"):
            f.trace(k, grid256.points, grid256.normals)


def test_run_path_does_not_import_sympy():
    # the package, every named target and a tiny ladder run on numpy alone
    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "import surfspline\n"
        "from surfspline.harness import ExperimentConfig, converge\n"
        "from surfspline.targets import TARGET_LIBRARY, named_target\n"
        "for name in TARGET_LIBRARY:\n"
        "    named_target(name, 2)\n"
        "cfg = ExperimentConfig(curve='disk', target='wave', h_ladder=(0.3, 0.25, 0.2),\n"
        "                       probe_grid=32, quad_level=16, n_solver=64)\n"
        "assert all(r.ok for r in converge(cfg).rungs)\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def test_values_and_simple_traces(grid256):
    f = named_target("poly1", 2)
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [-0.5, 2.0]])
    np.testing.assert_allclose(f(pts), [1.0, 2.0, -2.0], atol=1e-14)
    # gradient of 1 + 2x - y is (2, -1); normal trace on the circle
    t = grid256.t
    np.testing.assert_allclose(
        f.trace(1, grid256.points, grid256.normals),
        2 * np.cos(t) - np.sin(t),
        atol=1e-13,
    )


def test_quartic_m_laplacian_constant(rng):
    f = named_target("quartic", 2)
    pts = rng.uniform(-1, 1, size=(20, 2))
    # Lap^2 (x^4 + y^4) = 24 + 24 = 48 everywhere
    np.testing.assert_allclose(f.m_laplacian(pts), 48.0, atol=1e-12)


def test_low_degree_targets_are_polyharmonic(rng):
    pts = rng.uniform(-1, 1, size=(15, 2))
    for name in ("poly1", "harmonic3", "biharm", "cubicmix"):
        f = named_target(name, 2)
        np.testing.assert_allclose(f.m_laplacian(pts), 0.0, atol=1e-12)


def test_wave_m_laplacian(rng):
    # Lap sin(2x + y) = -5 sin(2x + y), so Lap^2 = 25 sin(2x + y)
    f = named_target("wave", 2)
    pts = rng.uniform(-1, 1, size=(15, 2))
    np.testing.assert_allclose(
        f.m_laplacian(pts), 25.0 * np.sin(2 * pts[:, 0] + pts[:, 1]), rtol=1e-12
    )


def test_boundary_data_shape(grid256):
    f = named_target("gauss", 2)
    data = f.boundary_data(grid256)
    assert data.shape == (2, grid256.n)
    np.testing.assert_allclose(data[0], np.exp(-1.0), atol=1e-14)
    # radial Gaussian: normal derivative on the unit circle is -2 e^{-1}
    np.testing.assert_allclose(data[1], -2 * np.exp(-1.0), atol=1e-13)


def test_odd_trace_requires_normals(grid256):
    f = named_target("expx", 2)
    with pytest.raises(ValueError):
        f.trace(1, grid256.points)


def test_expression_accepts_sympy_objects():
    x, y = sp.symbols("x y")
    f = target_from_expression(sp.sin(x) * y, m=2, name="siny")
    pts = np.array([[0.3, 0.7]])
    assert f(pts)[0] == pytest.approx(np.sin(0.3) * 0.7, rel=1e-14)


def test_finite_difference_oracle_matches_exact_traces(grid256):
    # compare all symbolic traces k <= 3 of exp(x) cos(y) against nested
    # finite differences of the plain function; they should agree to ~1e-6
    exact = named_target("expcos", 2)
    pts = grid256.points[::8]
    nrm = grid256.normals[::8]
    fd = _fd_traces(lambda p: np.exp(p[..., 0]) * np.cos(p[..., 1]), pts, nrm, 2)
    for k in range(4):
        a = exact.trace(k, pts, nrm)
        scale = np.max(np.abs(a)) + 1.0
        assert np.max(np.abs(a - fd[k])) / scale < 1e-6, f"trace {k}"


def test_finite_difference_oracle_m_laplacian(rng):
    exact = named_target("gauss", 2)
    g = lambda p: np.exp(-np.sum(p**2, axis=-1))
    fd = _fd_laplacian(_fd_laplacian(g, 4e-3), 4e-3 * 1.6 * 1.6)
    pts = rng.uniform(-0.6, 0.6, size=(10, 2))
    a, b = exact.m_laplacian(pts), fd(pts)
    assert np.max(np.abs(a - b)) / np.max(np.abs(a)) < 1e-4


def test_trace_linearity(grid256, rng):
    fa = named_target("harmonic3", 2)
    fb = named_target("gauss", 2)
    combo = target_from_expression(
        "x**3 - 3*x*y**2 + 2*exp(-(x**2 + y**2))", m=2, name="combo"
    )
    for k in range(4):
        a = fa.trace(k, grid256.points, grid256.normals)
        b = fb.trace(k, grid256.points, grid256.normals)
        c = combo.trace(k, grid256.points, grid256.normals)
        np.testing.assert_allclose(c, a + 2 * b, rtol=1e-10, atol=1e-12)
