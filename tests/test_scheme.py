"""Interior quadrature, representation identities, assembly, extension."""

import numpy as np
import pytest
import sympy as sp

from surfspline.errors import StarShapeError
from surfspline.geometry import BoundaryGrid, DomainCurve, ellipse, generate_centers
from surfspline.kernel import SplineParams
from surfspline.polyspace import PolyBasis
from surfspline.scheme import (
    Approximant,
    ExtensionField,
    annihilation_check,
    assemble_TXi,
    boundary_support_is_local,
    error_kernel_norms,
    eval_approximant,
    extension_continuity,
    greens_representation,
    interior_quadrature,
    probe_points,
    scheme_grids,
    volume_potential,
)
from surfspline.targets import named_target
from tests.conftest import interior_points, target_from_expression

# ---------------------------------------------------------------------------
# interior quadrature
# ---------------------------------------------------------------------------


def test_quadrature_areas(disk, ell21):
    assert np.sum(interior_quadrature(disk, 32).weights) == pytest.approx(np.pi, abs=1e-12)
    q = interior_quadrature(ell21, 32)
    assert np.sum(q.weights) == pytest.approx(2 * np.pi, abs=1e-11)


@pytest.mark.parametrize("exps", [(2, 0), (4, 2), (6, 0), (3, 3), (2, 2)])
def test_quadrature_disk_moments_vs_symbolic(disk, exps):
    # oracle: the polar integral computed exactly with sympy
    i, j = exps
    r, t = sp.symbols("r t", positive=True)
    oracle = float(
        sp.integrate(
            sp.integrate(r ** (i + j + 1), (r, 0, 1))
            * sp.cos(t) ** i
            * sp.sin(t) ** j,
            (t, 0, 2 * sp.pi),
        )
    )
    q = interior_quadrature(disk, 16)
    val = q.weights @ (q.nodes[:, 0] ** i * q.nodes[:, 1] ** j)
    assert val == pytest.approx(oracle, abs=1e-12)


def test_quadrature_requires_star_shape():
    # a circle occluding the origin with a deliberately inconsistent polar
    # description must be rejected before any polar rule is built
    shifted = DomainCurve(
        "shifted-circle",
        lambda t: (0.8 + 0.5 * np.cos(t), 0.5 * np.sin(t)),
        lambda t: (-0.5 * np.sin(t), 0.5 * np.cos(t)),
        lambda t: (-0.5 * np.cos(t), -0.5 * np.sin(t)),
        lambda psi: np.full_like(psi, 0.5),
    )
    with pytest.raises(StarShapeError):
        interior_quadrature(shifted, 16)


def test_quadrature_rejects_low_level(disk):
    with pytest.raises(ValueError):
        interior_quadrature(disk, 1)


def test_probe_points_margin(disk):
    from surfspline.geometry import signed_distance

    probes = probe_points(disk, 32, 0.1)
    assert probes.shape[1] == 2
    assert np.all(signed_distance(disk, probes) <= -0.1 + 1e-9)
    assert len(probe_points(disk, 64, 0.1)) > 3 * len(probes)


def test_scheme_grids_layout(disk):
    grids = scheme_grids(disk, 0.1, nu=2.0, n_solver=256)
    assert grids.boundary.n == 256
    # the coefficient grid resolves half the boundary-zone spacing h^nu
    assert grids.boundary_nodes.n >= np.ceil(2 * np.pi / 0.005)
    assert grids.quadrature.level >= 16
    plain = scheme_grids(disk, 0.1, n_solver=256)
    assert plain.boundary_nodes is plain.boundary  # no refinement needed


# ---------------------------------------------------------------------------
# volume potential and representation identity
# ---------------------------------------------------------------------------


def test_volume_potential_level_convergence(disk, params2, rng):
    f = named_target("gauss", 2)
    pts = rng.uniform(-0.5, 0.5, size=(6, 2))
    a = volume_potential(params2, disk, f.m_laplacian, pts, 24)
    b = volume_potential(params2, disk, f.m_laplacian, pts, 48)
    assert np.max(np.abs(a - b)) < 1e-8


def _volume_potential_loop(params, curve, density_fn, points, level):
    """The per-point loop that ``volume_potential`` tiles: one ray bisection,
    one density call and one sum per evaluation point."""
    from surfspline.kernel import phi_from_r2

    n_theta = max(64, 4 * level)
    theta = 2 * np.pi * np.arange(n_theta) / n_theta
    u, wu = np.polynomial.legendre.leggauss(level)
    u = 0.5 * (u + 1.0)
    wu = 0.5 * wu
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    out = np.empty(len(points))
    for i, x in enumerate(points):
        s_exit = curve.ray_exit(x[None], theta)[0]
        s = s_exit[:, None] * u[None, :]
        w = (2 * np.pi / n_theta) * (s_exit[:, None] * wu[None, :]) * s
        alpha = x[None, None, :] + s[..., None] * dirs[:, None, :]
        dens = np.asarray(density_fn(alpha.reshape(-1, 2))).reshape(s.shape)
        out[i] = float(np.sum(w * dens * phi_from_r2(params, s * s)))
    return out


@pytest.mark.parametrize("spec", ["disk", "ellipse:1.5,1"])
def test_volume_potential_equals_the_per_point_loop_on_any_tiling(spec, params2, monkeypatch):
    from surfspline import kernel
    from surfspline.geometry import curve_from_spec
    from surfspline.targets import TARGET_LIBRARY

    curve = curve_from_spec(spec)
    pts = interior_points(curve, 21, np.random.default_rng(7), margin=0.05)
    n_nodes = 4 * 24 * 24
    for name in TARGET_LIBRARY:
        f = named_target(name, 2)
        want = _volume_potential_loop(params2, curve, f.m_laplacian, pts, 24)
        for budget in (None, 1 << 10, 1 << 20):
            if budget is not None:
                monkeypatch.setattr(kernel, "TILE_ENTRIES", budget)
            calls = []

            def density(a):
                calls.append(len(a))
                return f.m_laplacian(a)

            got = volume_potential(params2, curve, density, pts, 24)
            np.testing.assert_array_equal(got, want, err_msg=f"{name}, budget {budget}")
            # one density call per tile of the nodes
            assert calls == [n_nodes * (hi - lo) for lo, hi in kernel.tiles(len(pts), n_nodes)]
            monkeypatch.undo()


def test_greens_representation_reconstructs(disk, params2, rng):
    f = named_target("expx", 2)
    pts = rng.uniform(-0.55, 0.55, size=(12, 2))
    vals = greens_representation(params2, disk, f, 128, 24, pts)
    assert np.max(np.abs(vals - f(pts))) < 1e-8


def test_greens_representation_order3(disk, rng):
    # order m = 3 exercises kernels and potentials up to operator order 5;
    # a harmonic target keeps the volume term exactly zero
    params = SplineParams(m=3, d=2)
    f = named_target("expcos", 3)
    pts = rng.uniform(-0.5, 0.5, size=(10, 2))
    vals = greens_representation(params, disk, f, 128, 24, pts)
    assert np.max(np.abs(vals - f(pts))) < 1e-10


# ---------------------------------------------------------------------------
# quasi-interpolant assembly
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def assembly(disk):
    centers = generate_centers(disk, 0.1, seed=0)
    grids = scheme_grids(disk, 0.1)
    return centers, grids


def test_scheme_reproduces_tail_polynomials(disk, assembly):
    centers, grids = assembly
    apx = assemble_TXi(named_target("poly1", 2), centers, grids)
    probes = probe_points(disk, 48, 0.0)
    exact = 1 + 2 * probes[:, 0] - probes[:, 1]
    assert np.max(np.abs(eval_approximant(apx, probes) - exact)) < 1e-10
    # a tail polynomial needs no kernel part at all
    assert np.max(np.abs(apx.coefficients)) < 1e-9


def test_scheme_error_magnitude_and_refinement(disk, assembly):
    centers, grids = assembly
    f = named_target("expx", 2)
    probes = probe_points(disk, 64, 0.0)
    apx = assemble_TXi(f, centers, grids)
    err_coarse = np.max(np.abs(eval_approximant(apx, probes) - f(probes)))
    assert 0.01 < err_coarse < 0.08
    fine = generate_centers(disk, 0.05, seed=0)
    apx_f = assemble_TXi(f, fine, scheme_grids(disk, 0.05))
    err_fine = np.max(np.abs(eval_approximant(apx_f, probes) - f(probes)))
    assert 2.5 < err_coarse / err_fine < 6.0


def test_scheme_linear_in_target(disk, assembly):
    centers, grids = assembly
    fa = named_target("expx", 2)
    fb = named_target("wave", 2)
    combo = target_from_expression("exp(x) - 2*sin(2*x + y)", m=2)
    a = assemble_TXi(fa, centers, grids)
    b = assemble_TXi(fb, centers, grids)
    c = assemble_TXi(combo, centers, grids)
    scale = np.max(np.abs(c.coefficients))
    assert (
        np.max(np.abs(c.coefficients - (a.coefficients - 2 * b.coefficients))) / scale
        < 1e-10
    )
    np.testing.assert_allclose(
        c.poly_coeffs, a.poly_coeffs - 2 * b.poly_coeffs, atol=1e-10
    )


def test_assembly_deterministic(disk, assembly):
    centers, grids = assembly
    f = named_target("gauss", 2)
    a = assemble_TXi(f, centers, grids)
    b = assemble_TXi(f, centers, grids)
    np.testing.assert_array_equal(a.coefficients, b.coefficients)
    np.testing.assert_array_equal(a.poly_coeffs, b.poly_coeffs)


def test_approximant_csv_roundtrip(disk, assembly, tmp_path):
    centers, grids = assembly
    apx = assemble_TXi(named_target("wave", 2), centers, grids)
    path = tmp_path / "apx.csv"
    apx.save_csv(path)
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    assert header == "kind,x,y,value"
    rows = [line.split(",") for line in lines]
    poly = [row for row in rows if row[0] == "poly"]
    centers = np.array([[float(v) for v in row[1:]] for row in rows if row[0] == "center"])
    assert len(poly) + len(centers) == len(rows)
    # the polynomial part first, then every bit of every center and coefficient
    assert [(int(i), int(j)) for _, i, j, _ in poly] == list(apx.basis.exponents)
    np.testing.assert_array_equal([float(v) for *_, v in poly], apx.poly_coeffs)
    np.testing.assert_array_equal(centers[:, :2], apx.centers)
    np.testing.assert_array_equal(centers[:, 2], apx.coefficients)


def test_eval_approximant_chunked_consistent(disk, assembly, rng, monkeypatch):
    from surfspline import kernel

    centers, grids = assembly
    apx = assemble_TXi(named_target("gauss", 2), centers, grids)
    pts = rng.uniform(-0.6, 0.6, size=(300, 2))
    full = eval_approximant(apx, pts)
    # budgets of 8 and 56 rows a tile: neither step divides the 300 points
    for budget in (1000, 56 * len(centers)):
        assert 300 % max(8, budget // len(centers) // 8 * 8)
        monkeypatch.setattr(kernel, "TILE_ENTRIES", budget)
        np.testing.assert_array_equal(eval_approximant(apx, pts), full)


def _fresh_phi_from_r2(params, r2):
    """phi_from_r2 before the tile buffers: fresh arrays, and the limit at
    zero distance masked in every block."""
    from surfspline.kernel import fs_constant

    r2 = np.asarray(r2, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(r2 ** (params.m - 1))
        out *= 0.5 * fs_constant(params.m)
        out *= np.log(r2)
    out[~(r2 > 0.0)] = 0.0
    return out


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("budget", [None, 1 << 10, 1 << 20])
def test_phi_tiles_in_reused_buffers_match_fresh_blocks(m, budget, monkeypatch):
    # a probe on a center sits in a middle tile: only its r^2 = 0 entry is
    # masked to the limit 0, and every tile, the ones after it included,
    # holds exactly the values fresh arrays give
    from surfspline import kernel, scheme
    from surfspline.kernel import tiles

    if budget is not None:
        monkeypatch.setattr(kernel, "TILE_ENTRIES", budget)
    params = SplineParams(m=m)
    rng = np.random.default_rng(m)
    centers = rng.uniform(-1.0, 1.0, size=(300, 2))
    pts = rng.uniform(-1.0, 1.0, size=(500, 2))
    bounds = list(tiles(len(pts), len(centers)))
    lo, hi = bounds[len(bounds) // 2]
    probe = (lo + hi) // 2
    pts[probe] = centers[17]
    apx = Approximant(
        params=params, centers=centers, coefficients=rng.standard_normal(len(centers)),
        basis=PolyBasis.for_spline_order(m), poly_coeffs=np.zeros(m * (m + 1) // 2),
    )
    buf = scheme._tile_buffers(bounds, len(centers))
    expected = apx.poly_eval(pts)
    for lo, hi in bounds:
        dx = np.subtract.outer(pts[lo:hi, 0], centers[:, 0])
        dy = np.subtract.outer(pts[lo:hi, 1], centers[:, 1])
        fresh = _fresh_phi_from_r2(params, dx * dx + dy * dy)
        block = scheme._phi_matrix(params, pts[lo:hi], centers, buf)
        assert np.array_equal(block, fresh)
        expected[lo:hi] += fresh @ apx.coefficients
        if lo <= probe < hi:
            zero = np.flatnonzero(block[probe - lo] == 0.0)
            assert zero.tolist() == [17]
            assert np.count_nonzero(block == 0.0) == 1
    assert len(bounds) > 2 or budget == 1 << 20
    np.testing.assert_array_equal(eval_approximant(apx, pts), expected)


def _gram_eval(apx, points, chunk_entries=30_000_000):
    """The Gram-expansion evaluator kept as an oracle: r^2 from the squared
    norms minus 2 x.xi, clamped at zero, in blocks of up to 30M entries."""
    from surfspline.kernel import phi_from_r2

    out = apx.poly_eval(points)
    step = max(64, int(chunk_entries // apx.centers.shape[0]))
    for lo in range(0, points.shape[0], step):
        x = points[lo : lo + step]
        r2 = (
            np.sum(x * x, axis=1)[:, None]
            + np.sum(apx.centers**2, axis=1)[None, :]
            - 2.0 * (x @ apx.centers.T)
        )
        np.maximum(r2, 0.0, out=r2)
        out[lo : lo + x.shape[0]] += phi_from_r2(apx.params, r2) @ apx.coefficients
    return out


@pytest.mark.parametrize("nu", [None, 2.0])
def test_eval_approximant_matches_gram_oracle(disk, nu):
    # the kernel sum cancels heavily, so the gap is measured against the
    # absolute sum it rounds: 1e-14 of sum_xi |A_xi| |phi(x - xi)|
    from surfspline.geometry import oversample_boundary
    from surfspline.kernel import phi_from_r2

    centers = generate_centers(disk, 0.1, seed=0)
    if nu is not None:
        centers = oversample_boundary(disk, centers, 0.1, nu, 2)
    apx = assemble_TXi(named_target("wave", 2), centers, scheme_grids(disk, 0.1, nu=nu))
    probes = probe_points(disk, 64, 0.0)
    mass = np.concatenate([
        np.abs(phi_from_r2(apx.params, np.sum((p[:, None] - apx.centers) ** 2, axis=-1)))
        @ np.abs(apx.coefficients)
        for p in np.array_split(probes, 16)
    ])
    gap = np.abs(eval_approximant(apx, probes) - _gram_eval(apx, probes))
    assert np.all(gap <= 1e-14 * mass)


def test_bulk_kernel_blocks_stay_tile_sized(disk, params2, monkeypatch):
    # no block of the approximant's kernel sum or of compute_Nj's potential
    # sums may exceed two tiles' worth of entries (a tile is at least 8 rows)
    from surfspline import kernel, layerpot, scheme
    from surfspline.dirichlet import compute_Nj

    blocks = []
    phi_matrix = scheme._phi_matrix

    def recording_phi_matrix(params, x, xi, *args):
        blocks.append((x.shape[0], xi.shape[0]))
        return phi_matrix(params, x, xi, *args)

    class RecordingGeometry(layerpot.PairGeometry):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            blocks.append(self.r.shape)

    monkeypatch.setattr(scheme, "_phi_matrix", recording_phi_matrix)
    monkeypatch.setattr(layerpot, "PairGeometry", RecordingGeometry)
    probes = probe_points(disk, 256, 0.0)
    centers = generate_centers(disk, 0.08, seed=0).points
    assert (len(probes), len(centers)) == (51_040, 221)
    apx = Approximant(
        params=params2,
        centers=centers,
        coefficients=np.random.default_rng(0).standard_normal(len(centers)),
        basis=PolyBasis.for_spline_order(2),
        poly_coeffs=np.zeros(3),
    )
    eval_approximant(apx, probes)
    assert sum(r for r, _ in blocks) == len(probes)
    n_eval = len(blocks)
    compute_Nj(params2, BoundaryGrid.build(disk, 80), named_target("wave", 2))
    assert len(blocks) > n_eval
    for rows, sources in blocks:
        assert rows * sources <= 2 * max(kernel.TILE_ENTRIES, 8 * sources)


def test_eval_approximant_degenerate_center_sets(params2, rng):
    basis = PolyBasis.for_spline_order(2)
    poly_only = Approximant(
        params=params2,
        centers=np.zeros((0, 2)),
        coefficients=np.zeros(0),
        basis=basis,
        poly_coeffs=np.array([1.0, 2.0, -1.0]),
        diagnostics={},
    )
    pts = rng.uniform(-1, 1, size=(9, 2))
    np.testing.assert_allclose(
        eval_approximant(poly_only, pts), 1 + 2 * pts[:, 0] - pts[:, 1], atol=1e-14
    )
    single = Approximant(
        params=params2,
        centers=np.array([[0.3, -0.2]]),
        coefficients=np.array([2.0]),
        basis=basis,
        poly_coeffs=np.zeros(3),
        diagnostics={},
    )
    from surfspline.kernel import phi_from_r2

    np.testing.assert_allclose(
        eval_approximant(single, pts),
        2.0 * phi_from_r2(params2, np.sum((pts - np.array([0.3, -0.2])) ** 2, axis=-1)),
        rtol=1e-13,
    )


# ---------------------------------------------------------------------------
# extension field
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gauss_extension(disk):
    grids = scheme_grids(disk, 0.15, n_solver=128)
    params = SplineParams(2, 2)
    return ExtensionField(params, grids, named_target("gauss", 2))


def test_extension_matches_target_inside(gauss_extension, rng):
    f = named_target("gauss", 2)
    pts = rng.uniform(-0.55, 0.55, size=(10, 2))
    vals = gauss_extension.evaluate(pts)
    assert np.max(np.abs(vals - f(pts))) < 1e-7


def test_extension_continuity_across_boundary(gauss_extension, monkeypatch):
    from surfspline import scheme

    monkeypatch.setattr(scheme, "_CONTINUITY_PROBES", 8)
    assert extension_continuity(gauss_extension) < 1e-4


@pytest.mark.parametrize("name", ["gauss", "wave", "quartic"])
def test_extension_continuity_evaluates_each_side_once_bitwise(disk, name, monkeypatch):
    # one evaluation per side over all offsets and probes, equal at every
    # point to the per-offset evaluations it replaces
    from surfspline.layerpot import _neville_limit

    ext = ExtensionField(SplineParams(2, 2), scheme_grids(disk, 0.15, n_solver=128),
                         named_target(name, 2))
    evaluate = ext.evaluate
    seen = []

    def recording(pts):
        seen.append((pts, evaluate(pts)))
        return seen[-1][1]

    monkeypatch.setattr(ext, "evaluate", recording)
    gap = extension_continuity(ext)
    assert len(seen) == 2
    t = 2 * np.pi * np.arange(12) / 12 + 0.391
    base, nrm = disk.point(t), disk.normal(t)
    deltas = 0.02 * disk.diameter() / 2.0 ** np.arange(5)
    limits = []
    for (pts, vals), sgn in zip(seen, (-1.0, 1.0)):
        offsets = [base + sgn * d * nrm for d in deltas]
        np.testing.assert_array_equal(pts, np.concatenate(offsets))
        per_offset = np.stack([evaluate(x) for x in offsets])
        np.testing.assert_array_equal(vals, per_offset.ravel())
        limits.append(_neville_limit(deltas, per_offset)[0])
    assert gap == float(np.max(np.abs(limits[0] - limits[1])))


def test_one_layer_potential_call_per_point_set(gauss_extension, disk, params2, monkeypatch):
    # one ExtensionField evaluation makes one layer-potential call per side,
    # so each point's distance is measured once, in its call; a call builds
    # each upsampled grid once and one pair geometry per tile, shared by
    # every order.  A Dirichlet evaluation and a Green's representation make
    # one call each
    from surfspline import dirichlet, geometry, layerpot, scheme

    calls, distances, builds, geometry_rows = [], [], [], []
    layer_potential, signed_distance = layerpot.layer_potential, geometry.signed_distance
    build = geometry.BoundaryGrid.build.__func__

    def counting_distance(curve, points):
        distances.append(len(points))
        return signed_distance(curve, points)

    def recording_layer_potential(params, slots, grid, densities, points):
        calls.append(len(points))
        builds.append([])
        return layer_potential(params, slots, grid, densities, points)

    def recording_build(cls, curve, n):
        if builds:
            builds[-1].append(n)
        return build(cls, curve, n)

    class RecordingGeometry(layerpot.PairGeometry):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            geometry_rows.append(self.r.shape[0])

    for module in (scheme, dirichlet):
        monkeypatch.setattr(module, "layer_potential", recording_layer_potential)
    monkeypatch.setattr(layerpot, "signed_distance", counting_distance)
    monkeypatch.setattr(geometry.BoundaryGrid, "build", classmethod(recording_build))
    monkeypatch.setattr(layerpot, "PairGeometry", RecordingGeometry)
    t = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
    radii = np.repeat([0.3, 0.99, 1.01, 2.5], 10)
    pts = radii[:, None] * np.stack([np.cos(t), np.sin(t)], axis=-1)
    gauss_extension.evaluate(pts)
    assert calls == [20, 20] and sum(distances) == 40
    assert all(len(ns) == len(set(ns)) > 0 for ns in builds)
    assert sum(geometry_rows) == sum(calls)

    for run in (
        lambda: gauss_extension.solution.evaluate(pts[:20]),
        lambda: greens_representation(params2, disk, named_target("gauss", 2), 64, 16, pts[:20]),
    ):
        calls.clear()
        run()
        assert calls == [20]


def test_extension_outside_paths_agree(gauss_extension):
    # outside the domain the volume term is evaluated through the boundary
    # identity alone; the interior rule summed against the now smooth
    # kernel is an independent oracle for it, just outside and far away.
    # The volume term is the convolution part less the N_j potentials
    from surfspline.kernel import phi_from_r2
    from surfspline.layerpot import layer_potential

    ext = gauss_extension
    quad = ext.grids.quadrature
    source = quad.weights * ext.f.m_laplacian(quad.nodes)
    direction = np.array([np.cos(0.7), np.sin(0.7)])

    def interior_rule(x):
        return phi_from_r2(ext.params, np.sum((x - quad.nodes) ** 2, axis=1)) @ source

    def volume_term(x):
        m, g = ext.params.m, ext.grids.boundary
        rows = layer_potential(ext.params, range(m), g, ext.nj_rows, x[None])
        return ext.convolution_part(x[None])[0] - sum(rows)[0]

    p_near = (1.0 + 0.8 * 0.12) * direction
    assert volume_term(p_near) == pytest.approx(interior_rule(p_near), abs=2e-6)
    for r in (1.5, 3.0, 10.0):
        x = r * direction
        assert volume_term(x) == pytest.approx(interior_rule(x), rel=1e-11)


@pytest.mark.parametrize("on_ellipse", [False, True], ids=["disk", "ellipse"])
def test_extension_matches_the_two_call_formula(gauss_extension, on_ellipse):
    # the oracle sorts the points by signed distance, takes the volume term
    # (the interior rule inside, minus the full-trace potentials outside)
    # and adds the N_j potentials of every point from a second call; one
    # call per side agrees with it to rounding, on a ring through both sides
    from surfspline.geometry import signed_distance
    from surfspline.layerpot import layer_potential
    from surfspline.scheme import _full_traces

    ext = gauss_extension
    if on_ellipse:
        grids = scheme_grids(ellipse(1.5, 1.0), 0.2, n_solver=128)
        ext = ExtensionField(SplineParams(2, 2), grids, named_target("gauss", 2))
    params, curve, g = ext.params, ext.grids.curve, ext.grids.boundary
    t = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)
    pts = np.concatenate([s * curve.point(t) for s in (0.5, 0.95, 1.05, 2.0)])
    inside = signed_distance(curve, pts) < 0.0
    oracle = np.empty(pts.shape[0])
    oracle[inside] = volume_potential(params, curve, ext.f.m_laplacian, pts[inside], ext.level)
    slots, traces = _full_traces(params.m, g, ext.f)
    oracle[~inside] = -sum(layer_potential(params, slots, g, traces, pts[~inside]))
    for row in layer_potential(params, range(params.m), g, ext.nj_rows, pts):
        oracle += row
    oracle += ext.solution.poly_eval(pts)
    vals = ext.evaluate(pts)
    assert np.all(inside == curve.is_inside(pts))
    assert np.max(np.abs(vals - oracle) / np.abs(oracle)) < 1e-13


def test_extension_convolution_part_subpolynomial(gauss_extension):
    # after removing the polynomial the field grows slower than any positive
    # power: compare two distant radii along a fixed ray
    direction = np.array([np.cos(0.3), np.sin(0.3)])
    v10 = abs(gauss_extension.convolution_part(10.0 * direction[None])[0])
    v100 = abs(gauss_extension.convolution_part(100.0 * direction[None])[0])
    slope = np.log(v100 / v10) / np.log(10.0)
    assert slope < 0.6


def test_extension_reproduces_a_cubic_inside(disk):
    grids = scheme_grids(disk, 0.2, n_solver=128)
    f = named_target("cubicmix", 2)
    val = ExtensionField(SplineParams(2, 2), grids, f).evaluate([[0.2, 0.3]])[0]
    assert val == pytest.approx(0.2**2 * 0.3, abs=1e-6)


def test_annihilation_check_small(disk):
    grids = scheme_grids(disk, 0.1)
    ext = ExtensionField(SplineParams(2, 2), grids, named_target("expx", 2))
    assert annihilation_check(ext) < 1e-6


# ---------------------------------------------------------------------------
# error-kernel diagnostics (structure; decay exponents live in acceptance)
# ---------------------------------------------------------------------------


def test_error_kernel_norms_structure(disk, params2, monkeypatch):
    from surfspline import scheme

    monkeypatch.setattr(scheme, "_KERNEL_PROBE_GRID", 24)
    cs = generate_centers(disk, 0.2, seed=0)
    out = error_kernel_norms(params2, disk, cs)
    assert set(out) == {"interior", "boundary"}
    assert set(out["boundary"]) == {0, 1}
    assert 0 < out["interior"] < 1.0
    assert all(v > 0 for v in out["boundary"].values())


def test_error_kernel_norms_has_every_boundary_order(disk):
    # one boundary kernel per order j = 0 .. m-1, not only j = 0, 1
    cs = generate_centers(disk, 0.1, seed=0)
    out = error_kernel_norms(SplineParams(3, 2), disk, cs, M=4)
    assert set(out["boundary"]) == {0, 1, 2}
    assert np.isfinite(out["interior"])
    assert all(np.isfinite(v) for v in out["boundary"].values())


def _whole_block_error_kernel_norms(params, curve, centers):
    """``error_kernel_norms`` as it formed its blocks before the probe tiles:
    the centers' kernel against all probes, and the boundary kernels of all
    probes, each as one block."""
    from surfspline import scheme
    from surfspline.kernel import boundary_kernel
    from surfspline.lpr import (
        GAMMA_BOUNDARY_DEFAULT,
        boundary_reproduction_matrix,
        interior_reproduction_matrix,
    )

    M, X, h = 2 * params.m, centers.points, centers.target_h
    max_radius = 1.5 * curve.diameter()
    bg = BoundaryGrid.build(curve, max(64, int(np.ceil(curve.arclength() / (0.5 * h))) // 2 * 2))
    depths = h * np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    depths = depths[depths < 0.45 * curve.reach_estimate()]
    probes = np.concatenate(
        [probe_points(curve, 48, 0.02)] + [bg.points - t * bg.normals for t in depths]
    )
    quad = interior_quadrature(curve, max(16, int(np.ceil(curve.diameter() / h))))
    A, _, _ = interior_reproduction_matrix(quad.nodes, X, h, M, max_radius=max_radius)
    phi_Xp = scheme._phi_matrix(params, X, probes)
    exact = scheme._phi_matrix(params, quad.nodes, probes) - A @ phi_Xp
    out = {"interior": float(np.max(quad.weights @ np.abs(exact))), "boundary": {}}
    for j in (0, 1):
        B, _, _ = boundary_reproduction_matrix(
            j, bg.points, bg.normals, X, h, M,
            gamma=GAMMA_BOUNDARY_DEFAULT, max_radius=max_radius,
        )
        exact = boundary_kernel(
            params, j, probes[:, None, :], bg.points[None, :, :], bg.normals[None, :, :]
        )
        out["boundary"][j] = float(np.max(np.abs(exact - (B @ phi_Xp).T) @ bg.weights))
    return out


def test_error_kernel_norms_match_whole_blocks_in_tile_sized_blocks(disk, params2, monkeypatch):
    from surfspline import kernel, scheme

    cs = generate_centers(disk, 0.1, seed=0)
    ref = _whole_block_error_kernel_norms(params2, disk, cs)
    blocks = []
    phi_matrix, kernel_fn = scheme._phi_matrix, scheme.boundary_kernel

    def recording_phi_matrix(params, x, xi, *args):
        blocks.append((x.shape[0], xi.shape[0]))
        return phi_matrix(params, x, xi, *args)

    def recording_boundary_kernel(params, j, x, alpha, n_alpha):
        out = kernel_fn(params, j, x, alpha, n_alpha)
        blocks.append(out.shape)
        return out

    monkeypatch.setattr(scheme, "_phi_matrix", recording_phi_matrix)
    monkeypatch.setattr(scheme, "boundary_kernel", recording_boundary_kernel)
    out = error_kernel_norms(params2, disk, cs)
    assert out["interior"] == pytest.approx(ref["interior"], rel=1e-13, abs=0)
    for j in (0, 1):
        assert out["boundary"][j] == pytest.approx(ref["boundary"][j], rel=1e-13, abs=0)
    # the centers-by-probes block, 147 x 1,975 here, comes in several tiles
    assert sum(rows == len(cs.points) for rows, _ in blocks) > 2
    for rows, sources in blocks:
        assert rows * sources <= 2 * max(kernel.TILE_ENTRIES, 8 * sources)


def test_assembly_and_error_kernels_share_the_reproduction_rule(disk, params2, monkeypatch):
    # on an oversampled set both build the boundary reproductions at the
    # boundary spacing h^nu with the interior prefactor, as the scheme uses them
    from surfspline import scheme
    from surfspline.geometry import oversample_boundary
    from surfspline.lpr import GAMMA_DEFAULT

    cs = oversample_boundary(disk, generate_centers(disk, 0.2), 0.2, 2, 2)
    seen = []
    real = scheme.boundary_reproduction_matrix

    def recording(j, anchors, normals, centers, h_local, M, **kwargs):
        seen.append((h_local, kwargs["gamma"]))
        return real(j, anchors, normals, centers, h_local, M, **kwargs)

    monkeypatch.setattr(scheme, "boundary_reproduction_matrix", recording)
    assemble_TXi(named_target("wave", 2), cs, scheme_grids(disk, 0.2, nu=2.0, n_solver=64))
    from_assembly = set(seen)
    seen.clear()
    error_kernel_norms(params2, disk, cs)
    assert set(seen) == from_assembly == {(cs.boundary_spacing, GAMMA_DEFAULT)}


def test_boundary_support_is_local(disk):
    # M = 4, Gamma = 0.5: nominal boundary support radius 8h
    assert not boundary_support_is_local(disk, 0.2, 4)
    assert boundary_support_is_local(disk, 0.1, 4)
    # the ellipse's inradius is 1, but its reach estimate 1/1.5 decides
    ell = ellipse(1.5, 1.0)
    assert ell.reach_estimate() == pytest.approx(1 / 1.5, rel=1e-6)
    assert not boundary_support_is_local(ell, 0.09, 4)
    assert boundary_support_is_local(ell, 0.08, 4)
