"""Domain curves, signed distance, center generation, boundary grids."""

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from surfspline import geometry
from surfspline.cli import main
from surfspline.errors import (
    DensityUnreachableError,
    ProjectionFailureError,
    ReachViolationError,
    StarShapeError,
)
from surfspline.geometry import (
    BoundaryGrid,
    DomainCurve,
    _ball_query,
    _nearest_distance,
    circle,
    curve_from_spec,
    ellipse,
    fill_distance,
    generate_centers,
    oversample_boundary,
    signed_distance,
    star,
)

# ---------------------------------------------------------------------------
# signed distance
# ---------------------------------------------------------------------------


def test_signed_distance_circle_values(disk):
    rho = signed_distance(disk, np.array([[0.5, 0.0], [2.0, 0.0], [0.0, 0.0]]))
    np.testing.assert_allclose(rho, [-0.5, 1.0, -1.0], atol=1e-12)


def test_signed_distance_ellipse_vs_dense_sweep(ell21, rng):
    # oracle: brute-force minimum over a dense parameter sampling of the curve
    pts = rng.uniform(-2.5, 2.5, size=(40, 2))
    t = 2 * np.pi * np.arange(1 << 17) / (1 << 17)
    g = ell21.point(t)
    d = np.sqrt(
        (pts[:, None, 0] - g[None, :, 0]) ** 2 + (pts[:, None, 1] - g[None, :, 1]) ** 2
    ).min(axis=1)
    sign = np.where(ell21.is_inside(pts), -1.0, 1.0)
    rho = signed_distance(ell21, pts)
    np.testing.assert_allclose(rho, sign * d, atol=1e-6)


def test_signed_distance_refuses_a_velocity_that_disagrees_with_the_points():
    # the unit circle's points with a constant velocity (1, 0): Newton's
    # stationarity condition has no root near the point's foot, so the
    # coarse start is restarted from the fine sweep and still fails
    sizes = []

    def point(t):
        sizes.append(t.size)
        return np.cos(t), np.sin(t)

    curve = DomainCurve(
        "circle with a wrong velocity",
        point,
        lambda t: (np.ones_like(t), np.zeros_like(t)),
        lambda t: (np.zeros_like(t), np.zeros_like(t)),
        lambda psi: np.ones_like(psi),
    )
    with pytest.raises(ProjectionFailureError):
        signed_distance(curve, np.array([[2.0, 0.5]]))
    assert 512 in sizes  # the fine sweep ran


def test_signed_distance_foot_point(ell21, rng):
    pts = rng.uniform(-1.8, 1.8, size=(25, 2))
    rho, t = signed_distance(ell21, pts, return_foot=True)
    foot = ell21.point(t)
    dist = np.linalg.norm(pts - foot, axis=1)
    np.testing.assert_allclose(dist, np.abs(rho), atol=1e-9)
    # displacement from the foot is along the outward normal, signed by rho
    proj = np.sum((pts - foot) * ell21.normal(t), axis=1)
    np.testing.assert_allclose(proj, rho, atol=1e-9)


@given(
    psi=st.floats(0.0, 2 * np.pi),
    which=st.sampled_from(["disk", "ellipse:2,1", "star:0.15,5"]),
)
def test_polar_radius_separates_inside_outside(psi, which):
    curve = curve_from_spec(which)
    r = float(curve.polar_radius(np.asarray(psi)))
    inner = 0.98 * r * np.array([np.cos(psi), np.sin(psi)])
    outer = 1.02 * r * np.array([np.cos(psi), np.sin(psi)])
    assert curve.is_inside(inner[None])[0]
    assert not curve.is_inside(outer[None])[0]


# ---------------------------------------------------------------------------
# neighbour search, against scipy's KD-tree as the oracle
# ---------------------------------------------------------------------------


def _balls(counts, flat):
    return np.split(flat, np.cumsum(counts)[:-1])


def _assert_balls_match_kdtree(points, queries, radius):
    counts, flat = _ball_query(points, queries, radius)
    assert counts.shape == (len(queries),) and flat.size == counts.sum()
    expected = cKDTree(points).query_ball_point(queries, radius)
    for q, (ball, want) in enumerate(zip(_balls(counts, flat), expected)):
        assert sorted(ball.tolist()) == sorted(want), f"query {q}"


def _point_sets(draw_seed, kind, n, scale):
    rng = np.random.default_rng(draw_seed)
    if kind == "uniform":
        return scale * rng.uniform(-1.0, 1.0, size=(n, 2)), rng
    side = int(np.ceil(np.sqrt(n)))
    lattice = np.stack(np.meshgrid(np.arange(side), np.arange(side)), -1).reshape(-1, 2)
    return scale * (lattice[:n] + rng.uniform(-0.3, 0.3, size=(n, 2))) / side, rng


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["uniform", "jittered-lattice"]),
    n=st.integers(1, 400),
    n_queries=st.integers(1, 200),
    scale=st.sampled_from([1e-3, 1.0, 50.0]),
    radius=st.floats(1e-4, 2.5),
)
def test_ball_query_matches_kdtree(seed, kind, n, n_queries, scale, radius):
    points, rng = _point_sets(seed, kind, n, scale)
    # queries reach past the points' bounding box on every side
    queries = 1.5 * scale * rng.uniform(-1.0, 1.0, size=(n_queries, 2))
    _assert_balls_match_kdtree(points, queries, radius * scale)


@pytest.mark.parametrize("radius", [1.0, 2.0, 3.0, 5.0])
def test_ball_query_counts_exact_ties_on_an_integer_lattice(radius):
    # every squared distance and the squared radius are exact integers, so
    # the points at distance exactly ``radius`` are in, as the KD-tree has it
    lattice = np.stack(np.meshgrid(np.arange(12.0), np.arange(12.0)), -1).reshape(-1, 2)
    _assert_balls_match_kdtree(lattice, lattice, radius)
    _assert_balls_match_kdtree(lattice, lattice + 0.5, radius)
    counts, _ = _ball_query(lattice, np.array([[6.0, 6.0]]), radius)
    inside = sum(1 for i in range(-5, 6) for j in range(-5, 6) if i * i + j * j <= radius**2)
    assert counts[0] == inside


def test_ball_query_handles_empty_balls_and_far_queries():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    queries = np.array([[0.5, 0.5], [50.0, -50.0], [-1e6, 3.0], [1.0, -0.5], [2.0, 0.0]])
    counts, flat = _ball_query(points, queries, 0.6)
    np.testing.assert_array_equal(counts, [0, 0, 0, 1, 0])
    np.testing.assert_array_equal(flat, [1])
    _assert_balls_match_kdtree(points, queries, 1.2)
    counts, flat = _ball_query(points, queries[1:3], 1e-3)
    assert counts.tolist() == [0, 0] and flat.size == 0
    # a single point, and no queries at all
    _assert_balls_match_kdtree(points[:1], queries, 1.0)
    counts, flat = _ball_query(points, np.empty((0, 2)), 1.0)
    assert counts.size == 0 and flat.size == 0


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["uniform", "jittered-lattice"]),
    n=st.integers(1, 400),
    n_queries=st.integers(1, 300),
    scale=st.sampled_from([1e-3, 1.0, 50.0]),
)
def test_nearest_distance_is_bitwise_the_kdtree_distance(seed, kind, n, n_queries, scale):
    points, rng = _point_sets(seed, kind, n, scale)
    queries = np.concatenate([
        1.2 * scale * rng.uniform(-1.0, 1.0, size=(n_queries, 2)),
        points[: n_queries // 4],
        [[40.0 * scale, -70.0 * scale]],
    ])
    np.testing.assert_array_equal(
        _nearest_distance(points, queries), cKDTree(points).query(queries)[0]
    )


def test_nearest_distance_on_a_lattice_and_to_a_single_point():
    lattice = np.stack(np.meshgrid(np.arange(9.0), np.arange(9.0)), -1).reshape(-1, 2)
    queries = np.array([[0.5, 0.5], [4.0, 4.0], [-3.0, 12.0], [100.0, 100.0]])
    np.testing.assert_array_equal(
        _nearest_distance(lattice, queries), cKDTree(lattice).query(queries)[0]
    )
    origin = np.zeros((1, 2))
    np.testing.assert_array_equal(
        _nearest_distance(origin, queries), cKDTree(origin).query(queries)[0]
    )
    np.testing.assert_array_equal(_nearest_distance(origin, origin), [0.0])


@pytest.mark.parametrize("budget, block", [(1, 1), (7, 3), (1 << 18, 4096)])
def test_a_balls_order_does_not_depend_on_its_batch(monkeypatch, rng, budget, block):
    # the order of a ball's indices is fixed by the points, the radius and
    # the query; chunks of one query, or of many, do not move it
    centers = generate_centers(circle(1.0), 0.05, seed=0).points
    queries = rng.uniform(-1.0, 1.0, size=(60, 2))
    counts, flat = _ball_query(centers, queries, 0.4)
    monkeypatch.setattr(geometry, "_CANDIDATE_BUDGET", budget)
    monkeypatch.setattr(geometry, "_QUERY_BLOCK", block)
    for q in (0, 17, 59):
        alone_counts, alone = _ball_query(centers, queries[q:q + 1], 0.4)
        assert alone_counts[0] == counts[q]
        np.testing.assert_array_equal(alone, _balls(counts, flat)[q])
    batched_counts, batched = _ball_query(centers, queries[::-1], 0.4)
    for a, b in zip(_balls(batched_counts, batched), _balls(counts, flat)[::-1]):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# fill distance
# ---------------------------------------------------------------------------


def test_fill_distance_single_center(disk):
    # one point at the origin: the farthest domain point is the boundary
    assert fill_distance(np.zeros((1, 2)), disk) == pytest.approx(1.0, rel=0.02)


def test_fill_distance_hexagonal_lattice(disk):
    # a hexagonal lattice of spacing s extending past the boundary fills the
    # disk at the covering radius s / sqrt(3)
    s = 0.15
    rows = np.arange(-12, 13)
    pts = []
    for j in rows:
        x = np.arange(-12, 13) * s + (s / 2 if j % 2 else 0.0)
        y = np.full_like(x, j * s * np.sqrt(3) / 2)
        pts.append(np.column_stack([x, y]))
    pts = np.concatenate(pts)
    pts = pts[np.linalg.norm(pts, axis=1) < 1.0 + 3 * s]
    assert fill_distance(pts, disk) == pytest.approx(s / np.sqrt(3), rel=0.03)


def test_fill_distance_monotone_under_refinement(disk, rng):
    pts = rng.uniform(-0.7, 0.7, size=(60, 2))
    pts = pts[disk.is_inside(pts)]
    extra = rng.uniform(-0.7, 0.7, size=(120, 2))
    extra = extra[disk.is_inside(extra)]
    h_small = fill_distance(np.vstack([pts, extra]), disk)
    assert h_small <= fill_distance(pts, disk) * 1.01


# ---------------------------------------------------------------------------
# center generation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("h", [0.2, 0.1, 0.05])
def test_generate_centers_fill_band(disk, h):
    cs = generate_centers(disk, h, seed=0)
    assert h <= cs.fill <= 2 * h
    separation = np.min(cKDTree(cs.points).query(cs.points, k=2)[0][:, 1])
    assert 0.5 * h <= separation <= 1.2 * h
    assert 1.0 <= len(cs) * h * h <= 2.2  # density matches the unit-disk area


def test_generate_centers_strictly_interior(disk):
    cs = generate_centers(disk, 0.1, seed=3)
    assert np.all(signed_distance(disk, cs.points) < 0)


def test_generate_centers_deterministic(ell21):
    a = generate_centers(ell21, 0.15, seed=7)
    b = generate_centers(ell21, 0.15, seed=7)
    np.testing.assert_array_equal(a.points, b.points)
    c = generate_centers(ell21, 0.15, seed=8)
    assert a.points.shape != c.points.shape or not np.array_equal(a.points, c.points)


def test_generate_centers_rejects_oversized_h(disk):
    with pytest.raises(DensityUnreachableError):
        generate_centers(disk, 5.0)


def test_center_set_csv_roundtrip(disk, tmp_path):
    # the center CSV is written by `approximate --centers`, from the same
    # seeded lattice that generate_centers builds
    cs = generate_centers(disk, 0.2, seed=0)
    path = tmp_path / "centers.csv"
    argv = ["approximate", "--curve", "disk", "--h", "0.2", "--n", "64"]
    assert main([*argv, "--output", str(tmp_path / "apx.csv"), "--centers", str(path)]) == 0
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    assert header == "x,y"
    points = np.array([[float(v) for v in row.split(",")] for row in rows])
    # every bit of every coordinate survives the text
    np.testing.assert_array_equal(points, cs.points)
    assert fill_distance(points, disk) == pytest.approx(cs.fill, rel=0.05)


# ---------------------------------------------------------------------------
# boundary oversampling
# ---------------------------------------------------------------------------


def test_oversample_layer_depths(disk):
    # nu = 2, m = 2, h = 0.1: five layers at depths h^2 * {1/2, 1, 2, 3, 4}
    base = generate_centers(disk, 0.1, seed=0)
    ov = oversample_boundary(disk, base, 0.1, 2.0, 2)
    # the base points come first and unchanged, then the layers
    np.testing.assert_array_equal(ov.points[: len(base)], base.points)
    assert ov.boundary_spacing == pytest.approx(0.01)
    added = ov.points[len(base) :]
    n_layer = len(added) // 5
    assert len(added) == 5 * n_layer
    rho = signed_distance(disk, added)
    depths = -rho.reshape(5, n_layer)
    expected = np.array([0.005, 0.01, 0.02, 0.03, 0.04])
    np.testing.assert_allclose(depths.mean(axis=1), expected, rtol=1e-10)
    assert depths.std(axis=1).max() < 1e-12  # exact depth along each layer


def _boundary_zone_fill(centers, curve, depth):
    """Fill distance restricted to the inner tube {0 <= -rho <= depth}."""
    nb = max(512, int(np.ceil(curve.arclength() / (0.2 * depth))))
    t = 2 * np.pi * np.arange(nb) / nb
    gpts = curve.point(t)
    nrm = curve.normal(t)
    ds = np.linspace(0.0, depth, 9)
    samples = np.concatenate([gpts - d * nrm for d in ds], axis=0)
    return float(np.max(cKDTree(centers.points).query(samples)[0]))


def test_oversample_zone_fill(disk):
    base = generate_centers(disk, 0.1, seed=0)
    ov = oversample_boundary(disk, base, 0.1, 2.0, 2)
    assert _boundary_zone_fill(ov, disk, 0.04) <= 0.01


def test_oversample_cardinality_nu1(disk):
    base = generate_centers(disk, 0.1, seed=0)
    ov = oversample_boundary(disk, base, 0.1, 1.0, 2)
    n_added = len(ov) - len(base)
    per_layer = disk.arclength() / 0.1
    assert 5 * per_layer <= n_added <= 5 * (per_layer + 2)


def test_oversample_reach_violation(ell21):
    base = generate_centers(ell21, 0.5, seed=0)
    with pytest.raises(ReachViolationError):
        oversample_boundary(ell21, base, 0.5, 2.0, 2)


def test_oversample_rejects_nu_below_one(disk):
    base = generate_centers(disk, 0.2, seed=0)
    with pytest.raises(ValueError):
        oversample_boundary(disk, base, 0.2, 0.5, 2)


# ---------------------------------------------------------------------------
# boundary grids and curve parsing
# ---------------------------------------------------------------------------


def test_boundary_grid_perimeter(ell21):
    # periodic trapezoid weights integrate arclength spectrally; oracle is the
    # complete elliptic integral, perimeter = 4 a E(1 - b^2/a^2)
    grid = BoundaryGrid.build(ell21, 128)
    oracle = 8.0 * scipy.special.ellipe(0.75)
    assert np.sum(grid.weights) == pytest.approx(oracle, abs=1e-10)


def test_boundary_grid_moments(ell21):
    grid = BoundaryGrid.build(ell21, 128)
    fine = BoundaryGrid.build(ell21, 256)
    for f in (lambda p: p[:, 0], lambda p: p[:, 0] ** 2 * p[:, 1] ** 2):
        coarse_val = np.sum(grid.weights * f(grid.points))
        fine_val = np.sum(fine.weights * f(fine.points))
        assert coarse_val == pytest.approx(fine_val, abs=1e-12)
    assert np.sum(grid.weights * grid.points[:, 0]) == pytest.approx(0.0, abs=1e-12)


def test_boundary_grid_normals_unit_outward(ell21):
    grid = BoundaryGrid.build(ell21, 64)
    np.testing.assert_allclose(np.linalg.norm(grid.normals, axis=1), 1.0, atol=1e-14)
    # stepping outward along the normal leaves the domain
    outside = grid.points + 1e-3 * grid.normals
    assert not np.any(ell21.is_inside(outside))


@pytest.mark.parametrize("n", [2, 5])
def test_boundary_grid_rejects_bad_n(disk, n):
    with pytest.raises(ValueError):
        BoundaryGrid.build(disk, n)


def test_curve_from_spec_parsing():
    assert curve_from_spec("disk").name == "circle:1"
    assert curve_from_spec("circle:1.5").name == "circle:1.5"
    assert curve_from_spec("ellipse:2,1").name == "ellipse:2,1"
    assert curve_from_spec("star:0.15,5").name == "star:0.15,5"
    with pytest.raises(ValueError):
        curve_from_spec("square:1")
    with pytest.raises(ValueError):
        curve_from_spec("ellipse:2")
    with pytest.raises(ValueError):
        curve_from_spec("circle:1,2")


def test_reach_estimate_ellipse(ell21):
    # smallest curvature radius of an ellipse is b^2 / a at the flat ends
    assert ell21.reach_estimate() == pytest.approx(0.5, rel=1e-6)


def test_star_curve_consistency():
    s = star(0.15, 5)
    t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    p = s.point(t)
    r = np.linalg.norm(p, axis=1)
    np.testing.assert_allclose(r, 1 + 0.15 * np.cos(5 * t), atol=1e-14)
    # velocity matches a central difference in the parameter
    eps = 1e-6
    fd = (s.point(t + eps) - s.point(t - eps)) / (2 * eps)
    np.testing.assert_allclose(s.velocity(t), fd, atol=1e-8)


# ---------------------------------------------------------------------------
# ray casting
# ---------------------------------------------------------------------------


def _origins_at_depths(curve):
    """Interior points at depths 0 .. 0.97 of the polar radius, 7 angles each."""
    psi = np.tile(np.linspace(0.3, 2 * np.pi + 0.3, 7, endpoint=False), 5)
    depth = np.repeat([0.0, 0.3, 0.6, 0.9, 0.97], 7)
    r = depth * curve.polar_radius(psi)
    return np.stack([r * np.cos(psi), r * np.sin(psi)], axis=-1)


# at these tolerances the rays' last brackets are a few ulps wide, so origins
# whose rays are all short stop bisecting while the others run to the cap
@pytest.mark.parametrize(
    "spec, tol", [("circle:0.75", 2e-16), ("ellipse:1.5,1", 4e-16), ("star:0.15,5", 4e-16)]
)
def test_ray_exit_batch_equals_single_origins(spec, tol, monkeypatch):
    curve = curve_from_spec(spec)
    theta = 2 * np.pi * np.arange(96) / 96
    origins = _origins_at_depths(curve)
    for t in (1e-14, tol):
        monkeypatch.setattr(geometry, "_RAY_TOL", t)
        batch = curve.ray_exit(origins, theta)
        assert batch.shape == (len(origins), theta.size)
        single = [curve.ray_exit(o[None], theta)[0] for o in origins]
        assert single[0].shape == theta.shape
        np.testing.assert_array_equal(batch, np.stack(single))
    # every exit point lies on the curve
    q = origins[:, None, :] + batch[..., None] * np.stack([np.cos(theta), np.sin(theta)], -1)
    np.testing.assert_allclose(
        np.hypot(q[..., 0], q[..., 1]),
        curve.polar_radius(np.arctan2(q[..., 1], q[..., 0])),
        atol=1e-13,
    )
    # the batch above, at _RAY_TOL = tol, really mixes early stops with full runs
    calls = []
    polar_radius = curve.polar_radius
    monkeypatch.setattr(curve, "polar_radius", lambda psi: calls.append(0) or polar_radius(psi))
    steps = set()
    for o in origins:
        calls.clear()
        curve.ray_exit(o[None], theta)
        steps.add(len(calls))
    assert len(steps) > 1


@pytest.mark.parametrize("spec, a, b", [("circle:0.75", 0.75, 0.75), ("ellipse:1.5,1", 1.5, 1.0)])
def test_ray_exit_matches_the_closed_form_conic_exit(spec, a, b):
    # o + s e on x^2/a^2 + y^2/b^2 = 1 is the positive root of
    # A s^2 + B s + C = 0 with C < 0 inside, taken without cancellation
    curve = curve_from_spec(spec)
    theta = 2 * np.pi * np.arange(96) / 96
    origins = _origins_at_depths(curve)
    ex, ey = np.cos(theta), np.sin(theta)
    ox, oy = origins[:, :1], origins[:, 1:]
    A = ex**2 / a**2 + ey**2 / b**2
    B = 2 * (ox * ex / a**2 + oy * ey / b**2)
    C = ox**2 / a**2 + oy**2 / b**2 - 1
    root = np.sqrt(B**2 - 4 * A * C)
    exact = np.where(B > 0, -2 * C / (B + root), (root - B) / (2 * A))
    np.testing.assert_allclose(curve.ray_exit(origins, theta), exact, rtol=0, atol=1e-13)


def test_ray_exit_rejects_a_batch_with_one_outside_origin():
    curve = curve_from_spec("star:0.15,5")
    origins = _origins_at_depths(curve)
    theta = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    for row in (0, len(origins) // 2, len(origins) - 1):
        bad = origins.copy()
        bad[row] = [1.3, 0.2]
        with pytest.raises(StarShapeError):
            curve.ray_exit(bad, theta)
