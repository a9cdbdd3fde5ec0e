"""Fundamental-solution values, derivative kernels, and their symmetries."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from surfspline.errors import DomainValidityError, SingularEvaluationError
from surfspline.geometry import BoundaryGrid
from surfspline.kernel import (
    SINGULAR_TOL,
    TILE_ENTRIES,
    PairGeometry,
    PairPlan,
    SplineParams,
    _pair_diag,
    _pair_groups,
    boundary_kernel,
    fs_constant,
    iterated_laplacian_profile,
    pair_kernel,
    phi_from_r2,
    phi_profile,
    tiles,
)
from surfspline.layerpot import nystrom_matrix

C22 = 1.0 / (8.0 * np.pi)


def phi(params, x):
    """phi(x) at one point, from its squared distance to the origin."""
    x = np.asarray(x, dtype=float)
    return float(phi_from_r2(params, x @ x))


def test_phi_zero_on_unit_circle(params2):
    # r^2 log r vanishes at r = 1
    assert phi(params2, (1.0, 0.0)) == pytest.approx(0.0, abs=1e-15)


def test_phi_at_radius_e(params2):
    # at r = e the log equals 1, leaving C * e^2
    val = phi(params2, (np.e, 0.0))
    assert val == pytest.approx(C22 * np.e**2, rel=1e-14)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_fs_constant_equals_the_even_d_expression_bitwise(m):
    # the even-d expression at d = 2, in its operation order, is the oracle
    d = 2
    sign = (-1.0) ** (d // 2 + 1)
    oracle = sign / (
        2.0 ** (2 * m - 1)
        * math.pi ** (d / 2.0)
        * math.factorial(m - 1)
        * math.factorial(m - d // 2)
    )
    assert fs_constant(m) == oracle


@pytest.mark.parametrize("m", [2, 3])
def test_phi_from_r2_matches_profile(m, rng):
    params = SplineParams(m=m)
    r = rng.uniform(0.2, 2.0, size=50)
    r = r[np.abs(r - 1.0) > 0.05]  # near r = 1 the log vanishes and rtol means nothing
    # phi's profile has a log piece only
    reg, logc = phi_profile(params).eval_split(r, {2 * m - 2: r ** (2 * m - 2)})
    assert reg is None
    np.testing.assert_allclose(phi_from_r2(params, r * r), logc * np.log(r), rtol=1e-13)
    assert phi_from_r2(params, np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
    # scalars are accepted, and give the bits of the same entry of an array
    assert float(phi_from_r2(params, r[3] ** 2)) == phi_from_r2(params, r * r)[3]
    # the operation order (c * r2**p) * log(r2) is kept bit for bit
    r2 = np.concatenate([r * r, [0.0]])
    c = 0.5 * fs_constant(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        oracle = np.where(r2 > 0.0, c * r2 ** (m - 1) * np.log(r2), 0.0)
    np.testing.assert_array_equal(phi_from_r2(params, r2), oracle)
    # without scratch the input is left as it was; with it, r2 turns into the
    # values and the scratch takes log r2
    kept = r2.copy()
    phi_from_r2(params, r2)
    np.testing.assert_array_equal(r2, kept)
    scratch = np.empty_like(r2)
    assert phi_from_r2(params, r2, scratch) is r2
    np.testing.assert_array_equal(r2, oracle)
    with np.errstate(divide="ignore"):
        np.testing.assert_array_equal(scratch, np.log(kept))


@pytest.mark.parametrize(
    "n_rows, n_sources, entries",
    [(0, 10, None), (5, 10, None), (80, 2560, None), (300, 147, 1000),
     (300, 147, 56 * 147), (51_040, 221, None), (9, 16384, None)],
)
def test_tiles_cover_rows_in_steps_of_eight(n_rows, n_sources, entries, monkeypatch):
    from surfspline import kernel

    if entries is not None:
        monkeypatch.setattr(kernel, "TILE_ENTRIES", entries)
    bounds = list(tiles(n_rows, n_sources))
    budget = TILE_ENTRIES if entries is None else entries
    step = max(8, budget // n_sources // 8 * 8)
    assert [lo for lo, _ in bounds] == list(range(0, step * len(bounds), step))
    assert [hi for _, hi in bounds[:-1]] == [lo for lo, _ in bounds[1:]]
    if n_rows:
        # the ragged remainder joins the last full tile
        assert bounds[-1][1] == n_rows
        assert step <= bounds[-1][1] - bounds[-1][0] < 2 * step or len(bounds) == 1
    else:
        assert bounds == []


def test_singular_evaluation_raises(params2):
    # a pair kernel has no value at coincident points, nor closer than 1e-12
    for x in ((0.0, 0.0), (1e-14, 0.0)):
        with pytest.raises(SingularEvaluationError):
            boundary_kernel(params2, 0, np.array([x]), np.zeros(2), None)


@pytest.mark.parametrize("m,d", [(1, 2), (1, 3), (2, 5), (2, 3), (3, 4)])
def test_invalid_orders_rejected(m, d):
    with pytest.raises((ValueError, DomainValidityError)):
        SplineParams(m=m, d=d)


@given(
    angle=st.floats(0.0, 2 * np.pi),
    r=st.floats(0.05, 3.0),
    theta=st.floats(0.0, 2 * np.pi),
)
def test_phi_rotation_invariant(angle, r, theta):
    params = SplineParams(m=2, d=2)
    x = np.array([r * np.cos(theta), r * np.sin(theta)])
    c, s = np.cos(angle), np.sin(angle)
    rx = np.array([c * x[0] - s * x[1], s * x[0] + c * x[1]])
    assert phi(params, rx) == pytest.approx(phi(params, x), rel=1e-12, abs=1e-15)


def test_trace_kernel_is_phi(params2, rng):
    # order-0 boundary operator is plain point evaluation
    alpha = np.array([0.3, -0.4])
    n_alpha = np.array([0.6, 0.8])
    x = rng.uniform(-1, 1, size=(7, 2)) + np.array([2.0, 0.0])
    np.testing.assert_allclose(
        boundary_kernel(params2, 0, x, alpha, n_alpha),
        phi_from_r2(params2, np.sum((x - alpha) ** 2, axis=-1)),
        rtol=1e-14,
    )


def test_normal_derivative_kernel_closed_form(params2):
    # D_n in the second argument of phi(x - alpha), radial geometry:
    # the derivative of r^2 log r gives -C r (2 log r + 1)
    for r in (0.3, 0.7, 1.9):
        val = boundary_kernel(
            params2, 1, np.array([[r, 0.0]]), np.array([0.0, 0.0]), np.array([1.0, 0.0])
        )[0]
        assert val == pytest.approx(-C22 * r * (2 * np.log(r) + 1), rel=1e-12)


def test_normal_derivative_kernel_vs_finite_difference(params2, rng):
    # oracle: central difference of phi along the normal in the alpha slot
    step = 1e-5
    for _ in range(5):
        x = rng.uniform(0.5, 1.5, size=2)
        alpha = rng.uniform(-0.3, 0.3, size=2)
        t = rng.uniform(0, 2 * np.pi)
        n_alpha = np.array([np.cos(t), np.sin(t)])
        val = boundary_kernel(params2, 1, x[None], alpha, n_alpha)[0]
        fd = (
            phi(params2, x - (alpha + step * n_alpha))
            - phi(params2, x - (alpha - step * n_alpha))
        ) / (2 * step)
        assert val == pytest.approx(fd, rel=1e-7)


def test_laplacian_kernel_closed_form(params2, rng):
    # Laplacian of C r^2 log r is 4C (log r + 1), independent of direction
    for _ in range(5):
        x = rng.uniform(-2, 2, size=2)
        alpha = rng.uniform(-0.4, 0.4, size=2)
        r = np.linalg.norm(x - alpha)
        if r < 0.1:
            continue
        val = boundary_kernel(params2, 2, x[None], alpha, np.array([1.0, 0.0]))[0]
        assert val == pytest.approx(4 * C22 * (np.log(r) + 1), rel=1e-12)


def _pair(params, k, j, x, n_x, alpha, n_alpha):
    geom = PairGeometry(PairPlan(params, [(k, j)]), x, alpha, n_x, n_alpha)
    return geom.value(*pair_kernel(geom, k, j))


def test_pair_kernel_reduces_to_phi(params2):
    x = np.array([0.9, 0.1])
    alpha = np.array([0.2, -0.3])
    n = np.array([1.0, 0.0])
    val = _pair(params2, 0, 0, x[None], n, alpha, n)
    assert np.ravel(val)[0] == pytest.approx(phi(params2, x - alpha), rel=1e-14)


def test_pair_kernel_mixed_normals_vs_finite_difference(params2):
    # nested central differences of phi(x + s n_x - alpha - t n_alpha)
    x = np.array([0.5, 0.0])
    alpha = np.array([0.0, 0.0])
    n_x = np.array([np.cos(0.4), np.sin(0.4)])
    n_alpha = np.array([np.cos(2.1), np.sin(2.1)])
    eps = 1e-4
    g = lambda s, t: phi(params2, x + s * n_x - alpha - t * n_alpha)
    fd = (g(eps, eps) - g(eps, -eps) - g(-eps, eps) + g(-eps, -eps)) / (4 * eps**2)
    val = np.ravel(_pair(params2, 1, 1, x[None], n_x, alpha, n_alpha))[0]
    assert val == pytest.approx(fd, rel=1e-6)


@given(
    kj=st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0)]),
    seed=st.integers(0, 1000),
)
def test_pair_kernel_swap_symmetry(kj, seed):
    # the kernel of op_k V_j transposes into that of op_j V_k
    params = SplineParams(m=2, d=2)
    k, j = kj
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=2)
    alpha = x + rng.uniform(0.3, 1.0) * _unit(rng)
    n_x, n_alpha = _unit(rng), _unit(rng)
    a = np.ravel(_pair(params, k, j, x[None], n_x, alpha, n_alpha))[0]
    b = np.ravel(_pair(params, j, k, alpha[None], n_alpha, x, n_x))[0]
    assert a == pytest.approx(b, rel=1e-12, abs=1e-14)


def _unit(rng):
    t = rng.uniform(0, 2 * np.pi)
    return np.array([np.cos(t), np.sin(t)])


def test_pair_kernel_rejects_too_singular(params2, disk):
    # on the boundary, k + j beyond 2m - 2 is not locally integrable, so the
    # boundary-restricted assembly must refuse it
    grid = BoundaryGrid.build(disk, 16)
    for k, j in [(2, 1), (0, 3)]:
        with pytest.raises(DomainValidityError):
            nystrom_matrix(params2, k, j, grid)


def test_pair_diag_refuses_pairs_beyond_the_weakly_singular_range(params2):
    # nystrom_matrix refuses these before its diagonal limit; the limit
    # refuses them on its own, whichever factor group is too singular
    for k, j in [(0, 2), (1, 1), (2, 0)]:  # k + j = 2m - 2 has a finite limit
        assert np.all(np.isfinite(_pair_diag(params2, k, j)))
    for k, j in [(0, 3), (2, 1), (1, 2), (1, 3)]:
        with pytest.raises(DomainValidityError, match=rf"pair \({k},{j}\)"):
            _pair_diag(params2, k, j)


def test_pair_geometry_names_missing_normals(params2):
    # an odd order on either side needs that side's normals: the error must
    # say which, not fail on indexing a missing array
    x = np.array([[0.3, 0.1], [0.5, -0.2]])
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="n_x"):
        PairGeometry(PairPlan(params2, [(1, 0)]), x, a, None, a)
    with pytest.raises(ValueError, match="n_alpha"):
        PairGeometry(PairPlan(params2, [(0, 1)]), x, a, a, None)
    with pytest.raises(ValueError, match="n_alpha"):
        boundary_kernel(params2, 1, x, a, None)
    # even orders need no normals at all
    PairGeometry(PairPlan(params2, [(0, 0), (2, 2)]), x, a)
    boundary_kernel(params2, 2, x, a, None)


# ---------------------------------------------------------------------------
# the one evaluator against the per-call kernels it replaced
# ---------------------------------------------------------------------------


def _oracle_power(r, p):
    """r**p as products of r and 1/r: r^q r^(p-q), with q = p/2 rounded
    towards zero."""
    if p in (1, -1):
        return r if p == 1 else 1.0 / r
    q = int(p / 2)
    return _oracle_power(r, q) * _oracle_power(r, p - q)


def _oracle_distance(dx):
    return np.sqrt(dx[..., 0] * dx[..., 0] + dx[..., 1] * dx[..., 1])


def _oracle_eval_split(prof, r):
    """Former profile evaluator: zero accumulators, and every power formed per term."""
    reg = np.zeros_like(r)
    logc = np.zeros_like(r)
    for c, p, e in prof.terms:
        piece = c * _oracle_power(r, p) if p != 0 else np.full_like(r, c)
        if e:
            logc += piece
        else:
            reg += piece
    return reg, logc


def _oracle_pair_split(params, k, j, x, n_x, alpha, n_alpha):
    """Former pair kernel: geometry, every cosine and every power recomputed
    per call, and zero accumulators."""
    dx = x - alpha
    r = _oracle_distance(dx)
    u = v = ndot = None
    if n_x is not None:
        u = (n_x[..., 0] * dx[..., 0] + n_x[..., 1] * dx[..., 1]) / r
    if n_alpha is not None:
        v = -(n_alpha[..., 0] * dx[..., 0] + n_alpha[..., 1] * dx[..., 1]) / r
    if n_x is not None and n_alpha is not None:
        ndot = n_x[..., 0] * n_alpha[..., 0] + n_x[..., 1] * n_alpha[..., 1]
    reg = np.zeros_like(r)
    logc = np.zeros_like(r)
    for tag, prof in _pair_groups(params, k, j):
        if prof.is_zero:
            continue
        preg, plog = _oracle_eval_split(prof, r)
        if tag == "1":
            fac = 1.0
        elif tag == "u":
            fac = u
        elif tag == "v":
            fac = v
        elif tag == "uv":
            fac = u * v
        else:
            fac = ndot
        reg += preg * fac
        logc += plog * fac
    return reg, logc, r


def _oracle_pair(params, k, j, x, n_x, alpha, n_alpha):
    reg, logc, r = _oracle_pair_split(params, k, j, x, n_x, alpha, n_alpha)
    if np.all(logc == 0.0):
        return reg
    return reg + logc * np.log(r)


def _oracle_boundary_kernel(params, j, x, alpha, n_alpha):
    """Former boundary kernel: a separate radial branch for even orders."""
    if j % 2:
        return _oracle_pair(params, 0, j, x, None, alpha, n_alpha)
    r = _oracle_distance(x - alpha)
    reg, logc = _oracle_eval_split(iterated_laplacian_profile(params, j // 2), r)
    if np.all(logc == 0.0):
        return reg
    return reg + logc * np.log(r)


def _units(rng, shape):
    t = rng.uniform(0, 2 * np.pi, size=shape)
    return np.stack([np.cos(t), np.sin(t)], axis=-1)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("target_normals", [True, False])
def test_pair_kernel_bitwise_equals_per_call_oracle(m, target_normals):
    # one plan and one geometry shared by every (k, j) on a block, with each
    # power of r formed once, give exactly the values the per-call kernels
    # computed; without target normals only the orders that need none (even
    # k) can be evaluated, and without any normals only the even-even ones
    params = SplineParams(m=m, d=2)
    rng = np.random.default_rng(m + 10 * target_normals)
    x = rng.uniform(-1.5, 1.5, size=(11, 1, 2))
    alpha = rng.uniform(-1.0, 1.0, size=(1, 17, 2))
    n_x = _units(rng, (11, 1)) if target_normals else None
    n_alpha = _units(rng, (1, 17))
    ks = range(2 * m) if target_normals else range(0, 2 * m, 2)
    blocks = [(n_alpha, [(k, j) for k in ks for j in range(2 * m)])]
    if not target_normals:
        blocks.append((None, [(k, j) for k in ks for j in range(0, 2 * m, 2)]))
    for normals, orders in blocks:
        geom = PairGeometry(PairPlan(params, orders), x, alpha, n_x, normals)
        for k, j in orders:
            reg, logc = pair_kernel(geom, k, j)
            o_reg, o_logc, _ = _oracle_pair_split(params, k, j, x, n_x, alpha, normals)
            assert reg.shape == logc.shape == (11, 17), (k, j)
            assert np.array_equal(reg, o_reg) and np.array_equal(logc, o_logc), (k, j)
            assert np.array_equal(
                geom.value(reg, logc), _oracle_pair(params, k, j, x, n_x, alpha, normals)
            ), (k, j)
    for j in range(2 * m):
        assert np.array_equal(
            boundary_kernel(params, j, x, alpha, n_alpha),
            _oracle_boundary_kernel(params, j, x, alpha, n_alpha),
        ), j


@pytest.mark.parametrize("scale", [1e-10, 1e-6, 1e-2, 1.0, 1e3])
def test_pair_distance_and_powers_from_products(scale):
    # r = sqrt(dx*dx + dy*dy) is within an ulp of hypot; each power of r, a
    # product of |p| factors r or 1/r, is within one rounding per factor and
    # product of r**p; a single pair gets the bits of its entry in a block
    rng = np.random.default_rng(int(-np.log10(scale)) + 10)
    params = SplineParams(m=5)
    plan = PairPlan(params, [(k, j) for k in range(10) for j in range(10)])
    x = scale * rng.uniform(-1.0, 0.0, size=(64, 1, 2))
    alpha = scale * rng.uniform(0.5, 1.5, size=(1, 96, 2))
    n_x, n_alpha = _units(rng, (64, 1)), _units(rng, (1, 96))
    geom = PairGeometry(plan, x, alpha, n_x, n_alpha)
    d = x - alpha
    hyp = np.hypot(d[..., 0], d[..., 1])
    assert np.all(np.abs(geom.r - hyp) <= np.spacing(hyp))
    assert sorted(geom.powers) == [-2, -1, 1, 2, 3, 4, 5, 6, 7, 8]
    eps = np.finfo(float).eps
    for p, rp in geom.powers.items():
        ref = geom.r ** float(p)
        assert np.all(np.abs(rp - ref) <= (abs(p) + 1) * eps * ref), p
    for j in range(2 * params.m):
        one = boundary_kernel(params, j, x[5, 0], alpha[0, 7], n_alpha[0, 7])
        assert one == boundary_kernel(params, j, x, alpha, n_alpha)[5, 7], j


def test_pair_geometry_frees_its_powers_without_the_cyclic_collector(params2):
    # a tile loop replaces its geometry per tile: a reference cycle would
    # keep every tile's powers of r alive until the cyclic collector ran
    plan = PairPlan(params2, [(k, j) for k in range(4) for j in range(4)])
    x = np.array([[[0.5, 0.5]]])
    alpha = np.array([[[0.0, 0.0], [0.3, 0.1]]])
    n = _units(np.random.default_rng(0), (1, 2))
    gc.disable()
    try:
        geom = PairGeometry(plan, x, alpha, n[:, :1], n)
        refs = [weakref.ref(a) for a in geom.powers.values()]
        del geom
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "offset, singular",
    [((0.0, 0.0), True), ((1e-14, 0.0), True), ((SINGULAR_TOL, 0.0), True),
     ((0.6 * SINGULAR_TOL, -0.8 * SINGULAR_TOL), True),
     ((2 * SINGULAR_TOL, 0.0), False), ((1.2 * SINGULAR_TOL, 1.6 * SINGULAR_TOL), False)],
)
def test_pair_geometry_refuses_pairs_within_singular_tol(params2, offset, singular):
    # one pair of a block at distance |offset| from its source: at or below
    # SINGULAR_TOL the whole block is refused
    plan = PairPlan(params2, [(0, 0)])
    alpha = np.array([[[0.0, 0.0], [0.3, 0.1], [-0.2, 0.4]]])
    x = np.array([[0.5, 0.5], offset])[:, None, :]
    if singular:
        with pytest.raises(SingularEvaluationError):
            PairGeometry(plan, x, alpha)
    else:
        assert PairGeometry(plan, x, alpha).r[1, 0] > SINGULAR_TOL


def _radial_derivative(params, radii):
    return np.array(
        [
            abs(
                boundary_kernel(
                    params, 1, np.array([[r, 0.0]]), np.zeros(2), np.array([1.0, 0.0])
                )[0]
            )
            for r in radii
        ]
    )


def test_gradient_magnitude_envelope(params2):
    # |phi'(r)| is bounded by r^(2m-d-1) (|log r| + 1) up to a uniform factor,
    # and tracks it two-sidedly once past the sign change of 2 log r + 1
    radii = np.geomspace(0.1, 100.0, 12)
    envelope = radii ** (2 * 2 - 2 - 1) * (np.abs(np.log(radii)) + 1)
    vals = _radial_derivative(params2, radii)
    assert np.all(vals <= 3.0 * C22 * envelope)
    outer = radii > 1.5
    ratio = vals[outer] / envelope[outer]
    assert ratio.max() / ratio.min() < 3.0


def test_discrete_bilaplacian_vanishes_off_origin(params2):
    # iterated 5-point Laplacian at x != 0 must converge to zero at order >= 2
    x = np.array([0.7, 0.3])

    def disc_bilap(s):
        pts = []
        coef = []
        for dx, dy, c in _five_point():
            for dx2, dy2, c2 in _five_point():
                pts.append(x + s * np.array([dx + dx2, dy + dy2]))
                coef.append(c * c2)
        vals = phi_from_r2(params2, np.sum(np.asarray(pts) ** 2, axis=-1))
        return float(np.dot(coef, vals)) / s**4

    v1, v2 = disc_bilap(1e-2), disc_bilap(5e-3)
    assert abs(v1) < 1e-3
    assert abs(v2) < abs(v1) / 2.5


def _five_point():
    return [(1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0), (0, 0, -4.0)]
