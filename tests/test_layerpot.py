"""Quadrature weights, layer potentials, Nystrom matrices, boundary traces."""

import numpy as np
import pytest
import scipy.integrate

from surfspline.errors import ExtrapolationDivergenceError, NearBoundaryAccuracyWarning
from surfspline.geometry import BoundaryGrid, curve_from_spec
from surfspline.kernel import SplineParams, boundary_kernel
from surfspline.layerpot import (
    TraceMaps,
    _neville_limit,
    kress_log_weights,
    layer_potential,
    nystrom_matrix,
    one_sided_trace,
    trig_upsample,
)
from tests.conftest import direct_trace, jump_error

# ---------------------------------------------------------------------------
# log-splitting quadrature and trigonometric interpolation
# ---------------------------------------------------------------------------


def test_log_weights_annihilate_constants():
    # integral of log(4 sin^2((t-s)/2)) over a period vanishes
    R = kress_log_weights(64)
    assert abs(R.sum()) < 1e-12


def test_log_weights_cosine_oracle():
    # classical Fourier integral: for f(s) = cos(q s),
    # integral f(s) log(4 sin^2((t-s)/2)) ds = -(2 pi / q) cos(q t)
    n = 64
    R = kress_log_weights(n)
    s = 2 * np.pi * np.arange(n) / n
    for q in (1, 2, 5):
        approx = np.array(
            [np.sum(R[np.abs(i - np.arange(n))] * np.cos(q * s)) for i in range(n)]
        )
        np.testing.assert_allclose(approx, -(2 * np.pi / q) * np.cos(q * s), atol=1e-12)


def test_log_weights_reject_odd_n():
    with pytest.raises(ValueError):
        kress_log_weights(33)


def test_trig_upsample_band_limited_exact():
    n, n_new = 32, 80
    t = 2 * np.pi * np.arange(n) / n
    tf = 2 * np.pi * np.arange(n_new) / n_new
    f = 1.0 + np.cos(3 * t) - 2 * np.sin(5 * t)
    up = trig_upsample(f, n_new)
    np.testing.assert_allclose(up, 1.0 + np.cos(3 * tf) - 2 * np.sin(5 * tf), atol=1e-12)


def test_trig_upsample_rejects_downsampling():
    with pytest.raises(ValueError):
        trig_upsample(np.zeros(16), 8)


# ---------------------------------------------------------------------------
# off-boundary evaluation
# ---------------------------------------------------------------------------


def test_single_layer_unit_density_at_center(params2, grid256):
    # all boundary points sit at distance 1 from the origin, where the radial
    # profile r^2 log r vanishes
    val = layer_potential(params2, (0,), grid256, np.ones(grid256.n), np.zeros((1, 2)))[0][0]
    assert abs(val) < 1e-13


def test_layer_potential_vs_adaptive_quadrature(params2, grid256):
    # smooth integrand at an interior point: adaptive quadrature is an
    # independent oracle for the nodal trapezoid value
    x = np.array([0.3, 0.1])
    for j in (0, 1):
        def integrand(t, j=j):
            alpha = np.array([np.cos(t), np.sin(t)])
            return (
                boundary_kernel(params2, j, x[None], alpha, alpha)[0]
                * (np.cos(3 * t) + 0.5)
            )

        oracle = 0.0
        for a, b in ((0, np.pi), (np.pi, 2 * np.pi)):
            part, err = scipy.integrate.quad(integrand, a, b, epsabs=1e-13, limit=200)
            oracle += part
        t = grid256.t
        val = layer_potential(params2, (j,), grid256, np.cos(3 * t) + 0.5, x[None])[0][0]
        assert val == pytest.approx(oracle, abs=1e-10)


def test_layer_potential_zero_density(params2, grid256, rng):
    pts = rng.uniform(-0.5, 0.5, size=(5, 2))
    np.testing.assert_array_equal(
        layer_potential(params2, (2,), grid256, np.zeros(grid256.n), pts)[0], np.zeros(5)
    )


def test_layer_potential_near_boundary_warning(params2, disk, monkeypatch):
    from surfspline import layerpot

    monkeypatch.setattr(layerpot, "_MAX_NODES", 64)
    grid = BoundaryGrid.build(disk, 32)
    with pytest.warns(NearBoundaryAccuracyWarning):
        layer_potential(params2, (0,), grid, np.ones(32), [[1.0 - 1e-6, 0.0]])


def test_layer_potential_independent_of_tiles(params2, disk, monkeypatch):
    # nine points 0.006 inside the rim all need the 64-fold upsampled grid;
    # the ragged ninth row shares the last tile and keeps a single call's bits
    from surfspline import kernel

    grid = BoundaryGrid.build(disk, 128)
    t = np.linspace(0.0, 2 * np.pi, 9, endpoint=False) + 0.2
    pts = 0.994 * np.stack([np.cos(t), np.sin(t)], axis=-1)
    density = np.cos(3 * grid.t) + 0.5
    for j in (0, 1):
        tiled = layer_potential(params2, (j,), grid, density, pts)[0]
        with monkeypatch.context() as mp:
            mp.setattr(kernel, "TILE_ENTRIES", 2**24)
            np.testing.assert_array_equal(
                layer_potential(params2, (j,), grid, density, pts)[0], tiled
            )


def test_layer_potential_rows_equal_one_slot_calls(params2, disk, rng, monkeypatch):
    # points far from and close to the rim fall in two upsampling groups of
    # two tiles each; every row of a stacked call, odd and even orders
    # alike, has the bits of its one-slot call
    from surfspline import kernel, layerpot

    monkeypatch.setattr(kernel, "TILE_ENTRIES", 512)
    grid = BoundaryGrid.build(disk, 64)
    t = rng.uniform(0.0, 2 * np.pi, 40)
    radii = np.where(np.arange(40) % 2, 0.5, 0.995)
    pts = radii[:, None] * np.stack([np.cos(t), np.sin(t)], axis=-1)
    factors = layerpot._needed_factor(grid.n, 1.0 - radii)
    groups = np.unique(factors)
    assert len(groups) == 2
    assert all(len(list(kernel.tiles(20, grid.n * f))) == 2 for f in groups)
    slots = (3, 0, 2, 1)
    densities = rng.standard_normal((len(slots), grid.n))
    stacked = layer_potential(params2, slots, grid, densities, pts)
    assert stacked.shape == (len(slots), len(pts))
    for s, j in enumerate(slots):
        np.testing.assert_array_equal(
            stacked[s], layer_potential(params2, (j,), grid, densities[s], pts)[0]
        )


def test_layer_potential_discrete_bilaplacian_vanishes(params2, grid256):
    # potentials are polyharmonic away from the charged boundary
    density = np.cos(2 * grid256.t)
    x = np.array([0.4, 0.2])
    s = 5e-3
    stencil = [(1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0), (0, 0, -4.0)]
    pts, coef = [], []
    for dx, dy, c in stencil:
        for dx2, dy2, c2 in stencil:
            pts.append(x + s * np.array([dx + dx2, dy + dy2]))
            coef.append(c * c2)
    vals = layer_potential(params2, (1,), grid256, density, np.asarray(pts))[0]
    bilap = float(np.dot(coef, vals)) / s**4
    assert abs(bilap) < 1e-3


# ---------------------------------------------------------------------------
# Nystrom matrices
# ---------------------------------------------------------------------------


def test_nystrom_circulant_on_circle(params2, disk):
    # rotation invariance makes every boundary operator a convolution there
    grid = BoundaryGrid.build(disk, 64)
    for k, j in ((0, 0), (1, 1), (0, 2)):
        M = nystrom_matrix(params2, [(k, j)], grid)[0]
        for i in (1, 17, 40):
            np.testing.assert_allclose(M[i], np.roll(M[0], i), atol=1e-12)


def test_nystrom_weighted_transpose_symmetry(params2, ell21):
    # kernel symmetry K_kj(x, a) = K_jk(a, x) at the matrix level:
    # w_i M_kj[i, l] equals w_l M_jk[l, i]
    grid = BoundaryGrid.build(ell21, 64)
    w = grid.weights
    for k, j in ((0, 1), (0, 2), (1, 1)):
        A = w[:, None] * nystrom_matrix(params2, [(k, j)], grid)[0]
        B = w[:, None] * nystrom_matrix(params2, [(j, k)], grid)[0]
        np.testing.assert_allclose(A, B.T, atol=1e-12)


@pytest.mark.parametrize("m", [2, 3])
def test_nystrom_orders_equal_one_order_calls(ell21, m):
    # one call over every order of the weakly singular range shares its pair
    # geometry and tables, and each block keeps the bits of a one-order call
    params = SplineParams(m)
    grid = BoundaryGrid.build(ell21, 48)
    orders = [(k, j) for k in range(2 * m - 1) for j in range(2 * m - 1 - k)]
    blocks = nystrom_matrix(params, orders, grid)
    assert len(blocks) == len(orders)
    for (k, j), block in zip(orders, blocks):
        assert np.array_equal(block, nystrom_matrix(params, [(k, j)], grid)[0])


def test_nystrom_self_convergence(params2, ell21):
    # spectral accuracy: coarse-grid values nearly coincide with fine-grid
    # values at shared nodes for a smooth density
    g_of = lambda t: np.cos(2 * t) + 0.3 * np.sin(t)
    coarse = BoundaryGrid.build(ell21, 128)
    fine = BoundaryGrid.build(ell21, 256)
    uc = nystrom_matrix(params2, [(0, 0)], coarse)[0] @ g_of(coarse.t)
    uf = nystrom_matrix(params2, [(0, 0)], fine)[0] @ g_of(fine.t)
    assert np.max(np.abs(uc - uf[::2])) < 1e-9


# ---------------------------------------------------------------------------
# one-sided traces and jumps
# ---------------------------------------------------------------------------


def test_one_sided_trace_continuity_low_orders(params2, disk):
    # op_k V_0 for k <= 2m - 2 is continuous across the boundary
    grid = BoundaryGrid.build(disk, 64)
    dens = np.cos(grid.t)[None, :]
    for k in (0, 1):
        inner, _ = one_sided_trace(params2, dens, grid, k, "inside", slots=(0,))
        outer, _ = one_sided_trace(params2, dens, grid, k, "outside", slots=(0,))
        assert np.max(np.abs(inner - outer)) < 2e-5, f"k={k}"


def test_one_sided_trace_matches_nystrom(params2, disk):
    # the extrapolated boundary limit of a continuous trace must agree with
    # the direct singular-quadrature value
    grid = BoundaryGrid.build(disk, 64)
    g = np.cos(grid.t) + 0.2
    direct = nystrom_matrix(params2, [(0, 0)], grid)[0] @ g
    lim, est = one_sided_trace(params2, g[None, :], grid, 0, "inside", slots=(0,))
    assert np.max(np.abs(lim - direct)) < 1e-6
    assert np.all(est >= 0)


def test_one_sided_trace_validates_inputs(params2, grid256):
    with pytest.raises(ValueError):
        one_sided_trace(params2, np.zeros((1, grid256.n)), grid256, 0, "above")
    with pytest.raises(ValueError):
        one_sided_trace(params2, np.zeros((2, 10)), grid256, 0, "inside")
    with pytest.raises(ValueError):
        one_sided_trace(
            params2, np.zeros((1, grid256.n)), grid256, 0, "inside", slots=(7,)
        )


def test_one_sided_trace_raises_when_ladder_diverges(params2, disk):
    # the Nyquist mode on a coarse grid oscillates on the scale of the grid
    # spacing, so its top-order trace changes by O(1) between offsets and the
    # extrapolation cannot settle; a smooth density on the same grid can
    grid = BoundaryGrid.build(disk, 16)
    nyquist = (-1.0) ** np.arange(grid.n)
    for side in ("inside", "outside"):
        with pytest.raises(ExtrapolationDivergenceError):
            one_sided_trace(params2, nyquist[None, :], grid, 3, side, slots=(0,))
    _, est = one_sided_trace(params2, np.cos(grid.t)[None, :], grid, 3, "inside", slots=(0,))
    assert np.max(est) < 1e-6


@pytest.mark.parametrize("k", [1, 2])
def test_one_sided_trace_offsets_stay_inside_on_coarse_grids(params2, disk, k):
    # with 8 nodes five spacings (about 3.9) exceed the disk's diameter; the
    # first offset is capped at the reach, so the inside ladder stays in the
    # domain and a smooth density gives the same trace as a fine grid does
    coarse = BoundaryGrid.build(disk, 8)
    fine = BoundaryGrid.build(disk, 64)
    vals, est = one_sided_trace(
        params2, np.cos(coarse.t)[None, :], coarse, k, "inside", slots=(0,)
    )
    ref, _ = one_sided_trace(params2, np.cos(fine.t)[None, :], fine, k, "inside", slots=(0,))
    assert np.max(est) < 1e-8
    np.testing.assert_allclose(vals, ref[::8], rtol=0, atol=1e-8)


def _trace_loop(deltas, vals):
    """The Neville loop formerly inlined in ``one_sided_trace``."""
    rungs = len(deltas)
    table = vals.copy()
    prev0 = vals[0].copy()
    est = np.zeros(vals.shape[1])
    for lvl in range(1, rungs):
        for i in range(rungs - lvl):
            num = deltas[i] * table[i + 1] - deltas[i + lvl] * table[i]
            table[i] = num / (deltas[i] - deltas[i + lvl])
        est = np.abs(table[0] - prev0)
        prev0 = table[0].copy()
    return table[0], est


def _continuity_loop(deltas, vals):
    """The Neville loop formerly inlined in ``scheme.extension_continuity``."""
    rungs = len(deltas)
    table = [v.copy() for v in vals]
    for lvl in range(1, rungs):
        for i in range(rungs - lvl):
            den = deltas[i] - deltas[i + lvl]
            table[i] = (deltas[i] * table[i + 1] - deltas[i + lvl] * table[i]) / den
    return table[0]


@pytest.mark.parametrize("rungs", [2, 3, 5])
def test_neville_limit_exact_on_polynomials(rungs, rng):
    # degree rungs - 1 in the offset is reproduced exactly, so the limit is
    # the constant term
    deltas = 0.3 / 2.0 ** np.arange(rungs)
    coef = rng.normal(size=(rungs, 7))
    vals = np.stack([sum(coef[p] * d**p for p in range(rungs)) for d in deltas])
    limit, est = _neville_limit(deltas, vals)
    np.testing.assert_allclose(limit, coef[0], rtol=0, atol=1e-12)
    assert est.shape == (7,) and np.all(est >= 0)


@pytest.mark.parametrize(
    "deltas",
    [0.17 / 2.0 ** np.arange(5), 0.04 / 2.0 ** np.arange(5), np.array([0.5, 0.31, 0.2, 0.07])],
)
def test_neville_limit_bitwise_equals_inline_loops(deltas, rng):
    vals = rng.normal(size=(len(deltas), 33)) + np.log(deltas)[:, None]
    limit, est = _neville_limit(deltas, vals)
    ref_limit, ref_est = _trace_loop(deltas, vals)
    np.testing.assert_array_equal(limit, ref_limit)
    np.testing.assert_array_equal(est, ref_est)
    np.testing.assert_array_equal(limit, _continuity_loop(deltas, vals))


def test_jump_relation_single_slot(params2, disk):
    # top-order trace of V_0 jumps by (-1)^(0+1) g = -g across the boundary
    grid = BoundaryGrid.build(disk, 128)
    assert jump_error(params2, 0, np.cos(grid.t), grid) < 5e-3


# ---------------------------------------------------------------------------
# trace maps against the per-density offset ladder
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", ["disk", "ellipse:1.3,0.8"])
@pytest.mark.parametrize("n", [16, 80, 128])
def test_trace_maps_match_the_direct_ladder(params2, spec, n):
    grid = BoundaryGrid.build(curve_from_spec(spec), n)
    dens = np.stack([np.cos(grid.t) + 0.3 * np.sin(3 * grid.t), 0.5 - np.sin(2 * grid.t)])
    for side in ("inside", "outside"):
        maps = TraceMaps(params2, grid, side=side, ks=(0, 1, 2, 3))
        for k in range(4):
            ref, ref_est = direct_trace(params2, dens, grid, k, side, (0, 1))
            tol = 1e-12 * np.max(np.abs(ref))
            np.testing.assert_allclose(maps.value[k] @ dens.ravel(), ref, rtol=0, atol=tol)
            np.testing.assert_allclose(
                np.abs(maps.correction[k] @ dens.ravel()), ref_est, rtol=0, atol=tol
            )


def test_trace_maps_default_to_the_multilayer_inside_traces(params2, disk):
    maps = TraceMaps(params2, BoundaryGrid.build(disk, 16))
    assert (maps.side, maps.slots, sorted(maps.value)) == ("inside", (0, 1), [2, 3])
    assert maps.value[3].shape == maps.correction[3].shape == (16, 32)


def test_trace_maps_refuse_another_grid(params2, disk):
    grid = BoundaryGrid.build(disk, 16)
    maps = TraceMaps(params2, grid)
    maps.check(params2, BoundaryGrid.build(disk, 16))  # same nodes, new object
    for other in (BoundaryGrid.build(disk, 32), BoundaryGrid.build(curve_from_spec("ellipse:1.3,0.8"), 16)):
        with pytest.raises(ValueError):
            maps.check(params2, other)
    with pytest.raises(ValueError):
        maps.check(SplineParams(m=3, d=2), grid)
