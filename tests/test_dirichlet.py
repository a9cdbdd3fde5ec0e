"""Multilayer Dirichlet solver: reproduction, moments, symbols, densities."""

import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from surfspline import dirichlet
from surfspline.dirichlet import (
    assemble_boundary_system,
    compute_Nj,
    principal_symbol_matrix,
    solve_dirichlet,
)
from surfspline.errors import ResidualToleranceError, SingularSystemError
from surfspline.geometry import BoundaryGrid
from surfspline.polyspace import PolyBasis
from surfspline.targets import named_target
from tests.conftest import direct_trace, interior_points, target_from_expression


def _solve(grid, name):
    from surfspline.kernel import SplineParams

    params = SplineParams(m=2, d=2)
    f = named_target(name, 2)
    return params, f, solve_dirichlet(params, grid, f)


def test_reproduces_low_degree_polynomial(grid256, rng):
    # degree <= m-1 data is matched exactly by the polynomial part alone
    params, f, sol = _solve(grid256, "poly1")
    pts = interior_points(grid256.curve, 100, rng)
    err = sol.evaluate(pts) - f(pts)
    assert np.max(np.abs(err)) < 1e-8
    # and the layer densities themselves are numerically zero
    assert np.max(np.abs(sol.densities)) < 1e-7


@pytest.mark.parametrize("name", ["harmonic3", "biharm", "cubicmix"])
def test_reproduces_polyharmonic_functions(grid256, rng, name):
    params, f, sol = _solve(grid256, name)
    pts = interior_points(grid256.curve, 100, rng)
    fv = f(pts)
    err = np.max(np.abs(sol.evaluate(pts) - fv)) / np.max(np.abs(fv))
    assert err < 1e-6


def test_frozen_interior_value(grid256):
    # Re((x+iy)^3) at (0.3, 0.2): 0.027 - 3*0.3*0.04 = -0.009
    _, _, sol = _solve(grid256, "harmonic3")
    assert sol.evaluate(np.array([[0.3, 0.2]]))[0] == pytest.approx(-0.009, abs=1e-9)


def test_homogeneous_data_gives_zero(grid256, params2, rng):
    sol = solve_dirichlet(params2, grid256, np.zeros((2, grid256.n)))
    pts = interior_points(grid256.curve, 50, rng)
    assert np.max(np.abs(sol.evaluate(pts))) < 1e-8
    assert np.max(np.abs(sol.densities)) < 1e-8
    assert np.max(np.abs(sol.poly_coeffs)) < 1e-8


def test_solution_moment_conditions(grid256):
    # the bordered rows enforce sum_j <g_j, op_j q> ds = 0 over the tail basis
    params, f, sol = _solve(grid256, "expx")
    P = np.stack([
        sol.basis.op_values(k, grid256.points, grid256.normals) for k in range(params.m)
    ])  # (m, n, N)
    moments = np.einsum("n,jnk,jn->k", grid256.weights, P, sol.densities)
    scale = np.max(np.abs(sol.densities)) + 1e-30
    assert np.max(np.abs(moments)) / scale < 1e-10


def test_boundary_trace_matches_data(grid256):
    params, f, sol = _solve(grid256, "gauss")
    vals, est = sol.boundary_trace(0, "inside")
    np.testing.assert_allclose(
        vals, f.trace(0, grid256.points), atol=5e-7
    )


def test_solver_residual_and_condition_reported(grid256, monkeypatch):
    _, _, sol = _solve(grid256, "wave")
    assert sol.residual < 1e-10
    assert 0 < sol.rcond < 1
    monkeypatch.setattr(dirichlet, "_RESIDUAL_TOL", 0.0)
    with pytest.raises(ResidualToleranceError):
        solve_dirichlet(sol.params, grid256, named_target("wave", 2))


def _bordered_system(grid, name):
    params, f, sol = _solve(grid, name)
    A = assemble_boundary_system(params, grid)
    rhs = np.concatenate([np.zeros(sol.poly_coeffs.size), f.boundary_data(grid).ravel()])
    return A, rhs, sol


def test_solution_agrees_with_a_scipy_lu_oracle(grid256):
    # the oracle: scipy's LU factors, one solve and one refinement step
    A, rhs, sol = _bordered_system(grid256, "wave")
    lu, piv = lu_factor(A)
    oracle = lu_solve((lu, piv), rhs)
    oracle = oracle + lu_solve((lu, piv), rhs - A @ oracle)
    z = np.concatenate([sol.poly_coeffs, sol.densities.ravel()])
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(rhs - A @ z)) / scale < 1e-12
    assert np.max(np.abs(rhs - A @ oracle)) / scale < 1e-12
    assert np.max(np.abs(A @ (z - oracle))) / scale < 1e-12


@pytest.mark.parametrize("curve", ["disk", "ell21"])
def test_rcond_is_the_exact_one_norm_value(request, curve):
    grid = BoundaryGrid.build(request.getfixturevalue(curve), 256)
    A, _, sol = _bordered_system(grid, "wave")
    exact = 1.0 / (np.linalg.norm(A, 1) * np.linalg.norm(np.linalg.inv(A), 1))
    assert sol.rcond == pytest.approx(exact, rel=1e-9)
    # LAPACK's gecon estimates ||A^-1||_1 from below, so its rcond is no smaller
    gecon = get_lapack_funcs("gecon", (A,))
    estimate, info = gecon(lu_factor(A)[0], np.linalg.norm(A, 1), norm="1")
    assert info == 0 and sol.rcond <= estimate


@pytest.mark.parametrize("flaw", ["zero-column", "nan-entry"])
def test_singular_system_raises_singular_system_error(grid256, params2, monkeypatch, flaw):
    real = dirichlet.assemble_boundary_system

    def flawed(params, grid):
        A = real(params, grid)
        if flaw == "zero-column":
            A[:, 5] = 0.0  # an exact zero pivot in the factorization
        else:
            A[7, 9] = np.nan
        return A

    monkeypatch.setattr(dirichlet, "assemble_boundary_system", flawed)
    with pytest.raises(SingularSystemError):
        solve_dirichlet(params2, grid256, named_target("wave", 2))


def test_solver_validates_data_shape(grid256, params2):
    with pytest.raises(ValueError):
        solve_dirichlet(params2, grid256, np.zeros((3, grid256.n)))
    with pytest.raises(ValueError):
        solve_dirichlet(params2, grid256, np.zeros((2, grid256.n - 2)))


def test_system_shape(grid256, params2):
    A = assemble_boundary_system(params2, grid256)
    n_poly = PolyBasis.for_spline_order(params2.m).dimension
    n_total = n_poly + params2.m * grid256.n
    assert A.shape == (n_total, n_total)
    assert n_poly == 3  # degree-1 tail in two variables
    # top-left block is the zero border
    assert np.all(A[:n_poly, :n_poly] == 0.0)


@pytest.mark.parametrize("m", [2, 3])
def test_boundary_system_builds_one_pair_geometry(ell21, monkeypatch, m):
    # the m^2 operator blocks share one geometry of the node pairs, and each
    # sits in the system with the bits of a one-order Nystrom matrix
    from surfspline import layerpot
    from surfspline.kernel import SplineParams

    shapes = []

    class RecordingGeometry(layerpot.PairGeometry):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            shapes.append(self.r.shape)

    params = SplineParams(m)
    grid = BoundaryGrid.build(ell21, 48)
    monkeypatch.setattr(layerpot, "PairGeometry", RecordingGeometry)
    A = assemble_boundary_system(params, grid)
    assert shapes == [(48, 48)]
    N, n = PolyBasis.for_spline_order(m).dimension, grid.n
    for k in range(m):
        for j in range(m):
            block = A[N + k * n : N + (k + 1) * n, N + j * n : N + (j + 1) * n]
            assert np.array_equal(block, layerpot.nystrom_matrix(params, [(k, j)], grid)[0])


# ---------------------------------------------------------------------------
# principal symbols
# ---------------------------------------------------------------------------


def test_symbol_matrix_m2_entries():
    sigma = principal_symbol_matrix(2)
    np.testing.assert_allclose(sigma, [[0.25, 0.0], [0.0, 1.0]], atol=1e-15)
    assert np.linalg.det(sigma) == pytest.approx(0.25, rel=1e-12)


@pytest.mark.parametrize("m", range(1, 7))
def test_symbol_matrix_nonsingular(m):
    sigma = principal_symbol_matrix(m)
    assert sigma.shape == (m, m)
    assert abs(np.linalg.det(sigma)) > 1e-12
    # checkerboard sparsity: odd k + j entries vanish
    for k in range(m):
        for j in range(m):
            if (k + j) % 2:
                assert sigma[k, j] == 0.0


# ---------------------------------------------------------------------------
# multilayer densities
# ---------------------------------------------------------------------------


def test_multilayer_densities_annihilate_tail_polynomials(disk):
    # for f in the polynomial tail the representation needs no sources at all
    from surfspline.geometry import BoundaryGrid
    from surfspline.kernel import SplineParams

    grid = BoundaryGrid.build(disk, 128)
    params = SplineParams(m=2, d=2)
    rows, sol = compute_Nj(params, grid, named_target("poly1", 2))
    assert np.max(np.abs(rows)) < 1e-5


def test_multilayer_densities_linear(disk):
    from surfspline.geometry import BoundaryGrid
    from surfspline.kernel import SplineParams

    grid = BoundaryGrid.build(disk, 128)
    params = SplineParams(m=2, d=2)
    ra, _ = compute_Nj(params, grid, named_target("expx", 2))
    rb, _ = compute_Nj(params, grid, named_target("gauss", 2))
    combo = target_from_expression("exp(x) + 3*exp(-(x**2 + y**2))", m=2)
    rc, _ = compute_Nj(params, grid, combo)
    scale = np.max(np.abs(rc))
    assert np.max(np.abs(rc - (ra + 3 * rb))) / scale < 1e-4


def test_multilayer_densities_independent_of_tiles(disk, monkeypatch):
    # the one-sided traces sum the kernel over 8-row tiles by default and
    # over a 32-row and a 48-row tile here; every row keeps its bits
    from surfspline import kernel
    from surfspline.geometry import BoundaryGrid
    from surfspline.kernel import SplineParams

    grid = BoundaryGrid.build(disk, 80)
    params = SplineParams(m=2, d=2)
    f = named_target("wave", 2)
    rows, sol = compute_Nj(params, grid, f)
    monkeypatch.setattr(kernel, "TILE_ENTRIES", 3 * 2**15)
    rows_wide, sol_wide = compute_Nj(params, grid, f)
    np.testing.assert_array_equal(rows_wide, rows)
    np.testing.assert_array_equal(sol_wide.densities, sol.densities)


def test_multilayer_densities_match_the_direct_ladder(disk):
    # the inner traces of u from the trace maps against the per-density
    # offset ladder, kept in tests/conftest.py as the oracle
    from surfspline.geometry import BoundaryGrid
    from surfspline.kernel import SplineParams

    grid = BoundaryGrid.build(disk, 80)
    params = SplineParams(m=2, d=2)
    f = named_target("wave", 2)
    rows, sol = compute_Nj(params, grid, f)
    estimates = []
    for j in range(params.m):
        k = 2 * params.m - 1 - j
        vals, est = direct_trace(params, sol.densities, grid, k, "inside", (0, 1))
        lam_u = vals + sol.basis.op_values(k, grid.points, grid.normals) @ sol.poly_coeffs
        sign = -1.0 if j % 2 == 0 else 1.0
        expect = sol.densities[j] + sign * (f.trace(k, grid.points, grid.normals) - lam_u)
        assert np.max(np.abs(rows[j] - expect)) <= 1e-12 * np.max(np.abs(expect))
        estimates.append(np.max(est))
    assert sol.trace_estimate == pytest.approx(max(estimates), rel=1e-9)
    assert sol.trace_estimate > 0.0


def test_compute_Nj_with_shared_trace_maps_equals_a_fresh_build(disk):
    from surfspline.geometry import BoundaryGrid
    from surfspline.kernel import SplineParams
    from surfspline.layerpot import TraceMaps

    params = SplineParams(m=2, d=2)
    maps = TraceMaps(params, BoundaryGrid.build(disk, 64))
    for name in ("wave", "gauss"):
        grid = BoundaryGrid.build(disk, 64)
        rows, sol = compute_Nj(params, grid, named_target(name, 2), maps)
        fresh_rows, fresh_sol = compute_Nj(params, grid, named_target(name, 2))
        np.testing.assert_array_equal(rows, fresh_rows)
        np.testing.assert_array_equal(sol.densities, fresh_sol.densities)
        assert sol.trace_estimate == fresh_sol.trace_estimate


def test_compute_Nj_refuses_trace_maps_of_another_grid(disk, ell21):
    from surfspline.geometry import BoundaryGrid
    from surfspline.kernel import SplineParams
    from surfspline.layerpot import TraceMaps

    params = SplineParams(m=2, d=2)
    maps = TraceMaps(params, BoundaryGrid.build(disk, 16))
    for grid in (BoundaryGrid.build(disk, 32), BoundaryGrid.build(ell21, 16)):
        with pytest.raises(ValueError):
            compute_Nj(params, grid, named_target("wave", 2), maps)
