"""Exact polynomial calculus and boundary-operator values on polynomials."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from surfspline.geometry import BoundaryGrid
from surfspline.polyspace import (
    PolyBasis,
    boundary_op_values,
    monomial_exponents,
    poly_eval,
    poly_gradient,
    poly_laplacian,
    side_condition_matrix,
)


@given(degree=st.integers(0, 12))
def test_monomial_count_matches_dimension_formula(degree):
    exps = monomial_exponents(degree)
    assert len(exps) == (degree + 1) * (degree + 2) // 2
    assert len(set(exps)) == len(exps)
    assert max(i + j for i, j in exps) == degree


def test_monomials_graded_order():
    exps = monomial_exponents(2)
    degrees = [i + j for i, j in exps]
    assert degrees == sorted(degrees)
    assert exps[0] == (0, 0)


def test_poly_laplacian_exact():
    # Lap(x^3 y) = 6 x y, Lap(x^2 + y^2) = 4
    assert poly_laplacian({(3, 1): 1.0}) == {(1, 1): 6.0}
    assert poly_laplacian({(2, 0): 1.0, (0, 2): 1.0}) == {(0, 0): 4.0}
    assert poly_laplacian({(1, 0): 2.5}) == {}


def test_poly_gradient_exact():
    gx, gy = poly_gradient({(2, 1): 3.0})
    assert gx == {(1, 1): 6.0}
    assert gy == {(2, 0): 3.0}


def test_poly_eval_matches_direct(rng):
    p = {(0, 0): 1.0, (2, 1): -0.5, (0, 3): 2.0}
    pts = rng.uniform(-2, 2, size=(30, 2))
    x, y = pts[:, 0], pts[:, 1]
    np.testing.assert_allclose(
        poly_eval(p, pts), 1.0 - 0.5 * x**2 * y + 2.0 * y**3, rtol=1e-14
    )


def test_boundary_op_values_orders(grid256):
    # on the unit circle with p = x^3: op_0 = cos^3 t, op_1 = n.grad = 3 cos^2 t,
    # op_2 = Lap = 6 cos t, op_3 = n.grad Lap = 6
    p = {(3, 0): 1.0}
    t = grid256.t
    np.testing.assert_allclose(
        boundary_op_values(0, p, grid256.points), np.cos(t) ** 3, atol=1e-13
    )
    np.testing.assert_allclose(
        boundary_op_values(1, p, grid256.points, grid256.normals),
        3 * np.cos(t) ** 2 * np.cos(t),
        atol=1e-13,
    )
    np.testing.assert_allclose(
        boundary_op_values(2, p, grid256.points), 6 * np.cos(t), atol=1e-13
    )
    np.testing.assert_allclose(
        boundary_op_values(3, p, grid256.points, grid256.normals),
        6 * np.cos(t),
        atol=1e-13,
    )


def test_boundary_op_odd_requires_normals(grid256):
    with pytest.raises((TypeError, ValueError)):
        boundary_op_values(1, {(1, 0): 1.0}, grid256.points, None)


def test_side_condition_matrix_shape_and_rank(grid256):
    basis = PolyBasis.up_to_degree(3)
    blocks = side_condition_matrix(basis, grid256, 4)
    assert blocks.shape == (4, grid256.n, basis.dimension)
    # the circle is algebraic of degree 2, so traces of degree-3 polynomials
    # lose exactly the multiples of x^2 + y^2 - 1 (a copy of degree-1 space)
    assert np.linalg.matrix_rank(blocks[0]) == basis.dimension - 3
    circle_poly = basis.eval(grid256.points) @ _coeff_vector(basis, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    np.testing.assert_allclose(circle_poly, 1.0 - 1.0, atol=1e-13)


def test_side_condition_full_rank_non_algebraic():
    from surfspline.geometry import star

    grid = BoundaryGrid.build(star(0.15, 5), 256)
    basis = PolyBasis.up_to_degree(3)
    blocks = side_condition_matrix(basis, grid, 1)
    assert np.linalg.matrix_rank(blocks[0]) == basis.dimension


def _coeff_vector(basis, poly):
    vec = np.zeros(basis.dimension)
    for e, c in poly.items():
        vec[basis.exponents.index(e)] = c
    return vec


def test_side_condition_constant_block(grid256):
    basis = PolyBasis.for_spline_order(1)
    assert basis.dimension == 1
    blocks = side_condition_matrix(basis, grid256, 1)
    np.testing.assert_allclose(blocks[0, :, 0], 1.0, atol=1e-15)


@given(seed=st.integers(0, 500))
def test_green_pairing_annihilates_low_degree(seed, grid256):
    # For u, v of degree <= 3 the alternating boundary pairing
    #   sum_j (-1)^j  integral  op_j(u) op_(3-j)(v) ds
    # equals the volume pairing of Lap^2, which vanishes identically.
    grid = grid256
    rng = np.random.default_rng(seed)
    basis = PolyBasis.up_to_degree(3)
    u = basis.combine(rng.standard_normal(basis.dimension))
    v = basis.combine(rng.standard_normal(basis.dimension))
    total = 0.0
    for j in range(4):
        opu = boundary_op_values(j, u, grid.points, grid.normals)
        opv = boundary_op_values(3 - j, v, grid.points, grid.normals)
        total += (-1.0) ** j * float(np.sum(grid.weights * opu * opv))
    assert abs(total) < 1e-8


def test_basis_combine_roundtrip(rng):
    basis = PolyBasis.up_to_degree(2)
    coeffs = rng.standard_normal(basis.dimension)
    p = basis.combine(coeffs)
    pts = rng.uniform(-1, 1, size=(20, 2))
    np.testing.assert_allclose(poly_eval(p, pts), basis.eval(pts) @ coeffs, rtol=1e-13, atol=1e-13)


def test_basis_rejects_bad_coefficients():
    basis = PolyBasis.up_to_degree(1)
    with pytest.raises(ValueError):
        basis.combine([1.0, 2.0])
