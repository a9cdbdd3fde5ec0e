"""Exact polynomial calculus and boundary-operator values on polynomials."""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given
from hypothesis import strategies as st

from surfspline import lpr
from surfspline.geometry import BoundaryGrid, generate_centers
from surfspline.polyspace import PolyBasis, monomial_exponents


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


def _coeff_vector(basis, poly):
    vec = np.zeros(basis.dimension)
    for e, c in poly.items():
        vec[basis.exponents.index(e)] = c
    return vec


def _blocks(basis, grid, n_ops):
    """op_k of the basis on a grid for k < n_ops, shape (n_ops, n, dimension)."""
    return np.stack([basis.op_values(k, grid.points, grid.normals) for k in range(n_ops)])


def test_poly_laplacian_exact():
    # Lap(x^3 y) = 6 x y, Lap(x^2 + y^2) = 4, Lap(2.5 x) = 0
    basis = PolyBasis.up_to_degree(4)
    (lap,) = basis.op_maps(2)
    for p, lap_p in [
        ({(3, 1): 1.0}, {(1, 1): 6.0}),
        ({(2, 0): 1.0, (0, 2): 1.0}, {(0, 0): 4.0}),
        ({(1, 0): 2.5}, {}),
    ]:
        got = lap @ _coeff_vector(basis, p)
        assert np.array_equal(got, _coeff_vector(basis, lap_p))


def test_poly_gradient_exact():
    basis = PolyBasis.up_to_degree(3)
    gx, gy = basis.op_maps(1)
    p = _coeff_vector(basis, {(2, 1): 3.0})
    assert np.array_equal(gx @ p, _coeff_vector(basis, {(1, 1): 6.0}))
    assert np.array_equal(gy @ p, _coeff_vector(basis, {(2, 0): 3.0}))


def test_poly_eval_matches_direct(rng):
    basis = PolyBasis.up_to_degree(3)
    p = _coeff_vector(basis, {(0, 0): 1.0, (2, 1): -0.5, (0, 3): 2.0})
    pts = rng.uniform(-2, 2, size=(30, 2))
    x, y = pts[:, 0], pts[:, 1]
    np.testing.assert_allclose(
        basis.eval(pts) @ p, 1.0 - 0.5 * x**2 * y + 2.0 * y**3, rtol=1e-14
    )


def test_boundary_op_values_orders(grid256):
    # on the unit circle with p = x^3: op_0 = cos^3 t, op_1 = n.grad = 3 cos^2 t,
    # op_2 = Lap = 6 cos t, op_3 = n.grad Lap = 6
    basis = PolyBasis.up_to_degree(3)
    p = _coeff_vector(basis, {(3, 0): 1.0})
    t = grid256.t

    def op(k):
        return basis.op_values(k, grid256.points, grid256.normals) @ p

    np.testing.assert_allclose(op(0), np.cos(t) ** 3, atol=1e-13)
    np.testing.assert_allclose(op(1), 3 * np.cos(t) ** 2 * np.cos(t), atol=1e-13)
    np.testing.assert_allclose(op(2), 6 * np.cos(t), atol=1e-13)
    np.testing.assert_allclose(op(3), 6 * np.cos(t), atol=1e-13)


def test_boundary_op_odd_requires_normals(grid256):
    basis = PolyBasis.up_to_degree(1)
    with pytest.raises(ValueError, match="normals"):
        basis.op_values(1, grid256.points)
    with pytest.raises(ValueError):
        basis.op_maps(-1)


def test_side_condition_matrix_shape_and_rank(grid256):
    basis = PolyBasis.up_to_degree(3)
    blocks = _blocks(basis, grid256, 4)
    assert blocks.shape == (4, grid256.n, basis.dimension)
    # the circle is algebraic of degree 2, so traces of degree-3 polynomials
    # lose exactly the multiples of x^2 + y^2 - 1 (a copy of degree-1 space)
    assert np.linalg.matrix_rank(blocks[0]) == basis.dimension - 3
    circle_poly = blocks[0] @ _coeff_vector(basis, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    np.testing.assert_allclose(circle_poly, 1.0 - 1.0, atol=1e-13)


def test_side_condition_full_rank_non_algebraic():
    from surfspline.geometry import star

    grid = BoundaryGrid.build(star(0.15, 5), 256)
    basis = PolyBasis.up_to_degree(3)
    blocks = _blocks(basis, grid, 1)
    assert np.linalg.matrix_rank(blocks[0]) == basis.dimension


def test_side_condition_constant_block(grid256):
    basis = PolyBasis.for_spline_order(1)
    assert basis.dimension == 1
    blocks = _blocks(basis, grid256, 1)
    np.testing.assert_allclose(blocks[0, :, 0], 1.0, atol=1e-15)


@given(seed=st.integers(0, 500))
def test_green_pairing_annihilates_low_degree(seed, grid256):
    # For u, v of degree <= 3 the alternating boundary pairing
    #   sum_j (-1)^j  integral  op_j(u) op_(3-j)(v) ds
    # equals the volume pairing of Lap^2, which vanishes identically.
    grid = grid256
    rng = np.random.default_rng(seed)
    basis = PolyBasis.up_to_degree(3)
    u = rng.standard_normal(basis.dimension)
    v = rng.standard_normal(basis.dimension)
    blocks = _blocks(basis, grid, 4)
    total = 0.0
    for j in range(4):
        opu = blocks[j] @ u
        opv = blocks[3 - j] @ v
        total += (-1.0) ** j * float(np.sum(grid.weights * opu * opv))
    assert abs(total) < 1e-8


# ---------------------------------------------------------------------------
# the op_k maps against symbolic differentiation
# ---------------------------------------------------------------------------

X, Y = sp.symbols("x y")
ORACLE_DEGREE = 5


def _sympy_op(k, expr):
    """op_k of a sympy expression: (Lap^(k/2) expr,) or the gradient of
    Lap^((k-1)/2) expr, as in the module docstring."""
    for _ in range(k // 2):
        expr = sp.diff(expr, X, 2) + sp.diff(expr, Y, 2)
    return (expr,) if k % 2 == 0 else (sp.diff(expr, X), sp.diff(expr, Y))


def _sympy_table(k, degree=ORACLE_DEGREE):
    """op_k of every monomial of degree <= ``degree``, one tuple per column."""
    return [_sympy_op(k, X**a * Y**b) for a, b in monomial_exponents(degree)]


@pytest.mark.parametrize("k", range(6))
def test_op_values_match_sympy(k, rng):
    basis = PolyBasis.up_to_degree(ORACLE_DEGREE)
    table = _sympy_table(k)
    pts = rng.uniform(-1.5, 1.5, size=(40, 2))
    # axis-aligned normals pick each gradient component out unmixed
    for comp, nrm in enumerate(np.eye(2) if k % 2 else [None]):
        got = basis.op_values(k, pts, nrm)
        want = np.stack([
            sp.lambdify((X, Y), ops[comp], "numpy")(pts[:, 0], pts[:, 1])
            * np.ones(len(pts))
            for ops in table
        ], axis=-1)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def _origin_value(ops, normal):
    """op_k of a monomial at the origin, dotted with ``normal`` for odd k."""
    vals = [float(e.subs({X: 0, Y: 0})) for e in ops]
    return vals[0] if len(vals) == 1 else normal[0] * vals[0] + normal[1] * vals[1]


@pytest.mark.parametrize("k", range(6))
def test_op_values_at_origin_match_sympy(k, rng):
    basis = PolyBasis.up_to_degree(ORACLE_DEGREE)
    t = rng.uniform(0, 2 * np.pi)
    normal = np.array([np.cos(t), np.sin(t)])
    got = basis.op_values(k, np.zeros(2), normal)
    want = np.array([_origin_value(ops, normal) for ops in _sympy_table(k)])
    assert np.array_equal(got, want)


def test_reproduce_rhs_matches_sympy(disk, monkeypatch):
    # the right-hand sides the reproduction solver meets, bit for bit: op_j
    # of each monomial at the anchor, scaled by radius^-j
    centers = generate_centers(disk, 0.2, seed=0).points
    seen = []
    solve = lpr._min_norm_weights

    def spy(pts, anchors, radius, exps, rhs, *args, **kwargs):
        seen.append((anchors, radius, np.array(rhs)))
        return solve(pts, anchors, radius, exps, rhs, *args, **kwargs)

    monkeypatch.setattr(lpr, "_min_norm_weights", spy)
    t = np.array([0.3, 2.0, 4.4])
    anchors = np.stack([np.cos(t), np.sin(t)], axis=-1)  # unit normals too
    for j in range(4):
        for order in range(ORACLE_DEGREE + 1):
            table = _sympy_table(j, order)
            seen.clear()
            lpr.boundary_reproduction_matrix(j, anchors, anchors, centers, 0.2, order)
            assert seen
            for batch, radius, rhs in seen:
                want = np.array([
                    [_origin_value(ops, nrm) for ops in table] for nrm in batch
                ]) * radius ** (-j)
                assert np.array_equal(rhs, want)
