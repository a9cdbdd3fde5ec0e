"""Bivariate polynomial spaces and boundary operators acting on them.

Polynomials are represented sparsely as ``{(i, j): coeff}`` dictionaries over
monomials ``x^i y^j``; Laplacians and gradients are computed exactly on the
exponents, so the boundary operators

    op_0 p = p,   op_k p = Lap^(k/2) p (k even),
    op_k p = n . grad Lap^((k-1)/2) p (k odd)

are evaluated in closed form.  Note the odd operators only *evaluate* the
normal field (they never differentiate it), so a point and its unit normal
are all the geometric data required.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "PolyBasis",
    "monomial_exponents",
    "poly_laplacian",
    "poly_gradient",
    "poly_eval",
    "boundary_op_values",
    "side_condition_matrix",
]

Poly = dict[tuple[int, int], float]


def monomial_exponents(degree: int) -> tuple[tuple[int, int], ...]:
    """Exponent pairs of all monomials of total degree <= degree, graded."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    out = []
    for tot in range(degree + 1):
        for i in range(tot, -1, -1):
            out.append((i, tot - i))
    return tuple(out)


def poly_laplacian(p: Poly) -> Poly:
    out: Poly = {}
    for (i, j), c in p.items():
        if i >= 2:
            key = (i - 2, j)
            out[key] = out.get(key, 0.0) + c * i * (i - 1)
        if j >= 2:
            key = (i, j - 2)
            out[key] = out.get(key, 0.0) + c * j * (j - 1)
    return {k: v for k, v in out.items() if v != 0.0}


def poly_gradient(p: Poly) -> tuple[Poly, Poly]:
    gx: Poly = {}
    gy: Poly = {}
    for (i, j), c in p.items():
        if i >= 1:
            gx[(i - 1, j)] = gx.get((i - 1, j), 0.0) + c * i
        if j >= 1:
            gy[(i, j - 1)] = gy.get((i, j - 1), 0.0) + c * j
    return gx, gy


def poly_eval(p: Poly, points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    x = pts[..., 0]
    y = pts[..., 1]
    out = np.zeros_like(x)
    for (i, j), c in p.items():
        out = out + c * x**i * y**j
    return out


def _op_applied(k: int, p_items: tuple) -> tuple:
    """Apply the order-k boundary operator symbolically.

    Returns ("even", q) with a plain polynomial, or ("odd", qx, qy) with the
    two gradient components still to be dotted with a unit normal.
    """
    p: Poly = dict(p_items)
    for _ in range(k // 2):
        p = poly_laplacian(p)
    if k % 2 == 0:
        return ("even", tuple(sorted(p.items())))
    gx, gy = poly_gradient(p)
    return ("odd", tuple(sorted(gx.items())), tuple(sorted(gy.items())))


@lru_cache(maxsize=4096)
def _op_applied_cached(k: int, p_items: tuple) -> tuple:
    return _op_applied(k, p_items)


def boundary_op_values(k: int, p: Poly, points, normals=None) -> np.ndarray:
    """Evaluate op_k p at points (odd k needs the unit normals there)."""
    if k < 0:
        raise ValueError("operator order must be nonnegative")
    tag, *rest = _op_applied_cached(k, tuple(sorted(p.items())))
    if tag == "even":
        return poly_eval(dict(rest[0]), points)
    if normals is None:
        raise ValueError("odd-order boundary operator requires normals")
    nrm = np.asarray(normals, dtype=float)
    return nrm[..., 0] * poly_eval(dict(rest[0]), points) + nrm[..., 1] * poly_eval(
        dict(rest[1]), points
    )


@dataclass(frozen=True)
class PolyBasis:
    """Monomial basis of polynomials of total degree <= ``degree``."""

    degree: int
    exponents: tuple[tuple[int, int], ...]

    @classmethod
    def up_to_degree(cls, degree: int) -> "PolyBasis":
        return cls(degree=degree, exponents=monomial_exponents(degree))

    @classmethod
    def for_spline_order(cls, m: int) -> "PolyBasis":
        """Basis of the polynomial tail of an order-m surface spline (degree m-1)."""
        if m < 1:
            raise ValueError("spline order must be >= 1")
        return cls.up_to_degree(m - 1)

    @property
    def dimension(self) -> int:
        return len(self.exponents)

    def polynomials(self) -> list[Poly]:
        return [{e: 1.0} for e in self.exponents]

    def eval(self, points) -> np.ndarray:
        """Vandermonde array of shape points.shape[:-1] + (dimension,)."""
        pts = np.asarray(points, dtype=float)
        x = pts[..., 0]
        y = pts[..., 1]
        cols = [x**i * y**j for (i, j) in self.exponents]
        return np.stack(cols, axis=-1)

    def combine(self, coeffs) -> Poly:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.dimension,):
            raise ValueError("coefficient vector has wrong length")
        return {
            e: float(c) for e, c in zip(self.exponents, coeffs) if c != 0.0
        }


def side_condition_matrix(basis: PolyBasis, grid, n_ops: int) -> np.ndarray:
    """Boundary-operator values of the basis on a grid, shape (n_ops, n, N).

    Entry ``[k, i, j]`` is op_k applied to the j-th basis polynomial at the
    i-th grid node.  Block ``k`` enters the collocation rows of the augmented
    Dirichlet system directly, and its weighted transpose forms the moment
    (side-condition) rows.
    """
    blocks = np.empty((n_ops, grid.n, basis.dimension))
    for jcol, p in enumerate(basis.polynomials()):
        for k in range(n_ops):
            blocks[k, :, jcol] = boundary_op_values(k, p, grid.points, grid.normals)
    return blocks
