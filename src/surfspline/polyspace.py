"""Bivariate polynomial spaces and boundary operators acting on them.

A polynomial is a coefficient vector over the monomials ``x^i y^j`` of a
:class:`PolyBasis`.  Differentiation maps that space into itself, so the
boundary operators

    op_0 p = p,   op_k p = Lap^(k/2) p (k even),
    op_k p = n . grad Lap^((k-1)/2) p (k odd)

are exact integer matrices on the coefficients.  Note the odd operators only
*evaluate* the normal field (they never differentiate it), so a point and its
unit normal are all the geometric data required.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PolyBasis",
    "monomial_exponents",
]


def monomial_exponents(degree: int) -> tuple[tuple[int, int], ...]:
    """Exponent pairs of all monomials of total degree <= degree, graded."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    out = []
    for tot in range(degree + 1):
        for i in range(tot, -1, -1):
            out.append((i, tot - i))
    return tuple(out)


@dataclass(frozen=True)
class PolyBasis:
    """Monomial basis: the monomials x^i y^j of its exponent pairs ``(i, j)``."""

    exponents: tuple[tuple[int, int], ...]

    @classmethod
    def up_to_degree(cls, degree: int) -> "PolyBasis":
        return cls(exponents=monomial_exponents(degree))

    @classmethod
    def for_spline_order(cls, m: int) -> "PolyBasis":
        """Basis of the polynomial tail of an order-m surface spline (degree m-1)."""
        if m < 1:
            raise ValueError("spline order must be >= 1")
        return cls.up_to_degree(m - 1)

    @property
    def dimension(self) -> int:
        return len(self.exponents)

    def eval(self, points) -> np.ndarray:
        """Vandermonde array of shape points.shape[:-1] + (dimension,)."""
        pts = np.asarray(points, dtype=float)
        x = pts[..., 0]
        y = pts[..., 1]
        cols = [x**i * y**j for (i, j) in self.exponents]
        return np.stack(cols, axis=-1)

    def op_maps(self, k: int) -> tuple[np.ndarray, ...]:
        """op_k as exact (dimension x dimension) maps on coefficient vectors.

        Column c holds the coefficients of op_k applied to monomial c.  Even
        k gives ``(Lap^(k/2),)``; odd k gives the x and y derivatives of
        Lap^((k-1)/2), still to be dotted with a unit normal.
        """
        if k < 0:
            raise ValueError("operator order must be nonnegative")
        row = {e: r for r, e in enumerate(self.exponents)}
        dx = np.zeros((self.dimension, self.dimension))
        dy = np.zeros_like(dx)
        for col, (i, j) in enumerate(self.exponents):
            if i:
                dx[row[i - 1, j], col] = i
            if j:
                dy[row[i, j - 1], col] = j
        lap = np.linalg.matrix_power(dx @ dx + dy @ dy, k // 2)
        return (lap,) if k % 2 == 0 else (dx @ lap, dy @ lap)

    def op_values(self, k: int, points, normals=None) -> np.ndarray:
        """op_k of every basis monomial at points, shaped like :meth:`eval`.

        Odd k needs the unit normals at the points.
        """
        maps = self.op_maps(k)
        V = self.eval(points)
        if len(maps) == 1:
            return V @ maps[0]
        if normals is None:
            raise ValueError("odd-order boundary operator requires normals")
        nrm = np.asarray(normals, dtype=float)
        return nrm[..., :1] * (V @ maps[0]) + nrm[..., 1:] * (V @ maps[1])
