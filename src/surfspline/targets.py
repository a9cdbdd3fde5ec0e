"""Target functions with exact boundary traces and interior m-Laplacians.

A ``TargetFunction`` bundles everything the solver and the approximation
scheme need to know about a function f: pointwise values, the m-fold
Laplacian (the interior density of the representation), and the boundary
traces op_k f for k = 0 .. 2m-1.  Every named target belongs to one of
three closed-form families, whose op_k are exact formulas on numpy:

* polynomials, a coefficient vector over a :class:`PolyBasis`, where op_k
  is the exact map ``PolyBasis.op_values``;
* exponential plane waves f = Re(c e^(a.x)) with a in C^2, where
  Lap^i f = Re(c (a.a)^i e^(a.x)) and grad Lap^i f = Re(c (a.a)^i a e^(a.x));
* the radial Gaussian e^(-r^2), where Lap^i e^(-s) = p_i(s) e^(-s) with
  s = r^2 and integer polynomials p_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import Polynomial

from .polyspace import PolyBasis

__all__ = ["TargetFunction", "named_target", "TARGET_LIBRARY"]


@dataclass(frozen=True)
class TargetFunction:
    """Function with exact traces used as approximation target.

    ``op(k, points, normals)`` returns op_k f for k = 0 .. 2m, where op_2m f
    is the m-fold Laplacian; odd k dots the gradient with ``normals``.
    """

    name: str
    m: int
    op: Callable

    def __call__(self, points):
        return self.op(0, np.asarray(points, dtype=float), None)

    def m_laplacian(self, points):
        return self.op(2 * self.m, np.asarray(points, dtype=float), None)

    def trace(self, k: int, points, normals=None):
        """Boundary trace op_k f; odd k dots the gradient with ``normals``."""
        if not 0 <= k < 2 * self.m:
            raise ValueError(
                f"trace order k = {k} is outside 0 .. {2 * self.m - 1} for m = {self.m}"
            )
        if k % 2 and normals is None:
            raise ValueError("odd trace requires normals")
        nrm = None if normals is None else np.asarray(normals, dtype=float)
        return self.op(k, np.asarray(points, dtype=float), nrm)

    def boundary_data(self, grid) -> np.ndarray:
        """Dirichlet data rows (op_k f on the grid for k = 0 .. m-1)."""
        return np.stack(
            [self.trace(k, grid.points, grid.normals) for k in range(self.m)]
        )


def _polynomial(coeffs: dict[tuple[int, int], float]) -> Callable:
    """op_k of the polynomial sum c_ij x^i y^j, through ``PolyBasis.op_values``."""
    basis = PolyBasis.up_to_degree(max(i + j for i, j in coeffs))
    c = np.array([float(coeffs.get(e, 0)) for e in basis.exponents])

    def op(k, points, normals):
        return basis.op_values(k, points, normals) @ c

    return op


def _plane_wave(c: complex, a: tuple[complex, complex]) -> Callable:
    """op_k of f = Re(c e^(a.x)), each term in the real form
    e^(Re a.x) (Re g cos(Im a.x) - Im g sin(Im a.x)) for its constant g."""
    ax, ay = complex(a[0]), complex(a[1])
    aa = ax * ax + ay * ay

    def op(k, points, normals):
        x, y = points[..., 0], points[..., 1]
        growth = np.exp(ax.real * x + ay.real * y)
        phase = ax.imag * x + ay.imag * y
        cos, sin = np.cos(phase), np.sin(phase)

        def term(g):
            return growth * (g.real * cos - g.imag * sin)

        g = c * aa ** (k // 2)
        if k % 2 == 0:
            return term(g)
        return normals[..., 0] * term(g * ax) + normals[..., 1] * term(g * ay)

    return op


def _gaussian() -> Callable:
    """op_k of e^(-r^2): Lap^i e^(-s) = p_i(s) e^(-s) with s = r^2, p_0 = 1 and
    p_(i+1) = 4s (p_i'' - 2p_i' + p_i) + 4(p_i' - p_i), whose coefficients are
    integers; the gradient of p_i(s) e^(-s) is 2 (p_i' - p_i)(s) e^(-s) x.
    p_i and 2 (p_i' - p_i) are built on the first use of order i."""
    terms = {}  # i -> (p_i, 2 (p_i' - p_i))

    def op(k, points, normals):
        i = k // 2
        if i not in terms:
            p = Polynomial([1])
            for _ in range(i):
                p = 4 * Polynomial([0, 1]) * (p.deriv(2) - 2 * p.deriv() + p) + 4 * (p.deriv() - p)
            terms[i] = (p, 2 * (p.deriv() - p))
        p, grad = terms[i]
        x, y = points[..., 0], points[..., 1]
        s = x**2 + y**2
        decay = np.exp(-s)
        if k % 2 == 0:
            return p(s) * decay
        radial = grad(s) * decay
        return normals[..., 0] * (radial * x) + normals[..., 1] * (radial * y)

    return op


#: named closed-form targets available to the CLI and the experiment drivers
TARGET_LIBRARY: dict[str, tuple[str, str, Callable]] = {
    # name: (expression in x and y, note, op_k of the closed form)
    "poly1": (
        "1 + 2*x - y",
        "degree-1 polynomial (reproduced exactly)",
        _polynomial({(0, 0): 1, (1, 0): 2, (0, 1): -1}),
    ),
    "harmonic3": (
        "x**3 - 3*x*y**2",
        "Re((x+iy)^3), harmonic",
        _polynomial({(3, 0): 1, (1, 2): -3}),
    ),
    "biharm": (
        "(x**2 + y**2)*x",
        "|x|^2 x, biharmonic, not harmonic",
        _polynomial({(3, 0): 1, (1, 2): 1}),
    ),
    "cubicmix": ("x**2*y", "biharmonic monomial", _polynomial({(2, 1): 1})),
    "quartic": (
        "x**4 + y**4",
        "quartic, m-Laplacian = 48 (m=2)",
        _polynomial({(4, 0): 1, (0, 4): 1}),
    ),
    "expx": ("exp(x)", "entire, not polyharmonic of any finite order", _plane_wave(1, (1, 0))),
    "expcos": ("exp(x)*cos(y)", "Re(e^z), harmonic", _plane_wave(1, (1, 1j))),
    "gauss": ("exp(-(x**2 + y**2))", "radial Gaussian", _gaussian()),
    "wave": ("sin(2*x + y)", "plane wave", _plane_wave(-1j, (2j, 1j))),
}


def named_target(name: str, m: int) -> TargetFunction:
    try:
        _, _, op = TARGET_LIBRARY[name]
    except KeyError as exc:
        known = ", ".join(sorted(TARGET_LIBRARY))
        raise KeyError(f"unknown target {name!r}; known targets: {known}") from exc
    return TargetFunction(name=name, m=m, op=op)
