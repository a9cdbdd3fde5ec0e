"""Target functions with exact boundary traces and interior m-Laplacians.

A ``TargetFunction`` bundles everything the solver and the approximation
scheme need to know about a function f: pointwise values, the m-fold
Laplacian (the interior density of the representation), and the boundary
traces op_k f for k = 0 .. 2m-1.  Targets are built symbolically and
lambdified, so all traces are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import sympy as sp

__all__ = ["TargetFunction", "target_from_expression", "named_target", "TARGET_LIBRARY"]

_X, _Y = sp.symbols("x y", real=True)


def _lambdify(expr):
    fn = sp.lambdify((_X, _Y), expr, modules="numpy")

    def wrapped(points):
        pts = np.asarray(points, dtype=float)
        out = fn(pts[..., 0], pts[..., 1])
        return np.broadcast_to(np.asarray(out, dtype=float), pts.shape[:-1]).copy()

    return wrapped


@dataclass
class TargetFunction:
    """Function with exact traces used as approximation target."""

    name: str
    values: Callable
    m_laplacian: Callable
    _trace_even: dict = field(default_factory=dict)   # k -> callable(points)
    _trace_odd: dict = field(default_factory=dict)    # k -> (fx, fy) callables
    m: int = 2

    def __call__(self, points):
        return self.values(points)

    def trace(self, k: int, points, normals=None):
        """Boundary trace op_k f; odd k dots the gradient with ``normals``."""
        if k % 2 == 0:
            return self._trace_even[k](points)
        if normals is None:
            raise ValueError("odd trace requires normals")
        fx, fy = self._trace_odd[k]
        nrm = np.asarray(normals, dtype=float)
        return nrm[..., 0] * fx(points) + nrm[..., 1] * fy(points)

    def boundary_data(self, grid) -> np.ndarray:
        """Dirichlet data rows (op_k f on the grid for k = 0 .. m-1)."""
        return np.stack(
            [self.trace(k, grid.points, grid.normals) for k in range(self.m)]
        )


def target_from_expression(expr, m: int, name: str | None = None) -> TargetFunction:
    """Build a target from a sympy expression (or parseable string) in x, y."""
    if isinstance(expr, sp.Expr):
        # replace any same-named symbols so differentiation sees our x, y
        e = expr.subs({s: {"x": _X, "y": _Y}[s.name] for s in expr.free_symbols})
    else:
        e = sp.sympify(expr, locals={"x": _X, "y": _Y})
    lap = e
    even = {}
    odd = {}
    for k in range(0, 2 * m, 2):
        even[k] = _lambdify(lap)
        g = lap
        odd_k = k + 1
        if odd_k <= 2 * m - 1:
            odd[odd_k] = (_lambdify(sp.diff(g, _X)), _lambdify(sp.diff(g, _Y)))
        lap = sp.simplify(sp.diff(lap, _X, 2) + sp.diff(lap, _Y, 2))
    mlap = lap  # the loop applies the Laplacian once per pass, m passes total
    return TargetFunction(
        name=name or str(e),
        values=even[0],
        m_laplacian=_lambdify(mlap),
        _trace_even=even,
        _trace_odd=odd,
        m=m,
    )


#: named closed-form targets available to the CLI and the experiment drivers
TARGET_LIBRARY: dict[str, tuple] = {
    # name: (expression, note)
    "poly1": ("1 + 2*x - y", "degree-1 polynomial (reproduced exactly)"),
    "harmonic3": ("x**3 - 3*x*y**2", "Re((x+iy)^3), harmonic"),
    "biharm": ("(x**2 + y**2)*x", "|x|^2 x, biharmonic, not harmonic"),
    "cubicmix": ("x**2*y", "biharmonic monomial"),
    "quartic": ("x**4 + y**4", "quartic, m-Laplacian = 48 (m=2)"),
    "expx": ("exp(x)", "entire, not polyharmonic of any finite order"),
    "expcos": ("exp(x)*cos(y)", "Re(e^z), harmonic"),
    "gauss": ("exp(-(x**2 + y**2))", "radial Gaussian"),
    "wave": ("sin(2*x + y)", "plane wave"),
}


def named_target(name: str, m: int) -> TargetFunction:
    try:
        expr, _ = TARGET_LIBRARY[name]
    except KeyError as exc:
        known = ", ".join(sorted(TARGET_LIBRARY))
        raise KeyError(f"unknown target {name!r}; known targets: {known}") from exc
    return target_from_expression(expr, m=m, name=name)
