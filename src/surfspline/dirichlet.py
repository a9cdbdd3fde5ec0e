"""Multilayer solver for the polyharmonic Dirichlet problem.

The boundary value problem solved here: find u with the m-fold Laplacian
vanishing in the domain and with prescribed traces ``op_k u = h_k`` on the
boundary for k = 0 .. m-1 (values, normal derivative, Laplace trace, ...).
The solution is represented as a polynomial of degree m-1 plus m layer
potentials of increasing kernel order,

    u = p + sum_j V_j g_j,      j = 0 .. m-1,

and the densities g_j together with the polynomial coefficients solve a
square system: collocation of the boundary operators on a periodic node
set, bordered by discrete moment conditions on the densities (the moment
conditions remove the polynomial ambiguity and make the bordered matrix
invertible).

All operator blocks op_k V_j in the system have order k + j <= 2m - 2, so
every block is assembled with the spectrally accurate singular quadrature
from :mod:`surfspline.layerpot`.  The bordered matrix inherits the
first-kind character of the smoothing blocks: its condition number grows
like n^(2m-1), which at practical sizes still leaves ample accuracy for
direct LU solution with a step of iterative refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ResidualToleranceError, SingularSystemError
from .geometry import BoundaryGrid
from .kernel import SplineParams
from .layerpot import TraceMaps, layer_potential, nystrom_matrix, one_sided_trace
from .polyspace import PolyBasis
from .targets import TargetFunction

__all__ = [
    "DirichletSolution",
    "assemble_boundary_system",
    "solve_dirichlet",
    "compute_Nj",
    "principal_symbol_matrix",
]

#: largest relative residual of the refined boundary solve
_RESIDUAL_TOL = 1e-8


def principal_symbol_matrix(m: int) -> np.ndarray:
    """Leading symbol of the m x m boundary operator block matrix, at unit
    cotangent frequency.

    Entry (k, j) is the order-(k + j - 2m + 1) leading coefficient of the
    operator op_k V_j; the matrix is checkerboard (zero when k + j is odd)
    with central-binomial entries on the even sites.  Its invertibility is
    what makes the layer representation solvable, so a singular value here
    would be fatal; the ``check-symbols`` CLI subcommand prints these
    matrices and their determinants for a range of orders.
    """
    if m < 1:
        raise ValueError("m must be positive")

    def central(i: int) -> float:
        from math import comb

        return float(comb(2 * i, i))

    sigma = np.zeros((m, m))
    for k in range(m):
        for j in range(m):
            if (k + j) % 2:
                continue
            idx = m - (k + j) // 2 - 1
            base = 2.0 ** (1 + k + j - 2 * m)
            if k % 2 == 0:
                sigma[k, j] = base * central(idx)
            else:
                sigma[k, j] = base * (4 * central(idx) - central(idx + 1))
    return sigma


def assemble_boundary_system(params: SplineParams, grid: BoundaryGrid) -> np.ndarray:
    """Build the bordered matrix [[0, (W P)^T], [P, L]].

    L stacks the m x m operator blocks op_k V_j, from one
    :func:`~surfspline.layerpot.nystrom_matrix` call; P holds op_k of the
    polynomial basis at the nodes; W P carries the quadrature weights so the
    top rows impose the discrete moment conditions sum_j <g_j, op_j q> = 0
    for every basis polynomial q.  Unknowns are ordered (polynomial
    coefficients, density rows).
    """
    m, n = params.m, grid.n
    basis = PolyBasis.for_spline_order(m)
    N = basis.dimension
    P = np.concatenate(
        [basis.op_values(k, grid.points, grid.normals) for k in range(m)]
    )
    WP = P * np.tile(grid.weights, m)[:, None]
    A = np.zeros((N + m * n, N + m * n))
    A[:N, N:] = WP.T
    A[N:, :N] = P
    orders = [(k, j) for k in range(m) for j in range(m)]
    for (k, j), block in zip(orders, nystrom_matrix(params, orders, grid)):
        A[N + k * n : N + (k + 1) * n, N + j * n : N + (j + 1) * n] = block
    return A


@dataclass
class DirichletSolution:
    """Layer-potential solution of the polyharmonic Dirichlet problem."""

    params: SplineParams
    grid: BoundaryGrid
    basis: PolyBasis
    poly_coeffs: np.ndarray  # (N,)
    densities: np.ndarray  # (m, n)
    residual: float
    rcond: float
    #: largest last extrapolation correction of the inside traces that
    #: :func:`compute_Nj` took of this solution (NaN until it has)
    trace_estimate: float = float("nan")

    def poly_eval(self, points) -> np.ndarray:
        return self.basis.eval(points) @ self.poly_coeffs

    def evaluate(self, points) -> np.ndarray:
        """u = p + sum_j V_j g_j at interior (or exterior) points."""
        pts = np.asarray(points, dtype=float)
        out = self.poly_eval(pts)
        orders = range(self.params.m)
        for row in layer_potential(self.params, orders, self.grid, self.densities, pts):
            out = out + row
        return out

    def boundary_trace(self, k: int, side: str = "inside"):
        """One-sided nodal trace of op_k u, including the polynomial part."""
        vals, est = one_sided_trace(self.params, self.densities, self.grid, k, side)
        poly = self.basis.op_values(k, self.grid.points, self.grid.normals)
        return vals + poly @ self.poly_coeffs, est


def solve_dirichlet(params: SplineParams, grid: BoundaryGrid, data) -> DirichletSolution:
    """Solve the Dirichlet problem with nodal data rows op_k f, k < m.

    ``data`` may be an (m, n) array of boundary values or a
    :class:`~surfspline.targets.TargetFunction`, in which case the rows are
    its traces on the grid.  One LU factorization of the bordered system
    solves for the solution and for the inverse; the solution is polished
    with one round of iterative refinement through the inverse and rejected
    if the relative residual stays above :data:`_RESIDUAL_TOL`.  The
    reciprocal condition number is the exact 1-norm one,
    1 / (||A||_1 ||A^-1||_1).
    """
    if isinstance(data, TargetFunction):
        data = data.boundary_data(grid)
    data = np.asarray(data, dtype=float)
    m, n = params.m, grid.n
    if data.shape != (m, n):
        raise ValueError(f"boundary data must have shape {(m, n)}, got {data.shape}")
    A = assemble_boundary_system(params, grid)
    basis = PolyBasis.for_spline_order(m)
    N = basis.dimension
    rhs = np.concatenate([np.zeros(N), data.ravel()])
    try:
        sol = np.linalg.solve(A, np.column_stack([rhs, np.eye(len(A))]))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"boundary system is singular: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise SingularSystemError("boundary system solve produced non-finite values")
    z, A_inv = sol[:, 0], sol[:, 1:]
    z = z + A_inv @ (rhs - A @ z)
    scale = max(float(np.max(np.abs(rhs))), 1e-300)
    residual = float(np.max(np.abs(rhs - A @ z))) / scale
    if residual > _RESIDUAL_TOL:
        raise ResidualToleranceError(
            f"boundary system residual {residual:.3e} exceeds {_RESIDUAL_TOL:.1e}"
        )
    rcond = 1.0 / (np.linalg.norm(A, 1) * np.linalg.norm(A_inv, 1))
    return DirichletSolution(
        params=params,
        grid=grid,
        basis=basis,
        poly_coeffs=z[:N],
        densities=z[N:].reshape(m, n),
        residual=residual,
        rcond=float(rcond),
    )


def compute_Nj(
    params: SplineParams,
    grid: BoundaryGrid,
    f: TargetFunction,
    traces: TraceMaps | None = None,
) -> tuple[np.ndarray, DirichletSolution]:
    """Boundary source densities of the multilayer representation of ``f``.

    Solves the Dirichlet problem with data ``op_k f`` for ``k < m``, giving a
    boundary potential u that matches the low-order traces of ``f``.  The
    density that pairs with the order-j trace of the kernel in the volume
    representation is then

        N_j f = g_j + (-1)^(j+1) * (op_{2m-1-j} f - op_{2m-1-j} u|_inside),

    where g_j is the solved layer density and the inner trace of u is taken
    by one-sided extrapolation.  ``traces`` are the default
    :class:`~surfspline.layerpot.TraceMaps` of ``grid``, which depend on the
    grid only, so a caller that solves on one grid many times builds them
    once; without them they are built here.  Returns the (m, n) density
    array together with the underlying Dirichlet solution (whose polynomial
    part completes the representation, and whose ``trace_estimate`` holds
    the largest extrapolation correction of the inner traces).
    """
    m = params.m
    if traces is None:
        traces = TraceMaps(params, grid)
    traces.check(params, grid)
    sol = solve_dirichlet(params, grid, f.boundary_data(grid))
    rows = np.empty((m, grid.n))
    est_max = 0.0
    for j in range(m):
        k = 2 * m - 1 - j
        lam_f = f.trace(k, grid.points, grid.normals)
        vals, est = traces.apply(k, sol.densities)
        lam_u = vals + sol.basis.op_values(k, grid.points, grid.normals) @ sol.poly_coeffs
        est_max = max(est_max, float(np.max(est)))
        sign = -1.0 if j % 2 == 0 else 1.0
        rows[j] = sol.densities[j] + sign * (lam_f - lam_u)
    return rows, replace(sol, trace_estimate=est_max)
