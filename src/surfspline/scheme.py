"""Quasi-interpolation operator, interior quadrature, and global extension.

The approximation operator maps a smooth target f to a finite combination

    T f = sum_xi A_xi phi(. - xi) + p,

where the coefficients discretize the volume/boundary representation of f:
the interior part integrates ``Delta^m f`` against local reproduction
kernels, the boundary part integrates the multilayer densities ``N_j f``
against boundary reproduction kernels, and p is the polynomial part of the
underlying Dirichlet solve.  The same representation, with kernels replaced
by the exact translates, evaluates f itself (inside) and its minimal-energy
extension (outside); both variants live here, together with the polar
interior quadrature and the error-kernel diagnostics that drive the
convergence experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dirichlet import compute_Nj
from .errors import StarShapeError
from .geometry import BoundaryGrid, CenterSet, DomainCurve
from .kernel import SplineParams, boundary_kernel, phi_from_r2, tiles
from .layerpot import TraceMaps, _neville_limit, layer_potential, trig_upsample
from .lpr import (
    GAMMA_BOUNDARY_DEFAULT,
    GAMMA_DEFAULT,
    boundary_reproduction_matrix,
    interior_reproduction_matrix,
)
from .polyspace import PolyBasis
from .targets import TargetFunction

__all__ = [
    "InteriorQuadrature",
    "interior_quadrature",
    "volume_potential",
    "greens_representation",
    "SchemeGrids",
    "scheme_grids",
    "Approximant",
    "assemble_TXi",
    "eval_approximant",
    "ExtensionField",
    "extension_continuity",
    "annihilation_check",
    "error_kernel_norms",
    "boundary_support_is_local",
]

#: fewest radial nodes of the extension's volume term
_EXTENSION_LEVEL_FLOOR = 24

#: boundary points at which extension_continuity compares the two limits
_CONTINUITY_PROBES = 12

#: bounding-box grid of the interior probes of error_kernel_norms
_KERNEL_PROBE_GRID = 48


def _tile_buffers(bounds, n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The two scratch arrays of :func:`_phi_matrix` for the largest of the
    row ranges ``bounds`` against ``n_cols`` columns."""
    size = max((hi - lo for lo, hi in bounds), default=0) * n_cols
    return np.empty(size), np.empty(size)


def _phi_matrix(params: SplineParams, x: np.ndarray, xi: np.ndarray, buf=None) -> np.ndarray:
    """phi(|x_i - xi_j|) as an (n_x, n_xi) block.

    r^2 is formed from coordinate differences, (x - xi_x)^2 + (y - xi_y)^2,
    so each entry depends only on its own pair and never on the block.  A
    tile loop passes the same :func:`_tile_buffers` ``buf`` to every tile:
    the first array takes r^2 and then the values, the second the squared
    y-differences and then log r^2, and the block returned is a view of the
    first that the next call overwrites.
    """
    shape = (x.shape[0], xi.shape[0])
    if buf is None:
        buf = _tile_buffers([(0, shape[0])], shape[1])
    r2, dy = (b[: shape[0] * shape[1]].reshape(shape) for b in buf)
    np.subtract.outer(x[:, 0], xi[:, 0], out=r2)
    r2 *= r2
    np.subtract.outer(x[:, 1], xi[:, 1], out=dy)
    dy *= dy
    r2 += dy
    return phi_from_r2(params, r2, dy)


# ---------------------------------------------------------------------------
# interior quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InteriorQuadrature:
    """Polar tensor rule over the domain interior.

    Gauss nodes in radius (per angular ray, mapped to the boundary) crossed
    with a uniform trapezoid rule in angle; exact for the radial polynomial
    factor and spectrally accurate in angle for the analytic boundary
    radius.
    """

    nodes: np.ndarray
    weights: np.ndarray
    level: int

    def __len__(self) -> int:
        return self.nodes.shape[0]


def _ray_rule(level: int, n_theta: int):
    """The radial factor of a polar rule with ``n_theta`` rays: a function
    taking ray lengths R (with a trailing axis of one) to the nodes s = R u
    and the weights (2 pi / n_theta) (R wu) s of the area element s ds
    dtheta, for the ``level`` Gauss-Legendre nodes u and weights wu on [0, 1].
    """
    u, wu = np.polynomial.legendre.leggauss(level)
    u = 0.5 * (u + 1.0)
    wu = 0.5 * wu

    def nodes_and_weights(rays):
        s = rays * u
        return s, (2 * np.pi / n_theta) * (rays * wu) * s

    return nodes_and_weights


def _check_star_shaped(curve: DomainCurve) -> None:
    t = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
    g = curve.point(t)
    psi = np.arctan2(g[:, 1], g[:, 0])
    rr = np.hypot(g[:, 0], g[:, 1])
    if not np.allclose(rr, curve.polar_radius(psi), rtol=1e-10, atol=1e-12):
        raise StarShapeError(
            f"curve {curve!r} is not star-shaped about the origin; "
            "the polar interior rule does not apply"
        )


def interior_quadrature(curve: DomainCurve, level: int) -> InteriorQuadrature:
    """Boundary-conforming polar quadrature with ``level`` radial nodes.

    The angular count scales with the rim arclength so that node spacing is
    roughly isotropic near the boundary.  Requires the domain star-shaped
    about the origin (true for the built-in curve families, whose centroids
    sit there).
    """
    if level < 2:
        raise ValueError("quadrature level must be at least 2")
    _check_star_shaped(curve)
    n_theta = int(np.ceil(curve.arclength() * level / curve.max_radius() / 2)) * 2
    n_theta = max(n_theta, 16)
    theta = 2 * np.pi * np.arange(n_theta) / n_theta
    r, w = _ray_rule(level, n_theta)(curve.polar_radius(theta)[:, None])
    nodes = np.stack(
        [r * np.cos(theta)[:, None], r * np.sin(theta)[:, None]], axis=-1
    ).reshape(-1, 2)
    return InteriorQuadrature(
        nodes=nodes, weights=w.reshape(-1), level=level
    )


def volume_potential(
    params: SplineParams,
    curve: DomainCurve,
    density_fn,
    points,
    level: int,
) -> np.ndarray:
    """``integral_Omega density(a) phi(x - a) da`` for interior points x.

    Integrates in polar coordinates about each evaluation point, which turns
    the kernel into the smooth radial profile phi(s) s; rays are cut at the
    boundary by bisection.  Assumes the domain is star-shaped as seen from
    every evaluation point (guaranteed on convex domains).

    The rays are bisected over :func:`~surfspline.kernel.tiles` of the points
    against the ``n_theta`` rays, and the nodes, weights, densities and
    kernel values are formed over tiles against the ``n_theta * level``
    nodes, with one ``density_fn`` call per tile and the kernel values in
    the buffers of the largest tile.  Each point's value is one
    sum over its own nodes, so it does not depend on the tiling.
    """
    pts = np.asarray(points, dtype=float)
    n_theta = max(64, 4 * level)
    theta = 2 * np.pi * np.arange(n_theta) / n_theta
    rule = _ray_rule(level, n_theta)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    n = pts.shape[0]
    s_exit = np.empty((n, n_theta))
    for lo, hi in tiles(n, n_theta):
        s_exit[lo:hi] = curve.ray_exit(pts[lo:hi], theta)
    out = np.empty(n)
    bounds = list(tiles(n, n_theta * level))
    buf = _tile_buffers(bounds, n_theta * level)
    for lo, hi in bounds:
        s, w = rule(s_exit[lo:hi, :, None])  # (tile, n_theta, level)
        alpha = pts[lo:hi, None, None, :] + s[..., None] * dirs[:, None, :]
        dens = np.asarray(density_fn(alpha.reshape(-1, 2))).reshape(s.shape)
        s2, log_s2 = (b[: s.size].reshape(s.shape) for b in buf)
        np.multiply(s, s, out=s2)
        terms = w * dens * phi_from_r2(params, s2, log_s2)
        out[lo:hi] = np.sum(terms.reshape(hi - lo, -1), axis=1)
    return out


def greens_representation(
    params: SplineParams,
    curve: DomainCurve,
    f: TargetFunction,
    n: int,
    level: int,
    points,
) -> np.ndarray:
    """Reconstruct f at interior points from its m-fold Laplacian and all
    2m boundary traces.

    Evaluates the identity  f = volume potential of Delta^m f
    + sum_j (-1)^j V_{2m-1-j}[op_j f]; the alternating boundary sum is what
    cancels the contributions of intermediate derivatives.  Serves as the
    independent oracle for the kernel normalization constant.
    """
    pts = np.asarray(points, dtype=float)
    grid = BoundaryGrid.build(curve, n)
    slots, rows = _full_traces(params.m, grid, f)
    vals = volume_potential(params, curve, f.m_laplacian, pts, level)
    return vals + sum(layer_potential(params, slots, grid, rows, pts))


def _full_traces(m: int, grid: BoundaryGrid, f: TargetFunction):
    """Slots and rows of the full-trace sum ``sum_j (-1)^j V_{2m-1-j}[op_j f]``.

    Row j is ``(-1)^j op_j f`` on the grid and charges slot 2m-1-j: the sign
    sits in the row, as V(-g) = -V(g) holds bit for bit.  Inside the domain
    the sum is f minus the volume potential of Delta^m f; outside, where f
    contributes nothing, it is minus that volume potential.  Callers add a
    call's potentials with the builtin ``sum``, row after row from zero.
    """
    rows = [(-1.0) ** j * f.trace(j, grid.points, grid.normals) for j in range(2 * m)]
    return tuple(range(2 * m - 1, -1, -1)), np.stack(rows)


# ---------------------------------------------------------------------------
# grids bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchemeGrids:
    """Discretization bundle shared by assembly, identity checks, and the
    extension: the boundary-equation grid, the interior rule, and the
    (possibly finer) grid carrying the boundary coefficient sums."""

    curve: DomainCurve
    boundary: BoundaryGrid
    quadrature: InteriorQuadrature
    boundary_nodes: BoundaryGrid


def _quadrature_level(curve: DomainCurve, h: float) -> int:
    """Radial nodes of the interior rule at fill distance h: spacing ~ h/2."""
    return max(16, int(np.ceil(curve.diameter() / h)))


def scheme_grids(
    curve: DomainCurve,
    h: float,
    *,
    nu: float | None = None,
    n_solver: int = 256,
) -> SchemeGrids:
    """Default grids for assembling at fill distance ``h``.

    The interior rule resolves spacing ~ h/2; the boundary coefficient grid
    resolves half the boundary-zone spacing (h, or h^nu when oversampling),
    and never falls below the solver grid.
    """
    h_local = h if nu is None else h**nu
    n_nodes = max(n_solver, int(np.ceil(curve.arclength() / (0.5 * h_local))))
    n_nodes += n_nodes % 2
    boundary = BoundaryGrid.build(curve, n_solver)
    nodes = boundary if n_nodes == n_solver else BoundaryGrid.build(curve, n_nodes)
    return SchemeGrids(
        curve=curve,
        boundary=boundary,
        quadrature=interior_quadrature(curve, _quadrature_level(curve, h)),
        boundary_nodes=nodes,
    )


# ---------------------------------------------------------------------------
# the approximant
# ---------------------------------------------------------------------------


@dataclass
class Approximant:
    """Finite kernel expansion sum A_xi phi(. - xi) + p."""

    params: SplineParams
    centers: np.ndarray
    coefficients: np.ndarray
    basis: PolyBasis
    poly_coeffs: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def poly_eval(self, points) -> np.ndarray:
        return self.basis.eval(points) @ self.poly_coeffs

    def save_csv(self, path) -> None:
        """Write centers with coefficients and the polynomial part.

        One row per item: ``kind,x,y,value`` where kind ``center`` carries
        (xi_x, xi_y, A_xi) and kind ``poly`` carries (exponent_x,
        exponent_y, coefficient).
        """
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("kind,x,y,value\n")
            for (i, j), c in zip(self.basis.exponents, self.poly_coeffs):
                fh.write(f"poly,{i},{j},{float(c)!r}\n")
            for (x, y), a in zip(self.centers, self.coefficients):
                fh.write(f"center,{float(x)!r},{float(y)!r},{float(a)!r}\n")


def eval_approximant(apx: Approximant, points):
    """Evaluate the kernel expansion at the ``(n, 2)`` array ``points``.

    The kernel sum runs over :func:`~surfspline.kernel.tiles` of the points
    against the centers; a point's value does not depend on the tile budget
    :data:`~surfspline.kernel.TILE_ENTRIES`.
    """
    pts = np.asarray(points, dtype=float)
    out = apx.poly_eval(pts)
    if apx.centers.shape[0]:
        bounds = list(tiles(pts.shape[0], apx.centers.shape[0]))
        buf = _tile_buffers(bounds, apx.centers.shape[0])
        for lo, hi in bounds:
            ker = _phi_matrix(apx.params, pts[lo:hi], apx.centers, buf)
            out[lo:hi] += ker @ apx.coefficients
    return out


def _reproductions(nodes, grid: BoundaryGrid, centers: CenterSet, m: int, M: int):
    """The interior reproductions at ``nodes`` and the order-j boundary ones,
    j < m, at ``grid``, all of order M and none wider than 1.5 diameters of
    its curve.
    Boundary balls scale with the boundary spacing h^nu of an oversampled
    set and ``GAMMA_DEFAULT``, else with h and ``GAMMA_BOUNDARY_DEFAULT``."""
    X, h = centers.points, centers.target_h
    oversampled = centers.boundary_spacing is not None
    h_local = centers.boundary_spacing if oversampled else h
    # the refined boundary zone is only ~2m layers of h_local deep, so the
    # half-neighborhood argument for the larger prefactor does not apply
    # there: a nominal ball matching the zone thickness stays well
    # conditioned, while a 2x one degenerates into a thin slab and
    # triggers locality-destroying growth
    gamma_boundary = GAMMA_DEFAULT if oversampled else GAMMA_BOUNDARY_DEFAULT
    max_radius = 1.5 * grid.curve.diameter()
    interior = interior_reproduction_matrix(nodes, X, h, M, max_radius=max_radius)
    return interior, [
        boundary_reproduction_matrix(
            j, grid.points, grid.normals, X, h_local, M,
            gamma=gamma_boundary, max_radius=max_radius,
        )
        for j in range(m)
    ]


def assemble_TXi(
    f: TargetFunction,
    centers: CenterSet,
    grids: SchemeGrids,
    traces: TraceMaps | None = None,
) -> Approximant:
    """Assemble the quasi-interpolant of f on the given center set.

    Interior: A_xi += sum_q w_q a(alpha_q, xi) Delta^m f(alpha_q) over the
    interior rule.  Boundary: A_xi += sum_j sum_i w_i a_j(x_i, xi) N_j f(x_i)
    over the boundary coefficient grid, with the reproductions of
    :func:`_reproductions`.  The polynomial part is the one the Dirichlet solve
    produces, so the operator is linear in f.  ``traces`` are the trace maps
    of ``grids.boundary`` that :func:`~surfspline.dirichlet.compute_Nj`
    applies; they are built there when not given.
    """
    params = SplineParams(m=f.m, d=2)
    quad, bn = grids.quadrature, grids.boundary_nodes
    (A_int, stab_i, _), boundary = _reproductions(quad.nodes, bn, centers, params.m, 2 * params.m)
    lap = np.asarray(f.m_laplacian(quad.nodes))
    coeffs = A_int.T @ (quad.weights * lap)

    nj_rows, solution = compute_Nj(params, grids.boundary, f, traces)
    stab_b = {}
    for j, (B_j, s_j, _) in enumerate(boundary):
        stab_b[j] = float(np.max(s_j))
        coeffs += B_j.T @ (bn.weights * trig_upsample(nj_rows[j], bn.n))

    return Approximant(
        params=params,
        centers=centers.points,
        coefficients=np.asarray(coeffs).ravel(),
        basis=solution.basis,
        poly_coeffs=solution.poly_coeffs,
        diagnostics={
            "interior_stability_max": float(np.max(stab_i)),
            "boundary_stability_max": stab_b,
            "n_quadrature": len(quad),
            "n_boundary_nodes": bn.n,
            "solver_rcond": solution.rcond,
            "trace_estimate_max": solution.trace_estimate,
        },
    )


# ---------------------------------------------------------------------------
# the global extension
# ---------------------------------------------------------------------------


class ExtensionField:
    """Volume-plus-multilayer field that equals f inside the domain and its
    finite-energy continuation outside.

    Points are sorted by the curve's polar inside test, and each side makes
    one :func:`~surfspline.layerpot.layer_potential` call.  Inside, the
    volume term integrates the kernel against Delta^m f in polar coordinates
    about the evaluation point (a radial rule of the grids' ``level``, at
    least :data:`_EXTENSION_LEVEL_FLOOR`), and the call adds the m layer
    potentials of the N_j rows.  Outside, the volume potential of Delta^m f
    equals minus the alternating sum of layer potentials of the 2m traces of
    f, so only boundary integrals remain, at any distance: the call stacks
    the negated trace rows over the N_j rows.
    """

    def __init__(self, params: SplineParams, grids: SchemeGrids, f: TargetFunction):
        self.params = params
        self.grids = grids
        self.f = f
        self.level = max(_EXTENSION_LEVEL_FLOOR, grids.quadrature.level)
        self.nj_rows, self.solution = compute_Nj(params, grids.boundary, f)
        self.trace_slots, self.traces = _full_traces(params.m, grids.boundary, f)

    def convolution_part(self, points) -> np.ndarray:
        """Field minus polynomial: the part that decays at infinity."""
        pts = np.asarray(points, dtype=float)
        params, curve, g = self.params, self.grids.curve, self.grids.boundary
        m, inside = params.m, curve.is_inside(pts)
        out = np.empty(pts.shape[0])
        if np.any(inside):
            x = pts[inside]
            vals = volume_potential(params, curve, self.f.m_laplacian, x, self.level)
            for row in layer_potential(params, range(m), g, self.nj_rows, x):
                vals += row
            out[inside] = vals
        if not np.all(inside):
            slots = self.trace_slots + tuple(range(m))
            rows = np.concatenate([-self.traces, self.nj_rows])
            out[~inside] = sum(layer_potential(params, slots, g, rows, pts[~inside]))
        return out

    def evaluate(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return self.convolution_part(pts) + self.solution.poly_eval(pts)


def extension_continuity(ext: ExtensionField) -> float:
    """Largest mismatch between inside and outside limits along normals.

    Both one-sided limits at :data:`_CONTINUITY_PROBES` boundary points are
    taken by polynomial extrapolation of the field along a geometric ladder
    of normal offsets; the extension is continuous, so the mismatch measures
    the combined evaluation error of the two paths.  Each side is one
    evaluation over all offsets and probes.
    """
    curve = ext.grids.curve
    t = 2 * np.pi * np.arange(_CONTINUITY_PROBES) / _CONTINUITY_PROBES + 0.391
    base = curve.point(t)
    nrm = curve.normal(t)
    deltas = 0.02 * curve.diameter() / 2.0 ** np.arange(5)
    limits = []
    for sgn in (-1.0, 1.0):
        pts = base + (sgn * deltas)[:, None, None] * nrm  # (rungs, probes, 2)
        vals = ext.evaluate(pts.reshape(-1, 2)).reshape(deltas.size, t.size)
        limits.append(_neville_limit(deltas, vals)[0])
    return float(np.max(np.abs(limits[0] - limits[1])))


def annihilation_check(ext: ExtensionField) -> float:
    """Largest moment of the field's representation source against
    low-degree polynomials; vanishes in exact arithmetic (which is what lets
    the field decay instead of growing polynomially)."""
    m = ext.params.m
    quad = ext.grids.quadrature
    lap = np.asarray(ext.f.m_laplacian(quad.nodes))
    g = ext.grids.boundary
    basis = PolyBasis.for_spline_order(m)
    # one contiguous row per monomial, so each dot keeps its summation order
    values = np.ascontiguousarray(basis.eval(quad.nodes).T)
    ops = [basis.op_values(jj, g.points, g.normals) for jj in range(m)]
    worst = 0.0
    for col in range(basis.dimension):
        acc = float(np.dot(quad.weights * lap, values[col]))
        for jj in range(m):
            acc += g.integrate(ext.nj_rows[jj] * ops[jj][:, col])
        worst = max(worst, abs(acc))
    return worst


# ---------------------------------------------------------------------------
# error-kernel diagnostics
# ---------------------------------------------------------------------------


def error_kernel_norms(
    params: SplineParams,
    curve: DomainCurve,
    centers: CenterSet,
    *,
    M: int | None = None,
) -> dict:
    """Operator norms of the kernel-replacement errors.

    ``interior``: sup over probes x of the integral over the domain of
    |phi(x-a) - sum_xi a(a,xi) phi(x-xi)|, the L_inf -> L_inf norm of the
    interior error kernel.  ``boundary[j]`` for j = 0 .. m-1: same with the
    order-j boundary kernel and boundary reproduction, integrated over the
    boundary.  The reproductions follow the rule of :func:`assemble_TXi`
    (:func:`_reproductions`) at order ``M`` (default 2m); the probes are a
    :data:`_KERNEL_PROBE_GRID` interior grid and inward offsets of the
    boundary nodes.  Their decay exponents in h are the raw ingredients of
    the convergence rates, but they hold only on rungs that
    ``boundary_support_is_local`` reports local: once a reproduction ball
    spans the domain, the errors no longer decay like (1 + dist/h)^-(d+1) and
    a slope fitted through such a rung is bent by it.
    """
    if M is None:
        M = 2 * params.m
    X = centers.points
    h = centers.target_h

    n_b = int(np.ceil(curve.arclength() / (0.5 * h))) // 2 * 2
    n_b = max(64, n_b)
    bg = BoundaryGrid.build(curve, n_b)

    # The error kernels peak at distance O(h) from their anchors, so a fixed
    # interior grid alone under-samples the sup near the boundary once h drops
    # below the grid pitch.  Augment it with inward offsets of the boundary
    # nodes at h-proportional depths so the norm is resolved at kernel scale
    # on every rung of a sweep.
    depths = h * np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    depths = depths[depths < 0.45 * curve.reach_estimate()]
    near = [bg.points - t * bg.normals for t in depths]
    probes = np.concatenate([probe_points(curve, _KERNEL_PROBE_GRID, 0.02)] + near)

    quad = interior_quadrature(curve, _quadrature_level(curve, h))
    (A, _, _), Bs = _reproductions(quad.nodes, bg, centers, params.m, M)
    # every block runs over tiles of the probes: the centers' kernel columns
    # phi_XP, the interior sums against them over tiles of the quadrature,
    # and the boundary kernels (probes x boundary nodes).  The rows of A, and
    # the buffers of the quadrature tiles, are cut once per probe-tile width
    # (a full tile's and the ragged last one's)
    quad_tiles = {}
    interior = np.zeros(probes.shape[0])
    boundary = np.zeros((params.m, probes.shape[0]))
    for lo, hi in tiles(probes.shape[0], max(X.shape[0], bg.n)):
        P = probes[lo:hi]
        phi_XP = _phi_matrix(params, X, P)  # (n_centers, tile)
        if hi - lo not in quad_tiles:
            bounds = list(tiles(len(quad), hi - lo))
            quad_tiles[hi - lo] = (
                [(a, b, A[a:b]) for a, b in bounds], _tile_buffers(bounds, hi - lo)
            )
        rows, buf = quad_tiles[hi - lo]
        for qlo, qhi, A_rows in rows:
            exact = _phi_matrix(params, quad.nodes[qlo:qhi], P, buf)
            exact -= A_rows @ phi_XP
            interior[lo:hi] += quad.weights[qlo:qhi] @ np.abs(exact, out=exact)
        for j, (B, _, _) in enumerate(Bs):
            exact = boundary_kernel(
                params, j, P[:, None, :], bg.points[None, :, :], bg.normals[None, :, :]
            )  # (tile, n_b)
            exact -= (B @ phi_XP).T
            boundary[j, lo:hi] = np.abs(exact, out=exact) @ bg.weights
    return {
        "interior": float(np.max(interior)),
        "boundary": {j: float(np.max(boundary[j])) for j in range(params.m)},
    }


def boundary_support_is_local(curve: DomainCurve, h: float, M: int) -> bool:
    """Whether the boundary reproductions at spacing h are local to the curve.

    The nominal boundary support radius ``GAMMA_BOUNDARY_DEFAULT * M^2 * h``
    (the larger of the two reproduction balls) is compared with the curve's
    local length scale.  A rung that fails this is pre-asymptotic: its error
    kernels do not yet follow the decay exponents that the convergence rates
    are built from.  The length scale used is ``curve.reach_estimate()``,
    which equals the inradius on a disk and does not exceed it on a convex
    curve; the paper fixes no threshold h_0, so this choice is a conservative
    convention rather than a constant it prescribes.
    """
    return GAMMA_BOUNDARY_DEFAULT * M**2 * h <= curve.reach_estimate()


def probe_points(curve: DomainCurve, grid: int, margin: float) -> np.ndarray:
    """Uniform bounding-box grid clipped to the interior with a safety
    margin off the boundary; raises ValueError when the grid holds no point
    there.  The margin is a gap in polar radius, ``|x| < polar_radius -
    margin``, not a distance: where the ray from the origin meets the
    boundary obliquely (an ellipse off its axes) the gap exceeds the
    distance, so a kept point may lie closer to the boundary than margin."""
    R = curve.max_radius()
    s = np.linspace(-R, R, grid)
    xx, yy = np.meshgrid(s, s, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    rr = np.hypot(pts[:, 0], pts[:, 1])
    psi = np.arctan2(pts[:, 1], pts[:, 0])
    keep = rr < curve.polar_radius(psi) - margin
    if not keep.any():
        raise ValueError(f"probe_grid = {grid} holds no point inside the domain")
    return pts[keep]
