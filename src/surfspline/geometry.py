"""Smooth planar domains, boundary grids, and scattered center sets.

Domains are bounded by closed analytic curves given in polar-graph form about
the origin, which keeps inside tests, ray casting (for singularity-adapted
quadrature), and closest-point projection cheap and robust.  Three families
are provided: circles, ellipses, and cosine "star" perturbations of the
circle.

Center sets for the approximation scheme are jittered hexagonal lattices
clipped a quarter fill-distance inside the boundary; their fill distance is
measured (not assumed) by a refined background grid.  Boundary oversampling
appends thin inward layers of points along the boundary at a prescribed
spacing, which is how the scheme trades extra centers near the boundary for a
higher convergence rate.

Neighbour searches (the ball queries of the reproductions, nearest
distances for the fill and the boundary clip) bucket the points into a
grid of square cells and test only the cells a query's disk can reach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DensityUnreachableError,
    ProjectionFailureError,
    ReachViolationError,
    StarShapeError,
)
from .kernel import tiles

__all__ = [
    "DomainCurve",
    "circle",
    "ellipse",
    "star",
    "curve_from_spec",
    "BoundaryGrid",
    "CenterSet",
    "signed_distance",
    "fill_distance",
    "generate_centers",
    "oversample_boundary",
]

#: parameter samples behind the curve's max radius, and behind its arclength
#: and reach estimate
_RADIUS_SAMPLES = 2048
_CURVE_SAMPLES = 4096

#: refinements of the background grid that measures a fill distance
_FILL_REFINE = 2

#: uniform jitter of the center lattice, in units of the lattice spacing
_JITTER = 0.12

#: cells across a ball query's radius; finer cells test fewer points outside
#: the ball but lay out more cell ranges per query
_CELLS_PER_RADIUS = 8

#: candidate (query, point) pairs one chunk of a neighbour search tests; a
#: chunk holds whole queries, so its transient arrays stay under a MB each
_CANDIDATE_BUDGET = 1 << 16

#: queries whose cell ranges are laid out at once
_QUERY_BLOCK = 4096

#: width below which a ray's bisection bracket stops halving
_RAY_TOL = 1e-14


class DomainCurve:
    """Closed analytic boundary curve, star-shaped about the origin.

    The curve is parametrized counterclockwise by ``t`` in [0, 2pi).  In
    addition to the parametrization and its first two derivatives, each curve
    exposes its polar radius ``polar_radius(psi)`` (the distance from the
    origin to the boundary in direction ``psi``), which the inside test and
    the ray solver use.
    """

    def __init__(self, name, point_fn, vel_fn, acc_fn, polar_fn):
        self.name = name
        self._point = point_fn
        self._vel = vel_fn
        self._acc = acc_fn
        self._polar = polar_fn

    def __repr__(self) -> str:
        return f"DomainCurve({self.name})"

    # -- parametrization ----------------------------------------------------
    def point(self, t):
        t = np.asarray(t, dtype=float)
        return np.stack(self._point(t), axis=-1)

    def velocity(self, t):
        t = np.asarray(t, dtype=float)
        return np.stack(self._vel(t), axis=-1)

    def acceleration(self, t):
        t = np.asarray(t, dtype=float)
        return np.stack(self._acc(t), axis=-1)

    def speed(self, t):
        v = self.velocity(t)
        return np.hypot(v[..., 0], v[..., 1])

    def normal(self, t):
        """Outward unit normal (counterclockwise parametrization)."""
        v = self.velocity(t)
        s = np.hypot(v[..., 0], v[..., 1])
        return np.stack((v[..., 1] / s, -v[..., 0] / s), axis=-1)

    def curvature(self, t):
        v = self.velocity(t)
        a = self.acceleration(t)
        s = np.hypot(v[..., 0], v[..., 1])
        return (v[..., 0] * a[..., 1] - v[..., 1] * a[..., 0]) / s**3

    # -- global quantities --------------------------------------------------
    def polar_radius(self, psi):
        return np.asarray(self._polar(np.asarray(psi, dtype=float)), dtype=float)

    def max_radius(self) -> float:
        psi = np.linspace(0.0, 2 * np.pi, _RADIUS_SAMPLES, endpoint=False)
        return float(np.max(self.polar_radius(psi)))

    def diameter(self) -> float:
        return 2.0 * self.max_radius()

    def arclength(self) -> float:
        t = np.linspace(0.0, 2 * np.pi, _CURVE_SAMPLES, endpoint=False)
        return float(np.mean(self.speed(t)) * 2 * np.pi)

    def reach_estimate(self) -> float:
        """Curvature-based lower estimate of the reach (offset validity range)."""
        t = np.linspace(0.0, 2 * np.pi, _CURVE_SAMPLES, endpoint=False)
        kap = np.abs(self.curvature(t))
        return float(1.0 / np.max(kap))

    # -- point queries ------------------------------------------------------
    def is_inside(self, points) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        rr = np.hypot(p[..., 0], p[..., 1])
        psi = np.arctan2(p[..., 1], p[..., 0])
        return rr < self.polar_radius(psi)

    def ray_exit(self, origin, angles) -> np.ndarray:
        """Distance along rays from interior points to the boundary.

        Solves |origin + s e(theta)| = polar_radius(angle of that point) by
        bisection; requires the domain to be star-shaped about each origin
        (always true for convex domains, and for mildly perturbed stars when
        the origin is not too close to the boundary).  ``origin`` is an
        ``(n, 2)`` array of points and the result is ``(n, n_angles)``; take
        ``origin[None]`` and row 0 for a single point.  Every origin's rays
        are halved until their own widest bracket is below :data:`_RAY_TOL`
        (at most 60 times), so a row's distances do not depend on the other
        origins in the batch.  The level |q| - polar_radius(angle of q) takes
        |q| as ``sqrt(qx*qx + qy*qy)``, formed in place in its buffers.
        """
        o = np.asarray(origin, dtype=float)
        angles = np.atleast_1d(np.asarray(angles, dtype=float))
        ca, sa = np.cos(angles), np.sin(angles)

        def level(o, s):
            qx = o[:, :1] + s * ca
            qy = o[:, 1:] + s * sa
            rho = self.polar_radius(np.arctan2(qy, qx))
            qx *= qx
            qy *= qy
            qx += qy
            np.sqrt(qx, out=qx)
            qx -= rho
            return qx

        lo = np.zeros((o.shape[0], angles.size))
        hi = np.full_like(lo, 2.5 * self.max_radius())
        if np.any(level(o, lo) >= 0):
            raise StarShapeError("ray origin is not strictly inside the domain")
        if np.any(level(o, hi) <= 0):
            raise StarShapeError("ray bracket failed; domain not star-shaped here?")
        out = np.empty_like(lo)
        rows = np.arange(o.shape[0])  # the origins still bisecting
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            take = level(o, mid) < 0
            lo = np.where(take, mid, lo)
            hi = np.where(take, hi, mid)
            done = np.max(hi - lo, axis=1) < _RAY_TOL
            if np.any(done):
                out[rows[done]] = 0.5 * (lo[done] + hi[done])
                rows, o, lo, hi = (a[~done] for a in (rows, o, lo, hi))
                if not rows.size:
                    break
        out[rows] = 0.5 * (lo + hi)
        return out


def circle(radius: float = 1.0) -> DomainCurve:
    r = float(radius)
    if r <= 0:
        raise ValueError("radius must be positive")
    return DomainCurve(
        f"circle:{r:g}",
        lambda t: (r * np.cos(t), r * np.sin(t)),
        lambda t: (-r * np.sin(t), r * np.cos(t)),
        lambda t: (-r * np.cos(t), -r * np.sin(t)),
        lambda psi: np.full_like(psi, r),
    )


def ellipse(a: float, b: float) -> DomainCurve:
    a, b = float(a), float(b)
    if a <= 0 or b <= 0:
        raise ValueError("semi-axes must be positive")
    return DomainCurve(
        f"ellipse:{a:g},{b:g}",
        lambda t: (a * np.cos(t), b * np.sin(t)),
        lambda t: (-a * np.sin(t), b * np.cos(t)),
        lambda t: (-a * np.cos(t), -b * np.sin(t)),
        lambda psi: a * b / np.hypot(b * np.cos(psi), a * np.sin(psi)),
    )


def star(eps: float = 0.15, arms: int = 5) -> DomainCurve:
    """Cosine perturbation of the unit circle, r(t) = 1 + eps cos(arms t)."""
    eps = float(eps)
    arms = int(arms)
    if not (0 <= eps < 1):
        raise ValueError("eps must lie in [0, 1)")

    def rho(t):
        return 1.0 + eps * np.cos(arms * t)

    def rho1(t):
        return -eps * arms * np.sin(arms * t)

    def rho2(t):
        return -eps * arms * arms * np.cos(arms * t)

    def pt(t):
        return (rho(t) * np.cos(t), rho(t) * np.sin(t))

    def vel(t):
        return (
            rho1(t) * np.cos(t) - rho(t) * np.sin(t),
            rho1(t) * np.sin(t) + rho(t) * np.cos(t),
        )

    def acc(t):
        return (
            (rho2(t) - rho(t)) * np.cos(t) - 2 * rho1(t) * np.sin(t),
            (rho2(t) - rho(t)) * np.sin(t) + 2 * rho1(t) * np.cos(t),
        )

    return DomainCurve(f"star:{eps:g},{arms}", pt, vel, acc, rho)


def curve_from_spec(spec: str) -> DomainCurve:
    """Parse curve descriptions like ``disk``, ``circle:1.5``, ``ellipse:2,1``,
    ``star:0.15,5``."""
    spec = spec.strip().lower()
    if spec in ("disk", "circle"):
        return circle(1.0)
    if ":" not in spec:
        raise ValueError(f"unrecognized curve spec {spec!r}")
    head, args = spec.split(":", 1)
    vals = [float(v) for v in args.split(",") if v.strip()]
    if head == "circle":
        if len(vals) > 1:
            raise ValueError("circle spec takes one radius, e.g. circle:1.5")
        return circle(*vals)
    if head == "ellipse":
        if len(vals) != 2:
            raise ValueError("ellipse spec needs two semi-axes, e.g. ellipse:2,1")
        return ellipse(*vals)
    if head == "star":
        if len(vals) == 1:
            return star(vals[0])
        if len(vals) == 2:
            return star(vals[0], int(vals[1]))
        raise ValueError("star spec takes eps[,arms]")
    raise ValueError(f"unrecognized curve spec {spec!r}")


# ---------------------------------------------------------------------------
# boundary grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryGrid:
    """Equispaced-in-parameter boundary nodes with trapezoid weights.

    The weights ``2 pi |gamma'(t_i)| / n`` integrate smooth periodic
    integrands spectrally, which is what every boundary quadrature in the
    package relies on.
    """

    curve: DomainCurve
    n: int
    t: np.ndarray
    points: np.ndarray
    normals: np.ndarray
    speed: np.ndarray
    weights: np.ndarray

    @classmethod
    def build(cls, curve: DomainCurve, n: int) -> "BoundaryGrid":
        if n < 4 or n % 2:
            raise ValueError("boundary grid size must be even and >= 4")
        t = 2 * np.pi * np.arange(n) / n
        speed = curve.speed(t)
        return cls(
            curve=curve,
            n=n,
            t=t,
            points=curve.point(t),
            normals=curve.normal(t),
            speed=speed,
            weights=2 * np.pi * speed / n,
        )

    def integrate(self, values) -> float:
        return float(np.sum(self.weights * np.asarray(values)))


# ---------------------------------------------------------------------------
# closest-point projection / signed distance
# ---------------------------------------------------------------------------


def signed_distance(curve: DomainCurve, points, return_foot: bool = False):
    """Signed distance to the boundary: negative inside, positive outside.

    Newton iteration on the stationarity condition of the squared distance,
    started from a coarse parameter sweep (and restarted from a finer sweep
    for any stragglers); each sweep runs over :func:`~surfspline.kernel.tiles`
    of the points against its nodes, so its start parameters do not depend
    on the tiling.  The sign comes from the outward normal at the foot
    point.  ``points`` is an ``(n, 2)`` array; the distances, and with
    ``return_foot`` the foot parameters, are ``(n,)`` arrays.
    """
    pts = np.asarray(points, dtype=float)

    def sweep(pts, n_nodes):
        # the parameter of the nearest of n_nodes equispaced nodes, per point
        tn = 2 * np.pi * np.arange(n_nodes) / n_nodes
        gn = curve.point(tn)
        start = np.empty(pts.shape[0])
        for lo, hi in tiles(pts.shape[0], n_nodes):
            p = pts[lo:hi]
            d2 = (p[:, None, 0] - gn[None, :, 0]) ** 2 + (p[:, None, 1] - gn[None, :, 1]) ** 2
            start[lo:hi] = tn[np.argmin(d2, axis=1)]
        return start

    def newton(t, pts, iters):
        for _ in range(iters):
            g = curve.point(t)
            v = curve.velocity(t)
            a = curve.acceleration(t)
            dx = pts[:, 0] - g[..., 0]
            dy = pts[:, 1] - g[..., 1]
            f = dx * v[..., 0] + dy * v[..., 1]
            fp = -(v[..., 0] ** 2 + v[..., 1] ** 2) + dx * a[..., 0] + dy * a[..., 1]
            step = f / fp
            step = np.clip(step, -0.5, 0.5)
            t = t - step
        return t

    t = newton(sweep(pts, 64), pts, 12)
    g = curve.point(t)
    v = curve.velocity(t)
    resid = np.abs((pts[:, 0] - g[..., 0]) * v[..., 0] + (pts[:, 1] - g[..., 1]) * v[..., 1])
    scale = curve.max_radius() * np.hypot(v[..., 0], v[..., 1])
    bad = resid > 1e-9 * scale
    if np.any(bad):
        # restart stragglers from a fine sweep
        sub = pts[bad]
        t[bad] = newton(sweep(sub, 512), sub, 20)
        g = curve.point(t)
        v = curve.velocity(t)
        resid = np.abs(
            (pts[:, 0] - g[..., 0]) * v[..., 0] + (pts[:, 1] - g[..., 1]) * v[..., 1]
        )
        if np.any(resid > 1e-7 * scale):
            raise ProjectionFailureError(
                f"closest-point projection failed for {int(np.sum(resid > 1e-7*scale))} points"
            )
    nrm = curve.normal(t)
    dx = pts[:, 0] - g[..., 0]
    dy = pts[:, 1] - g[..., 1]
    dist = np.hypot(dx, dy)
    side = np.sign(dx * nrm[..., 0] + dy * nrm[..., 1])
    # points numerically on the curve get side 0 -> signed distance 0
    rho = side * dist
    if return_foot:
        return rho, t
    return rho


# ---------------------------------------------------------------------------
# neighbour search
# ---------------------------------------------------------------------------


class _CellGrid:
    """Points bucketed into square cells of side ``cell``.

    The points are stored cell by cell, the cells row by row with x
    fastest, and the points of one cell in index order; so the points of a
    run of cells along one row form one contiguous slice.  The layout
    depends only on the points and the cell side.
    """

    def __init__(self, points: np.ndarray, cell: float, extent: float):
        self.origin = points.min(axis=0)
        self.cell = cell
        self.nx, self.ny = (np.floor((points.max(axis=0) - self.origin) / cell) + 1).astype(int)
        ij = np.floor((points - self.origin) / cell).astype(np.intp)
        key = np.minimum(ij[:, 1], self.ny - 1) * self.nx + np.minimum(ij[:, 0], self.nx - 1)
        self.order = np.argsort(key, kind="stable")
        self.x = points[self.order, 0]
        self.y = points[self.order, 1]
        self.starts = np.zeros(self.nx * self.ny + 1, dtype=np.intp)
        np.cumsum(np.bincount(key, minlength=self.nx * self.ny), out=self.starts[1:])
        # widening of the cell bounds, far above the rounding of coordinates
        # up to ``extent`` in magnitude
        self.pad = 1e-9 * (cell + extent)

    def _slices(self, rows, left, right, keep):
        """Stored-point slices ``[lo, hi)`` of the cells ``left..right`` of
        each row, empty where ``keep`` is false."""
        cell = np.where(keep, rows * self.nx + left, 0).astype(np.intp)
        width = np.where(keep, right - left + 1, 0).astype(np.intp)
        return self.starts[cell], self.starts[cell + width]

    def disk_slices(self, queries: np.ndarray, radius: float):
        """Per query and cell row, the slice of the cells that the query's
        closed disk of ``radius`` reaches: every point whose computed
        squared distance is within ``radius**2`` lies in one of them."""
        pad = self.pad + 1e-9 * radius
        reach = radius + pad
        c, (x0, y0) = self.cell, self.origin
        qx, qy = queries[:, :1], queries[:, 1:]
        first = np.floor((qy - reach - y0) / c)
        rows = np.clip(first + np.arange(int(np.ceil(2 * reach / c)) + 2), -1, self.ny)
        bottom = y0 + rows * c
        gap = np.maximum(np.maximum(bottom - qy, qy - (bottom + c)) - pad, 0.0)
        half = np.sqrt(np.maximum(reach * reach - gap * gap, 0.0)) + pad
        left = np.clip(np.floor((qx - half - x0) / c), 0, self.nx - 1)
        right = np.clip(np.floor((qx + half - x0) / c), 0, self.nx - 1)
        keep = (rows >= 0) & (rows < self.ny) & (gap <= reach) & (left <= right)
        return self._slices(rows, left, right, keep)

    def block_slices(self, queries: np.ndarray):
        """Per query and cell row, the slice of the 3 x 3 cells around the
        query's cell: every point closer than one cell side lies in one."""
        ij = np.floor((queries - self.origin) / self.cell)
        rows = np.clip(ij[:, 1:], -2, self.ny + 1) + np.arange(-1, 2)
        left = np.clip(ij[:, :1] - 1, 0, self.nx - 1)
        right = np.clip(ij[:, :1] + 1, 0, self.nx - 1)
        return self._slices(rows, left, right, (rows >= 0) & (rows < self.ny))

    def candidates(self, queries: np.ndarray, slices):
        """Yield the points in each query's slices, a chunk of queries at a time.

        ``slices`` maps a block of queries to its ``(lo, hi)`` slices.  Each
        item is ``(first, counts, pos, d2)``: the chunk's first query, its
        number of candidates per query, the stored positions of the
        candidates (query by query, each query's in storage order) and
        their squared distances to their query, summed as a KD-tree sums
        them.
        """
        for b0 in range(0, len(queries), _QUERY_BLOCK):
            q = queries[b0:b0 + _QUERY_BLOCK]
            lo, hi = slices(q)
            size = hi - lo
            counts = size.sum(axis=1)
            ends = np.cumsum(counts)
            a = 0
            while a < len(q):
                base = ends[a] - counts[a]
                b = max(a + 1, int(np.searchsorted(ends, base + _CANDIDATE_BUDGET, "right")))
                sz = size[a:b].ravel()
                pos = np.repeat(lo[a:b].ravel() - (np.cumsum(sz) - sz), sz)
                pos += np.arange(ends[b - 1] - base)
                dx = self.x[pos]
                dx -= np.repeat(q[a:b, 0], counts[a:b])
                dy = self.y[pos]
                dy -= np.repeat(q[a:b, 1], counts[a:b])
                dx *= dx
                dy *= dy
                dx += dy
                yield b0 + a, counts[a:b], pos, dx
                a = b


def _extent(points: np.ndarray, queries: np.ndarray) -> float:
    """Largest coordinate magnitude, which sets a grid's rounding slack."""
    return max(float(np.max(np.abs(points))), float(np.max(np.abs(queries), initial=0.0)))


def _ball_query(points: np.ndarray, queries: np.ndarray, radius: float):
    """The points within ``radius`` of each query, the bound included.

    Returns ``(counts, flat)``: query q's point indices are
    ``flat[s:s + counts[q]]`` with ``s = counts[:q].sum()``.  A ball lists
    its points in the grid's storage order, which depends only on the
    points and the radius, so a query's ball is the same whichever other
    queries share the call.  Cells are a fraction of the radius, but no
    finer than a few per point.
    """
    span = float(np.max(np.ptp(points, axis=0)))
    cell = max(radius / _CELLS_PER_RADIUS, span / (2.0 * np.sqrt(len(points)) + 1.0))
    grid = _CellGrid(points, cell, _extent(points, queries))
    r2 = radius * radius
    counts = np.zeros(len(queries), dtype=np.intp)
    parts = [np.empty(0, dtype=np.intp)]
    for first, per_query, pos, d2 in grid.candidates(
        queries, lambda q: grid.disk_slices(q, radius)
    ):
        inside = d2 <= r2
        seen = np.zeros(inside.size + 1, dtype=np.intp)
        np.cumsum(inside, out=seen[1:])
        ends = np.cumsum(per_query)
        counts[first:first + per_query.size] = seen[ends] - seen[ends - per_query]
        parts.append(grid.order[pos[inside]])
    return counts, np.concatenate(parts)


def _nearest_distance(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Distance from each query to its nearest point.

    The square root of the smallest squared distance, which is what a
    KD-tree reports, to the bit.  Cells start at about half the points'
    mean spacing; a query whose 3 x 3 cell block holds no point closer
    than a cell side searches again on cells twice as wide.
    """
    span = np.maximum(points.max(axis=0), queries.max(axis=0)) - np.minimum(
        points.min(axis=0), queries.min(axis=0)
    )
    cell = max(float(np.max(span)), 1e-300) / (2.0 * np.sqrt(len(points)) + 1.0)
    extent = _extent(points, queries)
    best = np.empty(len(queries))
    todo = np.arange(len(queries))
    while todo.size:
        grid = _CellGrid(points, cell, extent)
        found = np.full(todo.size, np.inf)
        for first, per_query, pos, d2 in grid.candidates(queries[todo], grid.block_slices):
            hit = np.flatnonzero(per_query)
            if hit.size:
                starts = np.cumsum(per_query) - per_query
                found[first + hit] = np.minimum.reduceat(d2, starts[hit])
        reach = max(cell - grid.pad, 0.0)
        settled = found <= reach * reach
        best[todo[settled]] = found[settled]
        todo = todo[~settled]
        cell *= 2.0
    return np.sqrt(best)


# ---------------------------------------------------------------------------
# center sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CenterSet:
    """Scattered kernel centers inside a domain.

    ``fill`` is the measured fill distance (largest hole radius) over the
    closed domain.  For oversampled sets, ``boundary_spacing`` records the
    along-boundary spacing of the appended layers, which follow the points
    of the original interior lattice.
    """

    points: np.ndarray
    target_h: float
    fill: float
    seed: int | None = None
    boundary_spacing: float | None = None

    def __len__(self) -> int:
        return int(self.points.shape[0])


def _interior_samples(curve: DomainCurve, spacing: float) -> np.ndarray:
    """Grid + boundary samples covering the closed domain at given spacing."""
    rmax = curve.max_radius()
    k = np.arange(-rmax, rmax + spacing, spacing)
    gx, gy = np.meshgrid(k, k, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    pts = pts[curve.is_inside(pts)]
    nb = max(256, int(np.ceil(curve.arclength() / (0.5 * spacing))))
    tb = 2 * np.pi * np.arange(nb) / nb
    return np.vstack([pts, curve.point(tb)])


def fill_distance(points, curve: DomainCurve) -> float:
    """Measured fill distance sup_{x in domain} dist(x, points).

    Evaluated on a background grid (plus dense boundary samples) that is
    refined until its spacing is well below the running estimate.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise ValueError("empty point set")
    spacing = curve.diameter() / 64.0
    h = None
    for _ in range(_FILL_REFINE + 1):
        samples = _interior_samples(curve, spacing)
        h = float(np.max(_nearest_distance(pts, samples)))
        if spacing <= h / 5.0:
            break
        spacing = max(h / 6.0, 1e-4)
    return h


def generate_centers(
    curve: DomainCurve,
    target_h: float,
    seed: int = 0,
) -> CenterSet:
    """Jittered hexagonal lattice clipped strictly inside the domain.

    The lattice spacing is chosen so that the measured fill distance lands in
    ``[target_h, 2 target_h]``: the pure lattice fills at ``s / sqrt(3)``, the
    clip margin (a quarter of ``target_h``) and the jitter add a controlled
    amount on top.  Lattice points falling in the thin forbidden band next to
    the boundary are projected onto the clip surface rather than dropped, so
    the band does not open a hole of a full lattice row; projected points that
    land too close to a neighbor are then thinned to protect the separation.
    """
    if target_h <= 0:
        raise ValueError("target_h must be positive")
    if target_h > 0.5 * curve.diameter():
        raise DensityUnreachableError("target fill distance exceeds half the domain size")
    rng = np.random.default_rng(seed)
    s = 1.70 * target_h  # lattice-only fill = s/sqrt(3) ~ 0.98 target_h
    clip_depth = 0.25 * target_h
    rmax = curve.max_radius() + s
    ys = np.arange(-rmax, rmax + s, s * np.sqrt(3) / 2.0)
    rows = []
    for i, y in enumerate(ys):
        xs = np.arange(-rmax, rmax + s, s)
        if i % 2:
            xs = xs + 0.5 * s
        rows.append(np.column_stack([xs, np.full_like(xs, y)]))
    lattice = np.vstack(rows)
    lattice += rng.uniform(-_JITTER * s, _JITTER * s, size=lattice.shape)
    near = np.hypot(lattice[:, 0], lattice[:, 1]) < curve.max_radius() + 0.5 * s
    cand = lattice[near]
    if cand.size == 0:
        raise DensityUnreachableError("no lattice points fall near the domain")
    rho, foot = signed_distance(curve, cand, return_foot=True)
    deep = rho < -clip_depth
    shallow = (~deep) & (rho < 0.6 * s)  # interior band + slightly-outside points
    pts = cand[deep]
    if np.any(shallow):
        tfoot = np.asarray(foot)[shallow]
        pushed = curve.point(tfoot) - 1.2 * clip_depth * curve.normal(tfoot)
        # thin pushed points that crowd an existing deep point or each other
        keep = np.ones(len(pushed), dtype=bool)
        if len(pts):
            keep &= _nearest_distance(pts, pushed) > 0.45 * s
        order = np.flatnonzero(keep)
        chosen: list[int] = []
        for idx in order:
            ok = True
            for cidx in chosen:
                if np.hypot(*(pushed[idx] - pushed[cidx])) < 0.45 * s:
                    ok = False
                    break
            if ok:
                chosen.append(idx)
        if chosen:
            pts = np.vstack([pts, pushed[chosen]]) if len(pts) else pushed[chosen]
    if pts.shape[0] < 3:
        raise DensityUnreachableError(
            "too few centers survive the boundary clip; decrease target_h"
        )
    return CenterSet(
        points=pts,
        target_h=float(target_h),
        fill=fill_distance(pts, curve),
        seed=seed,
    )


def _arclength_params(curve: DomainCurve, fractions: np.ndarray) -> np.ndarray:
    """Parameters at the given fractions of total arclength (spectral inversion)."""
    dense = 8192
    td = np.linspace(0.0, 2 * np.pi, dense + 1)
    sp = curve.speed(td)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (sp[1:] + sp[:-1]) * np.diff(td))])
    return np.interp(cum[-1] * (np.asarray(fractions) % 1.0), cum, td)


def oversample_boundary(
    curve: DomainCurve,
    base: CenterSet,
    h: float,
    nu: float,
    m: int,
) -> CenterSet:
    """Append ``2m + 1`` inward boundary layers at depths ``j h^nu``.

    Layer ``j = 0`` is nudged to depth ``h^nu / 2`` so all centers stay
    strictly interior; each layer is sampled at arclength spacing ``h^nu``,
    staggered and lightly scattered between layers.  Perfectly aligned radial
    columns of centers produce error cancellations that scattered sets do not
    enjoy, so keeping the tube irregular makes measured rates representative.
    Requires the deepest layer to stay well inside the estimated reach of the
    curve.
    """
    if nu < 1.0:
        raise ValueError("oversampling exponent nu must be >= 1")
    hb = float(h**nu)
    depth_max = 2 * m * hb
    if depth_max >= 0.5 * curve.reach_estimate():
        raise ReachViolationError(
            f"layer depth {depth_max:.3g} too close to the curve reach"
        )
    n_layer = max(8, int(np.ceil(curve.arclength() / hb)))
    rng = np.random.default_rng([0 if base.seed is None else base.seed, 2 * m + 1])
    golden = 0.6180339887498949
    layers = []
    for j in range(2 * m + 1):
        depth = 0.5 * hb if j == 0 else j * hb
        u = (np.arange(n_layer) + j * golden
             + 0.24 * (rng.random(n_layer) - 0.5)) / n_layer
        t = _arclength_params(curve, u)
        layers.append(curve.point(t) - depth * curve.normal(t))
    return CenterSet(
        points=np.vstack([base.points] + layers),
        target_h=base.target_h,
        fill=base.fill,
        seed=base.seed,
        boundary_spacing=hb,
    )
