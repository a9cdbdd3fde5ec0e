"""Layer potentials, their boundary restrictions, and one-sided traces.

The j-th layer potential of a density g on the boundary curve is

    V_j g (x) = integral over the boundary of g(a) * K_j(x, a) dsigma(a),

with ``K_j`` the order-j boundary-operator derivative of the surface-spline
kernel (see :mod:`surfspline.kernel`).  Three numerical tasks live here:

* Nystrom matrices of the boundary-restricted operators op_k V_j for the
  weakly singular range k + j <= 2m - 2, assembled with the classical
  spectral log-splitting quadrature for periodic kernels: the kernel is
  written as ``smooth1 + smooth2 * log(4 sin^2((t-s)/2))`` and the log factor
  is integrated with its exact trigonometric weights.  One call
  ``nystrom_matrix(params, orders, grid)`` returns a block per (k, j), all
  from one pair geometry of the node pairs.

* Off-boundary evaluation of the potentials with automatic trigonometric
  upsampling of the density, which keeps the periodic-trapezoid error under
  control at targets a few grid spacings from the boundary.  One call
  ``layer_potential(params, slots, grid, densities, points)`` takes stacked
  densities, row s charging the potential of order ``slots[s]`` (the
  convention of the trace maps), and returns one row per slot; every slot
  shares the call's distances, upsampled grids and tile geometries.

* One-sided boundary traces of op_k applied to a combination of potentials,
  computed by evaluating along a geometric offset ladder and extrapolating
  to the boundary (the potentials are smooth up to the boundary from either
  side, so polynomial extrapolation in the offset converges fast).

The jump relation across the boundary, in the normalization used throughout
this package (kernel normalized against the m-fold Laplacian, outward
normal), is

    lim inside - lim outside of op_(2m-1-j) V_j g = (-1)^(j+1) g,

with all lower-order traces continuous.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import (
    DomainValidityError,
    ExtrapolationDivergenceError,
    NearBoundaryAccuracyWarning,
)
from .geometry import BoundaryGrid, signed_distance
from .kernel import PairGeometry, PairPlan, SplineParams, _pair_diag, pair_kernel, tiles

__all__ = [
    "kress_log_weights",
    "trig_upsample",
    "nystrom_matrix",
    "layer_potential",
    "TraceMaps",
    "one_sided_trace",
]

#: upsampling keeps n_f * (distance in parameter units) at least this large
_MIN_RESOLVE = 34.0
#: cap on the upsampled density grid
_MAX_NODES = 16384


def kress_log_weights(n: int) -> np.ndarray:
    """Quadrature weights R_q for the periodic log factor.

    For even n, ``sum_l R_{|i-l|} f(s_l)`` approximates the integral over
    [0, 2pi] of ``f(s) log(4 sin^2((t_i - s)/2))`` with spectral accuracy for
    smooth periodic f.  Returned indexed by the lag q = 0 .. n-1.
    """
    if n % 2 or n < 4:
        raise ValueError("log-quadrature needs even n >= 4")
    q = np.arange(n)
    ks = np.arange(1, n // 2)
    # R_q = -(4 pi / n) sum_k cos(2 pi k q / n)/k - (2 pi / n^2) (-1)^q
    cos_table = np.cos(2 * np.pi * np.outer(q, ks) / n)
    R = -(4 * np.pi / n) * cos_table @ (1.0 / ks) - (2 * np.pi / n**2) * (-1.0) ** q
    return R


def trig_upsample(values: np.ndarray, n_new: int) -> np.ndarray:
    """Trigonometric interpolation of periodic samples onto a finer grid."""
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    if n_new == n:
        return values.copy()
    if n_new < n:
        raise ValueError("only upsampling is supported")
    spec = np.fft.rfft(values, axis=-1)
    if n % 2 == 0 and spec.shape[-1] > 1:
        spec = spec.copy()
        spec[..., -1] *= 0.5  # split the Nyquist mode symmetrically
    pad_width = n_new // 2 + 1 - spec.shape[-1]
    pad_shape = spec.shape[:-1] + (pad_width,)
    spec = np.concatenate([spec, np.zeros(pad_shape, dtype=complex)], axis=-1)
    return np.fft.irfft(spec, n=n_new, axis=-1) * (n_new / n)


def nystrom_matrix(params: SplineParams, orders, grid: BoundaryGrid) -> list[np.ndarray]:
    """Dense Nystrom matrices of the boundary operators op_k V_j on the grid,
    one per (k, j) in the list ``orders``.

    Valid in the weakly singular range ``k + j <= 2m - 2``; the kernel's log
    part is integrated with the exact periodic log weights and the remaining
    smooth part with the plain trapezoid rule, so a matrix applied to smooth
    densities converges spectrally in the grid size.  The orders share one
    pair geometry and the tables that do not depend on the order; each
    matrix is bitwise the one a one-order call gives.
    """
    for k, j in orders:
        if k + j > 2 * params.m - 2:
            raise DomainValidityError(f"nystrom assembly limited to k+j <= 2m-2, got ({k},{j})")
    n, t, pts, nrm = grid.n, grid.t, grid.points, grid.normals
    # shift the diagonal's targets off r = 0, and fix the diagonal afterwards
    xs = np.where(np.eye(n, dtype=bool)[..., None], pts[:, None, :] + 1.0, pts[:, None, :])
    geom = PairGeometry(
        PairPlan(params, orders), xs, pts[None, :, :], nrm[:, None, :], nrm[None, :, :]
    )
    sin2 = 4.0 * np.sin(0.5 * (t[:, None] - t[None, :])) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        smooth_log = 0.5 * np.log(geom.r**2 / sin2)
    R_lag = kress_log_weights(n)[np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])]
    blocks = []
    for k, j in orders:
        reg, logc = pair_kernel(geom, k, j)
        with np.errstate(invalid="ignore"):
            A_smooth = reg + logc * smooth_log
        B = 0.5 * logc
        reg0, logc0 = _pair_diag(params, k, j)
        np.fill_diagonal(A_smooth, reg0 + logc0 * np.log(grid.speed))
        np.fill_diagonal(B, 0.5 * logc0)
        M = (2 * np.pi / n) * A_smooth + R_lag * B
        M *= grid.speed[None, :]
        blocks.append(M)
    return blocks


# ---------------------------------------------------------------------------
# off-boundary evaluation
# ---------------------------------------------------------------------------


def _needed_factor(n: int, dist_param: np.ndarray):
    """Power-of-two upsampling factors so that n_f * dist >= _MIN_RESOLVE."""
    with np.errstate(divide="ignore"):
        need = _MIN_RESOLVE / (n * np.maximum(dist_param, 1e-300))
    factors = 2.0 ** np.ceil(np.log2(np.maximum(need, 1.0)))
    factors = np.minimum(factors, max(1, _MAX_NODES // n))
    return factors.astype(int)


def _check_densities(densities, slots, n: int) -> np.ndarray:
    densities = np.atleast_2d(np.asarray(densities, dtype=float))
    if densities.shape != (len(slots), n):
        raise ValueError("densities must have shape (len(slots), n)")
    return densities


def _potential_sum(params, slots, grid, densities, x_pts):
    """Row s: V_slots[s] densities[s] at x_pts by the grid's trapezoid rule.

    The targets are cut into :func:`~surfspline.kernel.tiles` against the
    grid's nodes, with one pair geometry per tile shared by every slot, and
    a target's value does not depend on the tiling.
    """
    charges = grid.weights * densities
    plan = PairPlan(params, [(0, j) for j in slots])
    out = np.empty((len(slots), x_pts.shape[0]))
    for lo, hi in tiles(x_pts.shape[0], grid.n):
        geom = PairGeometry(
            plan, x_pts[lo:hi, None, :], grid.points[None, :, :],
            n_alpha=grid.normals[None, :, :],
        )
        for s, j in enumerate(slots):
            out[s, lo:hi] = geom.value(*pair_kernel(geom, 0, j)) @ charges[s]
    return out


def layer_potential(
    params: SplineParams, slots, grid: BoundaryGrid, densities, points
) -> np.ndarray:
    """Potentials V_slots[s] densities[s] at off-boundary points, one row per slot.

    Row s of ``densities`` charges the potential of order ``slots[s]``, as
    in :class:`TraceMaps`; ``points`` is an ``(n, 2)`` array.  The distances
    to the boundary are measured once, and the densities are
    trigonometrically upsampled together per point group until the
    quadrature resolves that distance, onto at most :data:`_MAX_NODES` nodes
    (read at call time); points closer than the finest resolvable distance
    trigger :class:`NearBoundaryAccuracyWarning`.  Each row is the same, bit
    for bit, as a one-slot call gives.
    """
    slots = tuple(slots)
    densities = _check_densities(densities, slots, grid.n)
    pts = np.asarray(points, dtype=float)
    rho = signed_distance(grid.curve, pts)
    speed_max = float(np.max(grid.speed))
    dist_param = np.abs(rho) / speed_max
    factors = _needed_factor(grid.n, dist_param)
    if np.any(grid.n * factors * dist_param < 0.5 * _MIN_RESOLVE):
        warnings.warn(
            "layer potential evaluated closer to the boundary than the "
            "quadrature resolves; values there may be inaccurate",
            NearBoundaryAccuracyWarning,
        )
    out = np.empty((len(slots), pts.shape[0]))
    for f in np.unique(factors):
        sel = factors == f
        sub = BoundaryGrid.build(grid.curve, grid.n * int(f)) if f > 1 else grid
        dens = trig_upsample(densities, sub.n) if f > 1 else densities
        out[:, sel] = _potential_sum(params, slots, sub, dens, pts[sel])
    return out


# ---------------------------------------------------------------------------
# one-sided traces and jumps
# ---------------------------------------------------------------------------


def _neville_limit(deltas: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Neville extrapolation of ``vals[r]``, sampled at offsets ``deltas[r]``,
    to offset zero.

    Returns the extrapolated values and the magnitude of the last correction
    the table made to them (zero for a single offset).
    """
    n = len(deltas)
    table = np.array(vals, dtype=float)
    prev0 = table[0].copy()
    est = np.zeros_like(prev0)
    for lvl in range(1, n):
        for i in range(n - lvl):
            num = deltas[i] * table[i + 1] - deltas[i + lvl] * table[i]
            table[i] = num / (deltas[i] - deltas[i + lvl])
        est = np.abs(table[0] - prev0)
        prev0 = table[0].copy()
    return table[0], est


class TraceMaps:
    """One-sided boundary traces of layer potentials as linear maps on one grid.

    For each order k in ``ks``, ``value[k]`` maps the stacked densities (row
    s charging the potential of order ``slots[s]``) to the nodal limit of
    op_k sum_s V_slots[s] g_s on ``side``, and ``correction[k]`` maps them
    to the last correction of that limit's extrapolation; both are
    n x (len(slots) * n).  The defaults are the inside traces of the top
    orders k = 2m-1-j, j < m, of the multilayer arrangement, which
    :func:`~surfspline.dirichlet.compute_Nj` applies.

    The limit is taken along the normal-offset ladder of five offsets
    ``min(5 * spacing, reach) / 2**r``, with the densities upsampled 32-fold,
    and extrapolated polynomially to offset zero.  Every step is linear, so
    the build sums the kernel over :func:`~surfspline.kernel.tiles` of the
    nodes, with one pair geometry per tile and offset shared by every
    (k, slot) kernel, combines the offsets with the Neville weights, and
    contracts once with the weighted upsampling: the adjoint of
    :func:`trig_upsample`, applied by FFT row by row, so that a node's row
    does not depend on the tiling.
    """

    def __init__(
        self,
        params: SplineParams,
        grid: BoundaryGrid,
        *,
        side: str = "inside",
        ks: tuple[int, ...] | None = None,
        slots: tuple[int, ...] | None = None,
    ):
        if side not in ("inside", "outside"):
            raise ValueError("side must be 'inside' or 'outside'")
        m, n = params.m, grid.n
        ks = tuple(2 * m - 1 - j for j in range(m)) if ks is None else tuple(ks)
        slots = tuple(range(m)) if slots is None else tuple(slots)
        if any(not 0 <= j <= 2 * m - 1 for j in slots):
            raise ValueError("potential orders must lie in 0 .. 2m-1")
        self.params, self.grid, self.side, self.slots = params, grid, side, slots
        spacing = 2 * np.pi * float(np.max(grid.speed)) / n
        sgn = -1.0 if side == "inside" else 1.0
        n_f = max(n, (min(n * 32, _MAX_NODES) // 2) * 2)
        fine = BoundaryGrid.build(grid.curve, n_f) if n_f != n else grid
        # on a coarse grid five spacings can exceed the curve's size, and the
        # inside offsets would leave the domain; the reach bounds the first one
        first = min(5.0 * spacing, grid.curve.reach_estimate())
        deltas = first / 2.0 ** np.arange(5)
        # Neville weights of the limit and of its last correction, which is
        # the five-offset limit minus the limit of the first four offsets
        limit = _neville_limit(deltas, np.eye(5))[0]
        last = limit - np.append(_neville_limit(deltas[:4], np.eye(4))[0], 0.0)
        orders = [(k, j) for k in ks for j in slots]
        plan = PairPlan(params, orders)
        maps = np.empty((2, len(ks), n, len(slots), n))
        for lo, hi in tiles(n, n_f):
            acc = np.zeros((2, len(orders), hi - lo, n_f))
            for d, c_limit, c_last in zip(deltas, limit, last):
                x = grid.points[lo:hi] + sgn * d * grid.normals[lo:hi]
                geom = PairGeometry(
                    plan, x[:, None, :], fine.points[None, :, :],
                    grid.normals[lo:hi, None, :], fine.normals[None, :, :],
                )
                for o, (k, j) in enumerate(orders):
                    ker = geom.value(*pair_kernel(geom, k, j))
                    acc[0, o] += c_limit * ker
                    acc[1, o] += c_last * ker
            acc *= fine.weights
            coarse = np.fft.irfft(np.fft.rfft(acc, axis=-1)[..., : n // 2 + 1], n, axis=-1)
            maps[:, :, lo:hi] = coarse.reshape(2, len(ks), len(slots), hi - lo, n).swapaxes(2, 3)
        maps = maps.reshape(2, len(ks), n, len(slots) * n)
        self.value = dict(zip(ks, maps[0]))
        self.correction = dict(zip(ks, maps[1]))

    def check(self, params: SplineParams, grid: BoundaryGrid) -> None:
        """Raise ValueError unless these maps belong to ``params`` on ``grid``."""
        same_grid = grid is self.grid or (
            grid.n == self.grid.n
            and np.array_equal(grid.points, self.grid.points)
            and np.array_equal(grid.normals, self.grid.normals)
        )
        if params != self.params or not same_grid:
            raise ValueError("trace maps were built for another spline order or boundary grid")

    def apply(self, k: int, densities) -> tuple[np.ndarray, np.ndarray]:
        """Nodal trace of op_k for these densities and its error estimate.

        Returns the extrapolated values and the magnitude of the last
        extrapolation correction; raises when that correction does not settle
        relative to the trace magnitude.
        """
        g = _check_densities(densities, self.slots, self.grid.n).ravel()
        limit = self.value[k] @ g
        est = np.abs(self.correction[k] @ g)
        scale = max(float(np.max(np.abs(limit))), 1e-30)
        if float(np.max(est)) > 0.05 * max(scale, 1.0):
            raise ExtrapolationDivergenceError(
                f"offset ladder did not stabilize: est {float(np.max(est)):.3e} vs scale {scale:.3e}"
            )
        return limit, est


def one_sided_trace(
    params: SplineParams,
    densities: np.ndarray,
    grid: BoundaryGrid,
    k: int,
    side: str,
    *,
    slots: tuple[int, ...] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Boundary limit of op_k applied to sum_s V_slots[s] densities[s].

    By default row s of ``densities`` charges the potential of order s (the
    multilayer arrangement uses orders ``0 .. m-1``); pass explicit ``slots``
    for other combinations.  Builds the :class:`TraceMaps` of order k on the
    requested side and applies them: returns the extrapolated nodal values
    and an error estimate (the magnitude of the last extrapolation
    correction), and raises when the ladder fails to stabilize relative to
    the trace magnitude.
    """
    densities = np.atleast_2d(np.asarray(densities, dtype=float))
    if slots is None:
        slots = tuple(range(densities.shape[0]))
    _check_densities(densities, slots, grid.n)
    maps = TraceMaps(params, grid, side=side, ks=(k,), slots=slots)
    return maps.apply(k, densities)
