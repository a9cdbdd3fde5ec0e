"""Stable local polynomial reproductions.

A local polynomial reproduction at an anchor point is a sparse coefficient
vector ``a`` over the center set such that

    sum_xi a(xi) p(xi)  =  (functional applied to p)      for all p in Pi_M,

where the functional is point evaluation at the anchor (interior kernel) or
a boundary operator op_j at a boundary anchor (boundary kernels).  Supports
are balls of radius ``Gamma * M^2 * h`` intersected with the center set;
when the local Vandermonde cannot meet the exactness constraints the radius
grows geometrically.  Coefficients are the minimum-l2-norm solution of the
exactness constraints, which in practice keeps the l1 mass (the stability
constant of the reproduction) small and h-independent.

These coefficient kernels turn integrals against the surface-spline kernel
into sums over centers: replacing phi(x - alpha) by
``sum_xi a(alpha, xi) phi(x - xi)`` commits an error that is uniformly small
and decays at rate (1 + dist/h)^-(d+1), which is the engine behind the
convergence rates of the approximation scheme.

All anchors of one call share the nominal radius and its growth sequence,
so the reproductions are built a radius step at a time: one cell-grid ball
query for every anchor still open, then one batched minimum-norm solve per
group of anchors with the same support size.  A support lists its centers
in an order fixed by the centers and the radius alone, so a row's numbers
depend only on its own support, never on which other anchors share its
batch.

A support is accepted only if its Vandermonde's condition number is within
:data:`COND_CAP_DEFAULT`, which is read at call time.  The Frobenius bound
cond(R) <= ||R||_F ||R^-1||_F of the triangular factor settles that test
for almost every row; only the few rows it leaves open take the singular
values that decide their rank cut and condition number as ``lstsq`` would,
so every decision and every weight is the one an SVD of every row gives.
R^-1 comes from a back substitution run over the whole batch at once, a row
of R^-1 per step, since R is already triangular and a general inverse would
factor it again.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .errors import NormingFailureError
from .geometry import _ball_query
from .polyspace import PolyBasis

__all__ = [
    "GAMMA_DEFAULT",
    "GAMMA_BOUNDARY_DEFAULT",
    "COND_CAP_DEFAULT",
    "GROWTH_SPAN_DEFAULT",
    "interior_reproduction_matrix",
    "boundary_reproduction_matrix",
]

#: ball-radius prefactor (radius = GAMMA * M^2 * h); calibrated so that the
#: coarsest useful rungs keep supports local while exactness still holds
GAMMA_DEFAULT = 0.25

#: boundary kernels see only the inward half-neighborhood, so their balls
#: start twice as large; this halves the one-sided coefficient mass that
#: multiplies the dominant boundary error term
GAMMA_BOUNDARY_DEFAULT = 0.5

#: conditioning ceiling for the local Vandermonde; healthy quasi-uniform
#: neighborhoods sit near 1e2-2e3, degenerate ones past 1e4 blow up the
#: coefficient mass, so growth continues past them
COND_CAP_DEFAULT = 1e4

#: how far conditioning-driven growth may enlarge a support relative to its
#: nominal radius before the lightest exact candidate is accepted anyway;
#: unbounded growth would trade a conditioning warning for lost locality
GROWTH_SPAN_DEFAULT = 4.0

#: radius growth factor per step of an anchor whose support fails
_GROWTH = 1.25

#: largest constraint residual an exact reproduction may leave
_RESIDUAL_TOL = 1e-10

#: ceiling on B * P * K, the entries of one batched (anchors x monomials x
#: support) Vandermonde; supports run from tens to over a thousand centers
#: on oversampled sets, so a whole radius step padded to its widest support
#: would not fit in memory, while 2^20 entries (8 MB a float array) keeps
#: the per-batch overhead small next to the solve
_ENTRY_BUDGET = 1 << 20


def _upper_inverse(r):
    """Inverses of a batch of upper triangular (B, P, P) matrices with no
    zero on their diagonals, by back substitution over the batch.  X = R^-1
    is upper triangular with diagonal d = 1 / diag(R); from the last row up,
    row i right of its diagonal is -d_i R[i, i+1:] X[i+1:, i+1:]."""
    P = r.shape[-1]
    x = np.zeros_like(r)
    d = 1.0 / np.diagonal(r, axis1=1, axis2=2)
    x[:, np.arange(P), np.arange(P)] = d
    for i in reversed(range(P - 1)):
        x[:, i, i + 1:] = (r[:, i, None, i + 1:] @ x[:, i + 1:, i + 1:])[:, 0] * -d[:, i, None]
    return x


def _min_norm_weights(pts, anchors, radius, exps, rhs, cond_cap):
    """Minimum-norm exactness weights for a batch of equal-size supports.

    ``pts`` is (B, K, 2) with K >= P = len(exps).  The scaled Vandermonde V
    (P x K) is factored as V^T = Q R by Householder reflections; R has the
    singular values of V, and those at or below ``eps * max(P, K) * s_max``
    are cut as ``lstsq(rcond=None)`` cuts them.  With none cut, the weights
    are w = Q R^-T rhs; the rare rank-deficient rows go through the
    pseudo-inverse of R.  Returns the weights (B, K), the worst constraint
    residual and whether cond(V) <= ``cond_cap`` per anchor; a near-singular
    Vandermonde can satisfy the constraints exactly yet with a huge
    coefficient mass, so the caller treats bad conditioning like an
    exactness failure.

    Most rows never need their singular values: cond(R) <= beta =
    ||R||_F ||R^-1||_F, so a row whose beta is within the cap, less a
    relative margin of ``P * eps * cond_cap`` for the SVD's own rounding, is
    well conditioned as the SVD would judge it, and with beta also far below
    the rank cut at cond ~ 1 / (eps * max(P, K)) it is not cut.  Only the
    other rows, those with an exact zero on R's diagonal among them, take
    the SVD.
    """
    P, K = len(exps), pts.shape[1]
    z = (pts - anchors[:, None, :]) / radius
    zx, zy = z[..., 0], z[..., 1]
    px, py = [np.ones_like(zx)], [np.ones_like(zy)]
    for _ in range(max(i + k for i, k in exps)):
        px.append(px[-1] * zx)
        py.append(py[-1] * zy)
    V = np.empty((z.shape[0], P, K))
    for col, (i, k) in enumerate(exps):
        np.multiply(px[i], py[k], out=V[:, col])
    del z, zx, zy, px, py
    # LAPACK's raw output: row i of ``hh`` holds reflector i below its unit
    # entry, and R sits in the upper triangle of its leading P columns
    hh, tau = np.linalg.qr(np.swapaxes(V, 1, 2), mode="raw")
    r = np.triu(np.swapaxes(hh[..., :P], 1, 2))
    eps = np.finfo(float).eps
    tol = eps * max(P, K)
    # R^-1 is formed in slices of at most _ENTRY_BUDGET / K entries, small
    # next to V; a zero on R's diagonal would divide by zero in the back
    # substitution, so that row keeps beta = inf and goes to the SVD
    beta = np.full(len(r), np.inf)
    invertible = np.flatnonzero(np.all(np.diagonal(r, axis1=1, axis2=2), axis=1))
    step = max(1, _ENTRY_BUDGET // (P * P * K))
    for lo in range(0, invertible.size, step):
        rows = invertible[lo:lo + step]
        r_inv = _upper_inverse(r[rows])
        beta[rows] = np.sqrt(np.einsum("bij,bij->b", r[rows], r[rows])
                             * np.einsum("bij,bij->b", r_inv, r_inv))
    well = (beta <= cond_cap * (1 - P * eps * cond_cap)) & (beta * tol <= 1e-3)
    cut = np.zeros(len(r), dtype=bool)
    unsettled = np.flatnonzero(~well)
    if unsettled.size:
        s = np.linalg.svd(r[unsettled], compute_uv=False)
        cutoff = tol * s[:, :1]
        cut[unsettled] = np.any(s <= cutoff, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            well[unsettled] = s[:, 0] / s[:, -1] <= cond_cap
    y = np.empty(rhs.shape)
    full = ~cut
    y[full] = np.linalg.solve(np.swapaxes(r[full], 1, 2), rhs[full][..., None])[..., 0]
    if cut.any():
        u, sc, vh = np.linalg.svd(r[cut])
        s_inv = np.divide(1.0, sc, out=np.zeros_like(sc), where=sc > cutoff[cut[unsettled]])
        y[cut] = (u @ (s_inv[..., None] * (vh @ rhs[cut][..., None])))[..., 0]
    # w = Q y = H_0 H_1 ... H_{P-1} [y; 0]
    w = np.zeros((len(r), K))
    w[:, :P] = y
    for i in reversed(range(P)):
        tail = hh[:, i, i + 1:]
        d = tau[:, i] * (w[:, i] + np.einsum("bk,bk->b", tail, w[:, i + 1:]))
        w[:, i] -= d
        w[:, i + 1:] -= d[:, None] * tail
    resid = np.max(np.abs((V @ w[..., None])[..., 0] - rhs), axis=1)
    return w, resid, well


def _reproduce(
    j: int,
    anchors: np.ndarray,
    normals,
    centers,
    h: float,
    order: int,
    *,
    gamma: float,
    max_radius: float | None = None,
):
    """Order-``order`` reproductions of op_j at every anchor.

    Returns ``(A, stabilities, radii)``: the coefficients as a CSR matrix
    (anchors x centers), and per-anchor l1 mass and support radius.
    """
    centers = np.asarray(centers, dtype=float)
    if max_radius is None:
        max_radius = 4.0 * float(np.max(np.linalg.norm(centers, axis=1))) + 10 * h
    basis = PolyBasis.up_to_degree(order)
    exps, P = basis.exponents, basis.dimension
    # in anchor-centred coordinates z = (x - alpha)/R the basis at the anchor
    # is e_0, so op_j of every monomial there is row 0 of the op_j maps (times
    # R^-j); odd j still dots the two rows with the anchor's normal
    op_rows = [op[0] for op in basis.op_maps(j)]
    n = anchors.shape[0]

    stab = np.empty(n)
    radii = np.empty(n)
    accepted = np.zeros(n, dtype=bool)
    worst_resid = np.full(n, np.inf)
    # exact but ill-conditioned candidates: the lightest one per anchor is
    # kept while the ball keeps growing; its entries are tagged by step.  The
    # balls are nested, so a candidate with the kept one's support size has
    # its support and its weights, and only a larger support may replace it
    best_stab = np.full(n, np.inf)
    best_size = np.zeros(n, dtype=np.intp)
    best_radius = np.empty(n)
    best_step = np.full(n, -1)
    empty = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0))
    entries = [empty]
    candidates = []

    # order 0 shrinks the nominal ball to a point; start from an exact-match
    # probe so an anchor that is itself a center reproduces as a Kronecker delta
    radius = gamma * order**2 * h if order else 1e-9 * h
    # conditioning-driven growth must not be allowed to destroy locality:
    # past a few-fold enlargement, accept the lightest exact candidate instead
    span_radius = min(max_radius, GROWTH_SPAN_DEFAULT * max(radius, 0.25 * h))
    open_ = np.arange(n)
    step = 0
    while open_.size and radius <= max_radius:
        if radius > span_radius:
            open_ = open_[best_step[open_] < 0]
            if not open_.size:
                break
        counts, flat = _ball_query(centers, anchors[open_], radius)
        starts = np.cumsum(counts) - counts
        by_size = np.argsort(counts, kind="stable")
        edges = np.flatnonzero(np.diff(counts[by_size])) + 1
        done = np.zeros(open_.size, dtype=bool)
        for group in np.split(by_size, edges):
            K = int(counts[group[0]])
            if K < P:
                continue
            rows_per_batch = max(1, _ENTRY_BUDGET // (P * K))
            for lo in range(0, group.size, rows_per_batch):
                sel = group[lo:lo + rows_per_batch]
                ids = open_[sel]
                idx = flat[starts[sel, None] + np.arange(K)]
                rhs = op_rows[0]
                if j % 2:
                    rhs = normals[ids, :1] * op_rows[0] + normals[ids, 1:] * op_rows[1]
                w, resid, well = _min_norm_weights(
                    centers[idx], anchors[ids], radius, exps,
                    np.broadcast_to(rhs * radius ** (-j), (ids.size, P)), COND_CAP_DEFAULT,
                )
                mass = np.sum(np.abs(w), axis=1)
                exact = resid < _RESIDUAL_TOL
                ok = exact & well
                better = exact & ~ok & (K > best_size[ids]) & (mass < best_stab[ids])
                worst_resid[ids] = np.fmin(worst_resid[ids], resid)
                done[sel] = ok
                accepted[ids[ok]] = True
                stab[ids[ok]] = mass[ok]
                radii[ids[ok]] = radius
                entries.append((np.repeat(ids[ok], K), idx[ok].ravel(), w[ok].ravel()))
                if better.any():
                    best_stab[ids[better]] = mass[better]
                    best_size[ids[better]] = K
                    best_radius[ids[better]] = radius
                    best_step[ids[better]] = step
                    candidates.append((
                        np.repeat(ids[better], K), idx[better].ravel(),
                        w[better].ravel(), step,
                    ))
        open_ = open_[~done]
        radius = radius * _GROWTH if order else max(radius * _GROWTH, 0.25 * h)
        step += 1

    failed = np.flatnonzero(~accepted & (best_step < 0))
    if failed.size:
        q = failed[0]
        detail = (
            f" (best residual {worst_resid[q]:.2e})"
            if np.isfinite(worst_resid[q])
            else " (never enough points)"
        )
        raise NormingFailureError(
            f"no order-{order} reproduction at anchor {anchors[q].tolist()} "
            f"within radius {max_radius:.3g}{detail}"
        )
    fallback = ~accepted
    stab[fallback] = best_stab[fallback]
    radii[fallback] = best_radius[fallback]
    for rows, cols, vals, st in candidates:
        keep = fallback[rows] & (best_step[rows] == st)
        entries.append((rows[keep], cols[keep], vals[keep]))
    rows, cols, vals = (np.concatenate(part) for part in zip(*entries))
    A = sparse.csr_matrix((vals, (rows, cols)), shape=(n, centers.shape[0]))
    return A, stab, radii


def interior_reproduction_matrix(
    anchors, centers, h: float, M: int, *, max_radius: float | None = None
) -> tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
    """Stack interior reproductions at many anchors into a sparse matrix.

    Returns ``(A, stabilities, radii)`` with ``A[q, xi] = a(anchor_q, xi)``;
    the rows of A turn center-value vectors into anchor values of any
    polynomial in Pi_M exactly.  Zero anchors give a (0, n_centers) matrix.
    Balls start at radius ``GAMMA_DEFAULT * M^2 * h`` and grow at most to
    ``max_radius``.
    """
    anchors = np.asarray(anchors, dtype=float).reshape(-1, 2)
    return _reproduce(0, anchors, None, centers, h, M, gamma=GAMMA_DEFAULT, max_radius=max_radius)


def boundary_reproduction_matrix(
    j: int, anchors, normals, centers, h_local: float, M: int, **kwargs
) -> tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
    """Stack boundary op_j reproductions at many boundary anchors."""
    anchors = np.asarray(anchors, dtype=float).reshape(-1, 2)
    normals = np.asarray(normals, dtype=float).reshape(-1, 2)
    kwargs.setdefault("gamma", GAMMA_BOUNDARY_DEFAULT)
    return _reproduce(j, anchors, normals, centers, h_local, M, **kwargs)
