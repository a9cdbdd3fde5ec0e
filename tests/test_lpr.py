"""Local polynomial reproduction: exactness, locality, stability, failure."""

import numpy as np
import pytest
from scipy import sparse
from scipy.spatial import cKDTree

from surfspline import lpr
from surfspline.errors import NormingFailureError
from surfspline.geometry import BoundaryGrid, generate_centers, oversample_boundary
from surfspline.lpr import (
    COND_CAP_DEFAULT,
    GAMMA_BOUNDARY_DEFAULT,
    GAMMA_DEFAULT,
    GROWTH_SPAN_DEFAULT,
    boundary_reproduction_matrix,
    interior_reproduction_matrix,
)
from surfspline.polyspace import PolyBasis, monomial_exponents
from surfspline.scheme import interior_quadrature


@pytest.fixture(scope="module")
def centers05(disk):
    return generate_centers(disk, 0.05, seed=0)


def test_order_zero_is_nearest_center(centers05):
    # a degenerate start radius leaves exactly one center in the support, and
    # reproducing constants from a single point forces the delta weight
    anchor = np.array([0.21, -0.37])
    A, _, _ = interior_reproduction_matrix(anchor[None], centers05.points, 0.05, 0)
    assert A.indices.size == 1
    assert A.data[0] == pytest.approx(1.0, rel=1e-12)
    tree = cKDTree(centers05.points)
    assert A.indices[0] == tree.query(anchor)[1]


def test_interior_exactness_order4(centers05, rng):
    # order 2m = 4 reproduction on all of Pi_4
    pts = centers05.points
    basis = PolyBasis.up_to_degree(4)
    anchors = rng.uniform(-0.5, 0.5, size=(20, 2))
    A, _, _ = interior_reproduction_matrix(anchors, pts, 0.05, 4)
    err = np.max(np.abs(A @ basis.eval(pts) - basis.eval(anchors)), axis=1)
    assert np.all(err < 1e-10)


def test_interior_locality(centers05, rng):
    # supports stay within a couple of growth steps of the nominal ball
    nominal = 0.25 * 16 * 0.05
    anchors = rng.uniform(-0.5, 0.5, size=(10, 2))
    A, _, radii = interior_reproduction_matrix(anchors, centers05.points, 0.05, 4)
    coo = A.tocoo()
    spread = np.linalg.norm(centers05.points[coo.col] - anchors[coo.row], axis=1)
    assert np.max(spread) <= nominal * 1.25**2 + 1e-12
    assert np.all(radii <= nominal * 1.25**2 + 1e-12)


def test_interior_stability_bounded(centers05, rng):
    anchors = rng.uniform(-0.6, 0.6, size=(10, 2))
    A, stab, _ = interior_reproduction_matrix(anchors, centers05.points, 0.05, 4)
    mass = np.asarray(abs(A).sum(axis=1)).ravel()
    assert stab == pytest.approx(mass)
    assert np.all(stab < 25.0)


def test_support_scales_with_h(disk, rng):
    # halving the target spacing should roughly halve the support radius
    coarse = generate_centers(disk, 0.1, seed=0)
    fine = generate_centers(disk, 0.05, seed=0)
    anchors = rng.uniform(-0.4, 0.4, size=(15, 2))
    r_coarse = np.mean(interior_reproduction_matrix(anchors, coarse.points, 0.1, 4)[2])
    r_fine = np.mean(interior_reproduction_matrix(anchors, fine.points, 0.05, 4)[2])
    assert 1.5 <= r_coarse / r_fine <= 3.0


def test_boundary_functional_reproduction(disk, centers05):
    # op_1 reproduction: weighted center values must produce the normal
    # derivative of every polynomial up to the requested order
    t = 1.1
    anchor = np.array([np.cos(t), np.sin(t)])
    normal = anchor.copy()
    B, _, _ = boundary_reproduction_matrix(
        1, anchor[None], normal[None], centers05.points, 0.05, 4
    )
    basis = PolyBasis.up_to_degree(4)
    V = basis.eval(centers05.points)
    targets = basis.op_values(1, anchor[None], normal[None])[0]
    for col, target in enumerate(targets):
        got = float((B @ V[:, col])[0])
        assert got == pytest.approx(target, abs=2e-9)


def test_norming_failure_on_tiny_max_radius(centers05):
    with pytest.raises(NormingFailureError):
        interior_reproduction_matrix(
            np.zeros((1, 2)), centers05.points, 0.05, 4, max_radius=0.02
        )


def test_growth_span_limits_conditioning_growth(centers05, monkeypatch):
    # an impossible conditioning cap must not inflate the support forever:
    # once the span is exhausted the lightest exact candidate is returned
    monkeypatch.setattr(lpr, "COND_CAP_DEFAULT", 1.0)
    anchor = np.array([0.1, 0.2])
    A, _, radii = interior_reproduction_matrix(anchor[None], centers05.points, 0.05, 4)
    nominal = 0.25 * 16 * 0.05
    assert radii[0] <= GROWTH_SPAN_DEFAULT * nominal * 1.25 + 1e-12
    # the returned weights still satisfy the reproduction constraints
    basis = PolyBasis.up_to_degree(4)
    target = basis.eval(anchor[None])[0]
    err = np.max(np.abs((A @ basis.eval(centers05.points))[0] - target))
    assert err < 1e-8


def test_reproduction_matrix_stacks_rows(centers05, rng):
    anchors = rng.uniform(-0.4, 0.4, size=(8, 2))
    A, stab, radii = interior_reproduction_matrix(
        anchors, centers05.points, 0.05, 4
    )
    assert A.shape == (8, len(centers05))
    assert stab.shape == radii.shape == (8,)
    basis = PolyBasis.up_to_degree(4)
    err = A @ basis.eval(centers05.points) - basis.eval(anchors)
    assert np.max(np.abs(err)) < 1e-10
    # a row does not depend on its batch: a one-row call gives it bit for bit
    A3, stab3, radii3 = interior_reproduction_matrix(
        anchors[3:4], centers05.points, 0.05, 4
    )
    np.testing.assert_array_equal(A[3].toarray(), A3.toarray())
    assert (stab3[0], radii3[0]) == (stab[3], radii[3])


# ---------------------------------------------------------------------------
# the batched build against the per-anchor loop it replaced
# ---------------------------------------------------------------------------


def _loop_build(j, normal, anchor, centers, tree, h, order, *, gamma,
                growth=1.25, residual_tol=1e-10, cond_cap=COND_CAP_DEFAULT,
                growth_span=GROWTH_SPAN_DEFAULT, max_radius):
    """One anchor at a time: one ball query and one lstsq per radius step.

    An ill-conditioned candidate replaces the kept one only on a larger
    support: the balls are nested, so an equal count means the same support
    and the same weights, and the first radius that reached it is kept.
    """
    basis = PolyBasis.up_to_degree(order)
    exps = basis.exponents
    radius = gamma * order**2 * h if order else 1e-9 * h
    span_radius = min(max_radius, growth_span * max(radius, 0.25 * h))
    best, worst_resid = None, np.inf
    while radius <= max_radius:
        if best is not None and radius > span_radius:
            return best
        idx = np.asarray(tree.query_ball_point(anchor, radius), dtype=int)
        rhs = basis.op_values(j, np.zeros((1, 2)), normal)[0] * radius ** (-j)
        if idx.size >= len(exps):
            z = (centers[idx] - anchor) / radius
            V = np.stack([z[:, 0] ** i * z[:, 1] ** k for (i, k) in exps], axis=0)
            w, _, _, sv = np.linalg.lstsq(V, rhs, rcond=None)
            resid = float(np.max(np.abs(V @ w - rhs)))
            with np.errstate(divide="ignore"):
                cond = float(sv[0] / sv[-1])
            if resid < residual_tol:
                rep = (idx, w, radius, float(np.sum(np.abs(w))))
                if cond <= cond_cap:
                    return rep
                if best is None or (idx.size > best[0].size and rep[3] < best[3]):
                    best = rep
            worst_resid = min(worst_resid, resid)
        radius = radius * growth if order else max(radius * growth, 0.25 * h)
    if best is not None:
        return best
    detail = (f" (best residual {worst_resid:.2e})" if np.isfinite(worst_resid)
              else " (never enough points)")
    raise NormingFailureError(
        f"no order-{order} reproduction at anchor {anchor.tolist()} within "
        f"radius {max_radius:.3g}{detail}"
    )


def _loop_matrix(j, anchors, normals, centers, h, M, **kwargs):
    tree = cKDTree(centers)
    kwargs.setdefault(
        "max_radius", 4.0 * float(np.max(np.linalg.norm(centers, axis=1))) + 10 * h
    )
    builds = [
        _loop_build(j, nrm, a, centers, tree, h, M, **kwargs)
        for a, nrm in zip(anchors, normals)
    ]
    rows = np.concatenate([np.full(b[0].size, q) for q, b in enumerate(builds)])
    A = sparse.csr_matrix(
        (np.concatenate([b[1] for b in builds]),
         (rows, np.concatenate([b[0] for b in builds]))),
        shape=(len(anchors), len(centers)),
    )
    return A, np.array([b[3] for b in builds]), np.array([b[2] for b in builds])


def _assert_matches_loop(batched, loop):
    A, stab, radii = batched
    A0, stab0, radii0 = loop
    np.testing.assert_array_equal(A.indptr, A0.indptr)
    np.testing.assert_array_equal(A.indices, A0.indices)
    # op_j weights scale like R^-j, so entries are compared on the scale of
    # their row's l1 mass (rows of interior reproductions have mass >= 1)
    row_err = np.abs(A - A0).max(axis=1).toarray().ravel()
    assert np.all(row_err <= 1e-12 * np.maximum(stab0, 1.0))
    np.testing.assert_array_equal(radii, radii0)
    np.testing.assert_allclose(stab, stab0, rtol=1e-12, atol=0)


@pytest.fixture(scope="module")
def centers10(disk):
    return generate_centers(disk, 0.1, seed=0)


def test_batched_interior_matches_loop(disk, centers10):
    # quadrature nodes near the rim need radius growth; a few grown rows
    # must be in the set for the growth path to be compared at all
    nodes = interior_quadrature(disk, 12).nodes
    X = centers10.points
    out = interior_reproduction_matrix(nodes, X, 0.1, 4)
    nominal = GAMMA_DEFAULT * 16 * 0.1
    assert np.count_nonzero(out[2] > nominal) >= 20
    _assert_matches_loop(
        out, _loop_matrix(0, nodes, [None] * len(nodes), X, 0.1, 4,
                          gamma=GAMMA_DEFAULT)
    )


def test_batched_ill_conditioned_path_matches_loop(centers05, rng, monkeypatch):
    # cond_cap = 1 makes every exact candidate ill-conditioned, so each row
    # is the lightest candidate within the growth span.  The anchors sit
    # where every growth step adds centers: on an unchanged support two
    # steps give the same weights, and which radius the loop reports would
    # then be decided by rounding
    anchors = rng.uniform(-0.15, 0.15, size=(12, 2))
    X = centers05.points
    monkeypatch.setattr(lpr, "COND_CAP_DEFAULT", 1.0)
    out = interior_reproduction_matrix(anchors, X, 0.05, 4)
    nominal = GAMMA_DEFAULT * 16 * 0.05
    assert np.any(out[2] > nominal)
    _assert_matches_loop(
        out, _loop_matrix(0, anchors, [None] * 12, X, 0.05, 4,
                          gamma=GAMMA_DEFAULT, cond_cap=1.0)
    )


def test_batched_ill_conditioned_ties_keep_first_radius(disk, centers10, monkeypatch):
    # at cond_cap = 1 every anchor grows to the end of its span, and where a
    # ball of radius 1.22 already holds every center of the unit disk, the
    # step to 1.53 sees the same support and the same weights: the first
    # radius that reached it is reported, not the one rounding favours
    nodes = interior_quadrature(disk, 20).nodes
    anchors = nodes[np.random.default_rng(0).choice(len(nodes), 300, replace=False)]
    X = centers10.points
    monkeypatch.setattr(lpr, "COND_CAP_DEFAULT", 1.0)
    out = interior_reproduction_matrix(anchors, X, 0.1, 4)
    assert np.count_nonzero(out[2] > 1.2) > 50
    _assert_matches_loop(
        out, _loop_matrix(0, anchors, [None] * len(anchors), X, 0.1, 4,
                          gamma=GAMMA_DEFAULT, cond_cap=1.0)
    )


def test_batched_order_zero_matches_loop(disk, centers10):
    # anchors that are centers reproduce as Kronecker deltas at the probe
    # radius; the others grow to the nearest center
    X = centers10.points
    nodes = interior_quadrature(disk, 8).nodes
    anchors = np.vstack([nodes, X[::7]])
    out = interior_reproduction_matrix(anchors, X, 0.1, 0)
    deltas = out[0][len(nodes):]
    assert np.all(np.diff(deltas.indptr) == 1) and np.all(deltas.data == 1.0)
    _assert_matches_loop(
        out, _loop_matrix(0, anchors, [None] * len(anchors), X, 0.1, 0,
                          gamma=GAMMA_DEFAULT)
    )


@pytest.mark.parametrize("j", [0, 1])
def test_batched_boundary_matches_loop(disk, centers10, j):
    bg = BoundaryGrid.build(disk, 96)
    X = centers10.points
    _assert_matches_loop(
        boundary_reproduction_matrix(j, bg.points, bg.normals, X, 0.1, 4),
        _loop_matrix(j, bg.points, bg.normals, X, 0.1, 4,
                     gamma=GAMMA_BOUNDARY_DEFAULT),
    )


@pytest.fixture(scope="module")
def oversampled10(disk, centers10):
    return oversample_boundary(disk, centers10, 0.1, 2.0, 2).points


def test_batched_oversampled_interior_matches_loop(disk, oversampled10, monkeypatch):
    # nu = 2 boundary layers give interior supports from tens to hundreds of
    # centers; a small entry budget splits the wider support groups over
    # several batches as well
    monkeypatch.setattr(lpr, "_ENTRY_BUDGET", 15 * 60 * 4)
    nodes = interior_quadrature(disk, 12).nodes
    out = interior_reproduction_matrix(nodes, oversampled10, 0.1, 4)
    sizes = np.diff(out[0].indptr)
    assert sizes.max() >= 3 * sizes.min()
    _assert_matches_loop(
        out, _loop_matrix(0, nodes, [None] * len(nodes), oversampled10, 0.1, 4,
                          gamma=GAMMA_DEFAULT)
    )


@pytest.mark.parametrize("j", [0, 1])
def test_batched_oversampled_boundary_matches_loop(disk, oversampled10, j):
    bg = BoundaryGrid.build(disk, 240)
    _assert_matches_loop(
        boundary_reproduction_matrix(
            j, bg.points, bg.normals, oversampled10, 0.01, 4, gamma=GAMMA_DEFAULT
        ),
        _loop_matrix(j, bg.points, bg.normals, oversampled10, 0.01, 4,
                     gamma=GAMMA_DEFAULT),
    )


def test_batched_norming_failure_matches_loop(centers05):
    anchors = np.array([[0.3, 0.1], [0.0, 0.0]])
    X = centers05.points
    with pytest.raises(NormingFailureError) as batched:
        interior_reproduction_matrix(anchors, X, 0.05, 4, max_radius=0.02)
    with pytest.raises(NormingFailureError) as loop:
        _loop_matrix(0, anchors, [None] * 2, X, 0.05, 4,
                     gamma=GAMMA_DEFAULT, max_radius=0.02)
    assert str(batched.value) == str(loop.value)


# ---------------------------------------------------------------------------
# the conditioning test by the Frobenius bound against the SVD of every row
# ---------------------------------------------------------------------------


def _svd_everywhere(pts, anchors, radius, exps, rhs):
    """The solver before the Frobenius bound: every row's singular values
    decide both its rank cut and its condition number, returned per row."""
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
    hh, tau = np.linalg.qr(np.swapaxes(V, 1, 2), mode="raw")
    r = np.triu(np.swapaxes(hh[..., :P], 1, 2))
    s = np.linalg.svd(r, compute_uv=False)
    cutoff = np.finfo(float).eps * max(P, K) * s[:, :1]
    cut = np.any(s <= cutoff, axis=1)
    y = np.empty(rhs.shape)
    full = ~cut
    y[full] = np.linalg.solve(np.swapaxes(r[full], 1, 2), rhs[full][..., None])[..., 0]
    if cut.any():
        u, sc, vh = np.linalg.svd(r[cut])
        s_inv = np.divide(1.0, sc, out=np.zeros_like(sc), where=sc > cutoff[cut])
        y[cut] = (u @ (s_inv[..., None] * (vh @ rhs[cut][..., None])))[..., 0]
    w = np.zeros((z.shape[0], K))
    w[:, :P] = y
    for i in reversed(range(P)):
        tail = hh[:, i, i + 1:]
        d = tau[:, i] * (w[:, i] + np.einsum("bk,bk->b", tail, w[:, i + 1:]))
        w[:, i] -= d
        w[:, i + 1:] -= d[:, None] * tail
    resid = np.max(np.abs((V @ w[..., None])[..., 0] - rhs), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = s[:, 0] / s[:, -1]
    return w, resid, cond


def _squeezed(rng, B, K, radius):
    """B discs of K points squeezed by a factor a_b across a random direction;
    returns a function of the factors giving the (B, K, 2) supports, and
    their anchors."""
    anchors = rng.uniform(-1.0, 1.0, size=(B, 2))
    u = rng.uniform(-1.0, 1.0, size=(B, K, 2))
    t = rng.uniform(0.0, 2 * np.pi, size=(B, 1))
    c, s = np.cos(t), np.sin(t)

    def make(a):
        v = u[..., 1] * a[:, None]
        return anchors[:, None] + radius * np.stack(
            [c * u[..., 0] - s * v, s * u[..., 0] + c * v], axis=-1
        )

    return make, anchors


def _cond_tuned(rng, exps, K, radius, targets):
    """Supports whose cond(V), as the SVD computes it, is close to each
    target: a secant search on the log of the squeeze."""
    B = len(targets)
    make, anchors = _squeezed(rng, B, K, radius)
    rhs = np.zeros((B, len(exps)))

    def log_cond(la):
        return np.log(_svd_everywhere(make(np.exp(la)), anchors, radius, exps, rhs)[2])

    goal = np.log(targets)
    la0, la1 = np.full(B, -1.0), np.full(B, -3.0)
    f0, f1 = log_cond(la0) - goal, log_cond(la1) - goal
    for _ in range(12):
        slope = np.where(f1 == f0, 1.0, (f1 - f0) / np.where(f1 == f0, 1.0, la1 - la0))
        la0, f0 = la1, f1
        la1 = np.minimum(la1 - f1 / slope, 0.0)
        f1 = log_cond(la1) - goal
    return make(np.exp(la1)), anchors


#: caps the bound is checked at: the largest float below 1 sits just under
#: the exact cond of 1 that every order-0 row has
_CAPS = (np.nextafter(1.0, 0.0), 1.0, 1e2, 1e4, 1e8, 1e15)


@pytest.mark.parametrize("order", range(5))
def test_min_norm_weights_match_svd_everywhere(order, rng):
    # weights, residuals and accept decisions are bitwise those of the SVD of
    # every row, on supports from well spread to rank-deficient, and on ones
    # whose cond sits just either side of each cap.  Order-0 rows hold only
    # the monomial 1, whose R is -sqrt(K): for K = 7, 15, 21 and 30 its bound
    # rounds to just under 1
    exps = monomial_exponents(order)
    P = len(exps)
    radius = 0.3
    sizes = sorted({P, P + 1, 7, 15, 21, 30, 60, 500} - set(range(P)))
    conds = []
    for K in sizes:
        make, anchors = _squeezed(rng, 24, K, radius)
        # spread, squeezed up to the rank cut, and exactly collinear supports
        a = np.concatenate([np.ones(8), 10.0 ** -rng.uniform(0, 16, 14), [0, 0]])
        parts = [(make(a), anchors)]
        if order:
            near = np.outer([1e2, 1e4, 1e8], 1 + np.array([-1e-3, -1e-6, 1e-6, 1e-3]))
            # past the rank cut at cond = 1 / (eps * max(P, K)), yet for P = 3
            # within a cap of 1e15 less its rounding margin
            far = [1e14, 3e14] if K >= 60 else []
            targets = np.concatenate([near.ravel(), far])
            parts.append(_cond_tuned(rng, exps, K, radius, targets))
        pts = np.concatenate([p for p, _ in parts])
        anchors = np.concatenate([q for _, q in parts])
        rhs = rng.standard_normal((len(pts), P))
        w0, resid0, cond0 = _svd_everywhere(pts, anchors, radius, exps, rhs)
        for cap in _CAPS:
            w, resid, well = lpr._min_norm_weights(pts, anchors, radius, exps, rhs, cap)
            np.testing.assert_array_equal(w, w0)
            np.testing.assert_array_equal(resid, resid0)
            np.testing.assert_array_equal(well, cond0 <= cap)
        conds.append(cond0)
    if order:
        # the tuned rows straddle each cap within a relative 2e-6
        gaps = np.concatenate(conds)[:, None] / [1e2, 1e4, 1e8] - 1
        assert np.all(np.any((gaps > 0) & (gaps < 2e-6), axis=0))
        assert np.all(np.any((gaps <= 0) & (gaps > -2e-6), axis=0))


def test_bound_spares_most_rows_the_svd(disk, centers05, monkeypatch):
    # on a plain rung the Frobenius bound settles the conditioning test of
    # almost every row; only the rows it leaves open take singular values
    rows, svd_rows = [], []
    solve, svd = lpr._min_norm_weights, np.linalg.svd

    def count_rows(pts, *args):
        rows.append(len(pts))
        return solve(pts, *args)

    def count_svd(a, *args, **kwargs):
        if kwargs.get("compute_uv") is False:
            svd_rows.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(lpr, "_min_norm_weights", count_rows)
    monkeypatch.setattr(np.linalg, "svd", count_svd)
    X = centers05.points
    interior_reproduction_matrix(interior_quadrature(disk, 24).nodes, X, 0.05, 4)
    bg = BoundaryGrid.build(disk, 128)
    for j in (0, 1):
        boundary_reproduction_matrix(j, bg.points, bg.normals, X, 0.05, 4)
    assert sum(svd_rows) < 0.1 * sum(rows)


def _assert_matches_lstsq(pts, anchors, radius, exps, rhs, w, resid, well, cap):
    """Each row against lstsq: its weights, residual and the cap test on its
    singular values; returns the rank lstsq found per row."""
    ranks = []
    for b in range(len(pts)):
        z = (pts[b] - anchors[b]) / radius
        V = np.stack([z[:, 0] ** i * z[:, 1] ** k for (i, k) in exps], axis=0)
        w0, _, rank, sv = np.linalg.lstsq(V, rhs[b], rcond=None)
        np.testing.assert_allclose(w[b], w0, rtol=0, atol=1e-12)
        assert resid[b] == pytest.approx(np.max(np.abs(V @ w0 - rhs[b])), abs=1e-12)
        with np.errstate(divide="ignore"):
            assert well[b] == (sv[0] / sv[-1] <= cap)
        ranks.append(rank)
    return np.array(ranks)


def test_rank_deficient_support_matches_lstsq(rng):
    # collinear centers leave the Vandermonde rank-deficient: the singular
    # values lstsq would cut must be cut, giving its least-squares weights,
    # and only the full-rank row can pass a cap
    exps = monomial_exponents(2)
    t = rng.uniform(-1.0, 1.0, size=(3, 20))
    pts = np.stack([t, 0.5 * t + 0.1], axis=-1)
    pts[2, :5] += rng.uniform(-0.3, 0.3, size=(5, 2))  # one full-rank row
    anchors = np.zeros((3, 2))
    rhs = np.tile(PolyBasis.up_to_degree(2).op_values(0, np.zeros(2)), (3, 1))
    accepted = []
    for cap in (1e2, 1e4, 1e8, 1e12):
        out = lpr._min_norm_weights(pts, anchors, 0.8, exps, rhs, cap)
        ranks = _assert_matches_lstsq(pts, anchors, 0.8, exps, rhs, *out, cap)
        np.testing.assert_array_equal(ranks < len(exps), [True, True, False])
        accepted.append(out[2])
    # the full-rank row's condition number lies between the caps tried
    assert not np.any(accepted[0]) and np.array_equal(accepted[-1], [False, False, True])


def test_exactly_singular_support_takes_the_cut(rng):
    # support points all on the anchor's horizontal line make every monomial
    # with a y factor vanish, so R has exact zeros on its diagonal; the row
    # must take the cut, and its batch of well-conditioned rows must not raise
    exps = monomial_exponents(2)
    pts = rng.uniform(-1.0, 1.0, size=(4, 20, 2))
    anchors = rng.uniform(-0.2, 0.2, size=(4, 2))
    pts[1, :, 1] = anchors[1, 1]
    z = (pts[1] - anchors[1]) / 0.8
    V = np.stack([z[:, 0] ** i * z[:, 1] ** k for (i, k) in exps], axis=0)
    assert np.count_nonzero(np.diag(np.linalg.qr(V.T, mode="r")) == 0) == 3
    rhs = rng.standard_normal((4, len(exps)))
    out = lpr._min_norm_weights(pts, anchors, 0.8, exps, rhs, COND_CAP_DEFAULT)
    ranks = _assert_matches_lstsq(pts, anchors, 0.8, exps, rhs, *out, COND_CAP_DEFAULT)
    np.testing.assert_array_equal(ranks, [6, 3, 6, 6])
    np.testing.assert_array_equal(out[2], [True, False, True, True])


def test_reproduction_matrices_with_no_anchors(centers05):
    X = centers05.points
    none = np.empty((0, 2))
    for A, stab, radii in (
        interior_reproduction_matrix(none, X, 0.05, 4),
        boundary_reproduction_matrix(1, none, none, X, 0.05, 4),
    ):
        assert sparse.issparse(A) and A.format == "csr"
        assert A.shape == (0, len(X))
        assert stab.shape == radii.shape == (0,)


# ---------------------------------------------------------------------------
# R^-1 for the Frobenius bound by a batched back substitution
# ---------------------------------------------------------------------------


def _triangular_factors(pts, anchors, radius, exps):
    """R of each support's scaled Vandermonde V^T = Q R."""
    z = (pts - anchors[:, None, :]) / radius
    V = np.stack([z[..., 0] ** i * z[..., 1] ** k for (i, k) in exps], axis=1)
    hh, _ = np.linalg.qr(np.swapaxes(V, 1, 2), mode="raw")
    return np.triu(np.swapaxes(hh[..., :len(exps)], 1, 2))


def test_upper_inverse_matches_inv(rng):
    # well conditioned, the back substitution agrees with a general inverse
    # to 1e-12; on supports squeezed up to the rank cut it stays within
    # cond(R) eps of it, relative, in the Frobenius norm
    eps = np.finfo(float).eps
    for P in (1, 3, 6, 10, 15):
        hh, _ = np.linalg.qr(rng.standard_normal((50, 40, P)), mode="raw")
        r = np.triu(np.swapaxes(hh[..., :P], 1, 2))
        x, ref = lpr._upper_inverse(r), np.linalg.inv(r)
        assert np.all(np.tril(x, -1) == 0.0)
        err = np.linalg.norm(x - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
        assert err.max() < 1e-12, P
    for order in range(1, 5):
        exps = monomial_exponents(order)
        for K in sorted({len(exps), 15, 30, 500}):
            make, anchors = _squeezed(rng, 24, K, 0.3)
            r = _triangular_factors(make(10.0 ** -rng.uniform(0, 16, 24)), anchors, 0.3, exps)
            x, ref = lpr._upper_inverse(r), np.linalg.inv(r)
            s = np.linalg.svd(r, compute_uv=False)
            err = np.linalg.norm(x - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
            assert np.all(err <= s[:, 0] / s[:, -1] * eps), (order, K)


def test_zero_diagonal_rows_skip_the_substitution_for_the_svd(rng, monkeypatch):
    # a support on the anchor's horizontal line gives R exact zeros on its
    # diagonal: the back substitution never sees it, the SVD decides it, and
    # the rows around it are settled by the bound
    exps = monomial_exponents(2)
    pts = rng.uniform(-1.0, 1.0, size=(6, 20, 2))
    anchors = rng.uniform(-0.2, 0.2, size=(6, 2))
    singular = np.array([False, True, False, False, True, False])
    pts[singular, :, 1] = anchors[singular, 1:]
    substituted, svd_rows = [], []
    upper_inverse, svd = lpr._upper_inverse, np.linalg.svd

    def record_substitution(r):
        substituted.append(r)
        return upper_inverse(r)

    def record_svd(a, *args, **kwargs):
        if kwargs.get("compute_uv") is False:
            svd_rows.append(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(lpr, "_upper_inverse", record_substitution)
    monkeypatch.setattr(np.linalg, "svd", record_svd)
    rhs = rng.standard_normal((6, len(exps)))
    _, _, well = lpr._min_norm_weights(pts, anchors, 0.8, exps, rhs, COND_CAP_DEFAULT)
    np.testing.assert_array_equal(well, ~singular)
    r = np.concatenate(substituted)
    assert len(r) == 4 and np.all(np.diagonal(r, axis1=1, axis2=2))
    np.testing.assert_array_equal(
        np.concatenate(svd_rows), _triangular_factors(pts, anchors, 0.8, exps)[singular]
    )
