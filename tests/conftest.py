import numpy as np
import pytest
import sympy as sp
from hypothesis import HealthCheck, settings

from surfspline.geometry import BoundaryGrid, circle, ellipse
from surfspline.kernel import PairGeometry, PairPlan, SplineParams, pair_kernel
from surfspline.layerpot import _neville_limit, one_sided_trace, trig_upsample
from surfspline.targets import TargetFunction

settings.register_profile(
    "default",
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def disk():
    return circle(1.0)


@pytest.fixture(scope="session")
def ell21():
    return ellipse(2.0, 1.0)


@pytest.fixture(scope="session")
def params2():
    return SplineParams(m=2, d=2)


@pytest.fixture(scope="session")
def grid256(disk):
    return BoundaryGrid.build(disk, 256)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def interior_points(curve, n, rng, margin=0.1):
    """Random points strictly inside the curve (rejection from the box)."""
    out = []
    lo, hi = -curve.max_radius(), curve.max_radius()
    while len(out) < n:
        cand = rng.uniform(lo, hi, size=(4 * n, 2))
        theta = np.arctan2(cand[:, 1], cand[:, 0])
        r = np.hypot(cand[:, 0], cand[:, 1])
        keep = r < curve.polar_radius(theta) - margin
        out.extend(cand[keep])
    return np.asarray(out[:n])


def jump_error(params, j, density, grid):
    """Relative nodal deviation from the jump relation of op_(2m-1-j) V_j:
    ``max |(inside - outside) - (-1)^(j+1) g| / max |g|`` for the single
    charged slot j."""
    k = 2 * params.m - 1 - j
    inner, _ = one_sided_trace(params, density[None, :], grid, k, "inside", slots=(j,))
    outer, _ = one_sided_trace(params, density[None, :], grid, k, "outside", slots=(j,))
    expected = (-1.0) ** (j + 1) * density
    return float(np.max(np.abs((inner - outer) - expected)) / np.max(np.abs(density)))


def direct_trace(params, densities, grid, k, side, slots):
    """The per-density offset ladder that ``one_sided_trace`` ran before the
    trace maps: at each offset, the potentials of the upsampled densities
    summed at the offset nodes, then the Neville limit and its last
    correction (not checked for divergence)."""
    sgn = -1.0 if side == "inside" else 1.0
    n_f = (min(grid.n * 32, 16384) // 2) * 2
    fine = BoundaryGrid.build(grid.curve, n_f)
    charges = [
        (j, fine.weights * trig_upsample(densities[s], n_f)) for s, j in enumerate(slots)
    ]
    spacing = 2 * np.pi * float(np.max(grid.speed)) / grid.n
    deltas = min(5.0 * spacing, grid.curve.reach_estimate()) / 2.0 ** np.arange(5)
    vals = np.empty((len(deltas), grid.n))
    for r, d in enumerate(deltas):
        x = grid.points + sgn * d * grid.normals
        geom = PairGeometry(
            PairPlan(params, [(k, j) for j, _ in charges]), x[:, None, :], fine.points[None],
            grid.normals[:, None, :], fine.normals[None],
        )
        vals[r] = sum(geom.value(*pair_kernel(geom, k, j)) @ c for j, c in charges)
    return _neville_limit(deltas, vals)


_X, _Y = sp.symbols("x y", real=True)


def _lambdify(expr):
    fn = sp.lambdify((_X, _Y), expr, modules="numpy")

    def wrapped(points):
        pts = np.asarray(points, dtype=float)
        out = fn(pts[..., 0], pts[..., 1])
        return np.broadcast_to(np.asarray(out, dtype=float), pts.shape[:-1]).copy()

    return wrapped


def target_from_expression(expr, m, name=None):
    """The symbolic oracle for the closed-form targets: a target built from a
    sympy expression (or a parseable string) in x and y, whose op_k are the
    lambdified symbolic derivatives, simplified after every Laplacian."""
    if isinstance(expr, sp.Expr):
        # replace any same-named symbols so differentiation sees our x, y
        e = expr.subs({s: {"x": _X, "y": _Y}[s.name] for s in expr.free_symbols})
    else:
        e = sp.sympify(expr, locals={"x": _X, "y": _Y})
    ops = {}
    lap = e
    for k in range(0, 2 * m, 2):
        ops[k] = _lambdify(lap)
        ops[k + 1] = (_lambdify(sp.diff(lap, _X)), _lambdify(sp.diff(lap, _Y)))
        lap = sp.simplify(sp.diff(lap, _X, 2) + sp.diff(lap, _Y, 2))
    ops[2 * m] = _lambdify(lap)

    def op(k, points, normals):
        if k % 2 == 0:
            return ops[k](points)
        fx, fy = ops[k]
        return normals[..., 0] * fx(points) + normals[..., 1] * fy(points)

    return TargetFunction(name=name or str(e), m=m, op=op)
