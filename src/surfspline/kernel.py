"""Polyharmonic (surface-spline) kernels and their boundary-operator derivatives.

The basic object is the fundamental solution ``phi`` of the m-th iterate of the
Laplacian in the plane,

    phi(x) = C * |x|^(2m-2) * log|x|

with the constant ``C = fs_constant(m)`` normalized so that the m-fold
Laplacian of ``phi`` is the Dirac delta at the origin.  The package is planar
throughout: curves, polynomial spaces and kernels are all two-dimensional.
Everything else in this module is obtained from ``phi`` by exact radial
calculus: iterated radial Laplacians, radial derivatives, and the
direction-cosine factors produced by normal derivatives.  No numerical
differentiation is involved.

Boundary operators: for a function ``f`` and a unit field ``n``,

    op_0 f = f,
    op_k f = (Laplacian^(k/2) f)            for even k,
    op_k f = n . grad (Laplacian^((k-1)/2) f)   for odd k.

``pair_kernel(geom, k, j)`` applies op_k in the first and op_j in the second
(source) argument of ``phi(x - alpha)`` on a block of point pairs whose
distances and direction cosines ``geom`` (a ``PairGeometry``) holds; these are
the kernels of the layer potentials, of their one-sided traces and of their
boundary restrictions, and all of them are evaluated there.
``boundary_kernel(params, j, ...)`` is its k = 0 case for given points.

Radial profiles are represented exactly as finite sums ``c * r^p * log(r)^e``
with integer powers ``p`` and ``e in {0, 1}``; this family is closed under the
radial Laplacian and under d/dr, so all kernels in the package are evaluated
from closed forms.

A bulk kernel sum runs over :func:`tiles` of its targets, and keeps the work
that does not depend on a tile out of the tile body:

* A ``PairPlan`` holds the radial calculus of a call's (k, j) kernels, done
  once per call: each order's factor groups with their profiles, the
  direction cosines they need, and the distinct powers of r.  A tile's
  ``PairGeometry`` forms each of those powers once and shares it across every
  order and group; each piece's sum starts from its first term.  It takes
  r as ``sqrt(dx*dx + dy*dy)`` in place, and every power as a product of r
  and one reciprocal 1/r, not through libm's scalar ``hypot`` and ``pow``.
* ``phi_from_r2`` works in two buffers a tile loop allocates once: one
  takes r^2 and turns it into the values in place, the other takes log r^2.
  Only a tile that holds a zero distance pays for the mask of the
  continuous limit.

Every value is the same, bit for bit, as a fresh per-call evaluation gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainValidityError, SingularEvaluationError

__all__ = [
    "SplineParams",
    "fs_constant",
    "RadialTerms",
    "phi_profile",
    "iterated_laplacian_profile",
    "phi_from_r2",
    "TILE_ENTRIES",
    "tiles",
    "PairPlan",
    "PairGeometry",
    "pair_kernel",
    "boundary_kernel",
]

#: a pair geometry refuses pairs closer than this as coincident
SINGULAR_TOL = 1e-12

#: entries (target rows x sources) of one tile of a bulk kernel sum: 2^15
#: doubles are 256 KB, so a tile's arrays stay in cache.  A pair-kernel
#: tile forms its arrays per tile, from the call's one PairPlan; the phi
#: tiles write into two buffers sized once per call for its largest tile,
#: so they allocate nothing
TILE_ENTRIES = 1 << 15


@dataclass(frozen=True)
class SplineParams:
    """Order ``m`` of a planar surface spline.

    ``d`` is the space dimension and must be 2.  The package assumes
    ``m >= 2`` (the order-1 kernels never appear in the approximation
    scheme), which also makes ``phi`` continuous.
    """

    m: int
    d: int = 2

    def __post_init__(self) -> None:
        if not (isinstance(self.m, (int, np.integer)) and isinstance(self.d, (int, np.integer))):
            raise ValueError("m and d must be integers")
        if self.d != 2:
            raise ValueError(f"only planar splines are supported: d must be 2, got d={self.d}")
        if self.m < 2:
            raise ValueError(f"surface-spline order must satisfy m >= 2, got m={self.m}")


def fs_constant(m: int) -> float:
    """Normalization constant making the m-fold Laplacian of ``phi`` a delta.

    The constant is ``1 / (2^(2m-1) * pi * (m-1)!^2)``, the classical
    planar fundamental-solution normalization for ``Lap^m`` (not for
    ``(-Lap)^m``; the two differ by ``(-1)^m`` and coincide for the even
    orders used in the experiments).  The sign convention is pinned
    numerically by the Green's-representation identity test in the harness.
    """
    return 1.0 / (
        2.0 ** (2 * m - 1) * math.pi * math.factorial(m - 1) * math.factorial(m - 1)
    )


# ---------------------------------------------------------------------------
# exact radial calculus
# ---------------------------------------------------------------------------


class RadialTerms:
    """A finite sum of terms ``c * r^p * log(r)^e`` with ``e`` in {0, 1}.

    Closed under the planar radial Laplacian and under d/dr, which
    is all the calculus the kernels need.  Terms with coefficient exactly zero
    are dropped, so iterating the Laplacian of ``phi`` eventually yields the
    empty (identically zero) profile away from the origin.
    """

    __slots__ = ("terms",)

    def __init__(self, terms) -> None:
        merged: dict[tuple[int, int], float] = {}
        for c, p, e in terms:
            if e not in (0, 1):
                raise ValueError("log exponent must be 0 or 1")
            key = (int(p), int(e))
            merged[key] = merged.get(key, 0.0) + float(c)
        self.terms: tuple[tuple[float, int, int], ...] = tuple(
            (c, p, e) for (p, e), c in sorted(merged.items()) if c != 0.0
        )

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def laplacian(self) -> "RadialTerms":
        """Planar radial Laplacian f'' + f'/r applied termwise (exact)."""
        out = []
        for c, p, e in self.terms:
            out.append((c * p * p, p - 2, e))
            if e == 1:
                out.append((c * (2 * p), p - 2, 0))
        return RadialTerms(out)

    def derivative(self) -> "RadialTerms":
        """d/dr applied termwise (exact)."""
        out = []
        for c, p, e in self.terms:
            out.append((c * p, p - 1, e))
            if e == 1:
                out.append((c, p - 1, 0))
        return RadialTerms(out)

    def divide_by_r(self) -> "RadialTerms":
        return RadialTerms((c, p - 1, e) for c, p, e in self.terms)

    def __sub__(self, other: "RadialTerms") -> "RadialTerms":
        return RadialTerms(
            list(self.terms) + [(-c, p, e) for c, p, e in other.terms]
        )

    def __neg__(self) -> "RadialTerms":
        return RadialTerms((-c, p, e) for c, p, e in self.terms)

    def min_power(self) -> int:
        if not self.terms:
            return 0
        return min(p for _, p, _ in self.terms)

    def eval_split(self, r: np.ndarray, powers) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Return ``(reg, logc)`` with value = reg + logc * log(r).

        Both pieces are smooth in ``r^2`` for the boundary-restricted kernels,
        which is what the singularity-splitting quadrature relies on.  Each
        piece sums its terms in order, starting from the first; a piece with
        no term is None.  ``powers`` maps each nonzero power p of the terms
        to ``r**p``, which a block's profiles share.
        """
        r = np.asarray(r, dtype=float)
        pieces = [None, None]
        for c, p, e in self.terms:
            term = np.full_like(r, c) if p == 0 else c * powers[p]
            if pieces[e] is None:
                pieces[e] = term
            else:
                pieces[e] += term
        return pieces[0], pieces[1]

    def value_at_zero_limit(self) -> tuple[float, float]:
        """Diagonal limit ``(reg0, logc0)`` keeping only the r^0 terms.

        Valid when no term has negative power, which the caller checks.
        """
        reg0 = 0.0
        logc0 = 0.0
        for c, p, e in self.terms:
            if p == 0:
                if e:
                    logc0 += c
                else:
                    reg0 += c
        return reg0, logc0


def phi_profile(params: SplineParams) -> RadialTerms:
    """Radial profile of the fundamental solution."""
    return RadialTerms([(fs_constant(params.m), 2 * params.m - 2, 1)])


def iterated_laplacian_profile(params: SplineParams, q: int) -> RadialTerms:
    """Radial profile of the q-fold Laplacian of ``phi`` (exact, q >= 0)."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    prof = phi_profile(params)
    for _ in range(q):
        prof = prof.laplacian()
    return prof


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------


def _as_points(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.shape[-1] != 2:
        raise ValueError("points must have trailing dimension 2")
    return a


def phi_from_r2(params: SplineParams, r2, scratch=None) -> np.ndarray:
    """Kernel values from squared distances, avoiding the square root.

    The kernel C r^(2m-2) log r is an integer power of r^2 times half a log
    of r^2; zero distances map to the continuous limit 0.  The value is
    formed in place, in the operation order ``(c * r2**p) * log(r2)`` that
    fixes its bits; scalars give 0-d arrays.  A tile loop passes its own
    float array ``r2``, which is overwritten by the values and returned, and
    a ``scratch`` array of its shape, which takes log(r2); without
    ``scratch`` the input is left as it was.
    """
    if scratch is None:
        r2 = np.array(r2, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r2 = np.log(r2, out=scratch)
        if params.m > 2:  # at m = 2 the power is 1, which changes no bit
            r2 **= params.m - 1
        r2 *= 0.5 * fs_constant(params.m)
        r2 *= log_r2
    # log(r2) > -inf exactly where r2 > 0, so only a block that holds a zero
    # (or NaN) distance pays for the mask
    if not log_r2.min(initial=np.inf) > -np.inf:
        r2[~(log_r2 > -np.inf)] = 0.0
    return r2


def tiles(n_rows: int, n_sources: int):
    """Row ranges ``(lo, hi)`` of the tiles of a bulk kernel sum.

    A tile holds about :data:`TILE_ENTRIES` kernel values, read at call
    time: its step is that budget over ``n_sources``, rounded down to a
    multiple of 8 and at least 8 rows, and the remainder joins the last full
    tile.  BLAS mat-vecs give a call's trailing rows their own bits, so
    steps of 8 and a single ragged tail keep every row's value independent
    of the tiling, and equal to a single call's.
    """
    step = max(8, TILE_ENTRIES // max(n_sources, 1) // 8 * 8)
    n_tiles = max(1, n_rows // step) if n_rows > 0 else 0
    for t in range(n_tiles):
        yield t * step, n_rows if t == n_tiles - 1 else (t + 1) * step


def _pair_groups(params: SplineParams, k: int, j: int):
    """Factor groups for the doubly-operated kernel.

    Returns a list of ``(tag, profile)`` with tag in {"1", "u", "v", "uv",
    "ndot"}; the kernel value is the sum over groups of
    ``profile(r) * factor``.
    """
    if k < 0 or j < 0:
        raise ValueError("operator orders must be nonnegative")
    s = k + j
    if k % 2 == 0 and j % 2 == 0:
        return [("1", iterated_laplacian_profile(params, s // 2))]
    if k % 2 == 0 and j % 2 == 1:
        g = iterated_laplacian_profile(params, (s - 1) // 2)
        return [("v", g.derivative())]
    if k % 2 == 1 and j % 2 == 0:
        g = iterated_laplacian_profile(params, (s - 1) // 2)
        return [("u", g.derivative())]
    g = iterated_laplacian_profile(params, (s - 2) // 2)
    gp = g.derivative()
    return [
        ("uv", gp.derivative() - gp.divide_by_r()),
        ("ndot", -gp.divide_by_r()),
    ]


class PairPlan:
    """The radial calculus of a bulk call's pair kernels, done once.

    For each (k, j) in ``orders``, ``groups[k, j]`` lists the nonzero factor
    groups ``(tag, profile)`` of :func:`_pair_groups`; ``tags`` are the
    factors all of them use and ``powers`` the distinct nonzero powers of r
    in their profiles.  Every tile's :class:`PairGeometry` of the call
    shares the plan.
    """

    def __init__(self, params: SplineParams, orders):
        self.groups = {
            (k, j): [(tag, prof) for tag, prof in _pair_groups(params, k, j) if not prof.is_zero]
            for k, j in orders
        }
        groups = [group for order in self.groups.values() for group in order]
        self.tags = {tag for tag, _ in groups}
        self.powers = sorted({p for _, prof in groups for _, p, _ in prof.terms} - {0})


def _powers(r: np.ndarray, ps) -> dict[int, np.ndarray]:
    """``r**p`` for each nonzero integer p in ``ps``, by products alone.

    Each power splits as r^p = r^q r^(p-q) with q = p/2 rounded towards
    zero, down to r itself and one reciprocal 1/r, so no power goes through
    libm's ``pow``; p = -1, 1 and 2 get the bits of ``r**p``.
    """
    pw = {1: r}
    if any(p < 0 for p in ps):
        pw[-1] = 1.0 / r
    return {p: _power(pw, p) for p in ps}


def _power(pw: dict, p: int) -> np.ndarray:
    # a module function, not a closure: a recursive closure is a reference
    # cycle that would keep a tile's powers alive until the cyclic collector
    if p not in pw:
        q = int(p / 2)
        pw[p] = _power(pw, q) * _power(pw, p - q)
    return pw[p]


class PairGeometry:
    """Shared geometry of a block of (target ``x``, source ``alpha``) pairs.

    Holds ``r = |x - alpha|``, its ``powers`` that the kernels of ``plan``
    use, and ``factors``, the group factors by tag: of the direction cosines
    ``u = n_x.(x-a)/r``, ``v = n_a.(a-x)/r``, their product ``uv`` and
    ``ndot = n_x.n_a``, only those the plan's groups use (the radial group
    "1" has none).  ``log r`` is formed on first use.  A block's geometry is
    computed once and shared by every (k, j) kernel :func:`pair_kernel`
    evaluates on it.  Shapes broadcast, with points and normals as
    ``(..., 2)`` arrays; odd k needs ``n_x`` and odd j needs ``n_alpha``.
    """

    def __init__(self, plan: PairPlan, x, alpha, n_x=None, n_alpha=None):
        x, alpha = _as_points(x), _as_points(alpha)
        dx = x[..., 0] - alpha[..., 0]
        dy = x[..., 1] - alpha[..., 1]
        # in place, into an array even for a single pair
        r = np.multiply(dx, dx, out=np.empty(np.shape(dx)))
        r += dy * dy
        np.sqrt(r, out=r)
        if np.any(r <= SINGULAR_TOL):
            raise SingularEvaluationError("pair kernel evaluated at coincident points")
        tags = plan.tags
        if n_x is None and tags & {"u", "uv", "ndot"}:
            raise ValueError("odd target orders need the target normals n_x")
        if n_alpha is None and tags & {"v", "uv", "ndot"}:
            raise ValueError("odd source orders need the source normals n_alpha")
        self.plan = plan
        self.r = r
        self.powers = _powers(r, plan.powers)
        # each cosine in its formula's operation order, (a0 b0 + a1 b1) / r,
        # with the sum, sign and quotient taken in place
        fac = {"1": None}
        if tags & {"u", "uv"}:
            n_x = _as_points(n_x)
            u = n_x[..., 0] * dx
            u += n_x[..., 1] * dy
            u /= r
            fac["u"] = u
        if tags & {"v", "uv"}:
            n_alpha = _as_points(n_alpha)
            v = n_alpha[..., 0] * dx
            v += n_alpha[..., 1] * dy
            v *= -1.0
            v /= r
            fac["v"] = v
        if "uv" in tags:
            fac["uv"] = fac["u"] * fac["v"]
        if "ndot" in tags:
            n_x, n_alpha = _as_points(n_x), _as_points(n_alpha)
            ndot = n_x[..., 0] * n_alpha[..., 0]
            ndot += n_x[..., 1] * n_alpha[..., 1]
            fac["ndot"] = ndot
        self.factors = fac

    @cached_property
    def log_r(self) -> np.ndarray:
        return np.log(self.r)

    def value(self, reg: np.ndarray, logc: np.ndarray) -> np.ndarray:
        """Kernel value ``reg + logc * log r`` of a split :func:`pair_kernel`."""
        if np.all(logc == 0.0):
            return reg
        return reg + logc * self.log_r


def pair_kernel(geom: PairGeometry, k: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """op_k in ``x`` (along n_x) and op_j in ``alpha`` (along n_alpha) of
    ``phi(x - alpha)`` on a block, split as ``(reg, logc)``.

    The kernel value is ``geom.value(reg, logc) = reg + logc * log r``.  The
    split is what the singularity-splitting boundary quadrature needs; every
    boundary kernel in the package is evaluated here.  ``(k, j)`` must be
    one of the orders of ``geom.plan``.  Each half sums its groups' pieces,
    each times its factor, in order from the first; a half without one is
    zero.
    """
    halves = [None, None]
    for tag, prof in geom.plan.groups[k, j]:
        fac = geom.factors[tag]
        for half, piece in enumerate(prof.eval_split(geom.r, geom.powers)):
            if piece is None:
                continue
            if fac is not None:
                piece *= fac
            if halves[half] is None:
                halves[half] = piece
            else:
                halves[half] += piece
    reg, logc = (np.zeros_like(geom.r) if h is None else h for h in halves)
    return reg, logc


#: least profile power of each factor group with a finite diagonal limit:
#: the single direction cosines vanish linearly at the diagonal
_DIAG_MIN_POWER = {"1": 0, "ndot": 0, "uv": 0, "u": 1, "v": 1}


def _pair_diag(params: SplineParams, k: int, j: int) -> tuple[float, float]:
    """Coincidence limit ``(reg0, logc0)`` of the smooth kernel factors.

    Only the r^0 terms of the pure-radial and normal-dot groups survive: the
    single direction cosines vanish linearly and their product quadratically
    at the diagonal, while every group's profile powers reach
    :data:`_DIAG_MIN_POWER` in the weakly singular range ``k + j <= 2m - 2``
    (asserted here).
    """
    reg0 = 0.0
    logc0 = 0.0
    for tag, prof in _pair_groups(params, k, j):
        if prof.is_zero:
            continue
        if prof.min_power() < _DIAG_MIN_POWER[tag]:
            raise DomainValidityError(f"pair ({k},{j}) is too singular for a diagonal limit")
        if tag in ("1", "ndot"):
            a, b = prof.value_at_zero_limit()
            reg0 += a
            logc0 += b
    return reg0, logc0


def boundary_kernel(params: SplineParams, j: int, x, alpha, n_alpha) -> np.ndarray:
    """Apply the order-``j`` boundary operator in the source variable.

    Evaluates op_j (in ``alpha``, with unit field ``n_alpha``) of
    ``phi(x - alpha)``.  ``x`` may be anywhere off the source points; shapes
    broadcast, with points as ``(..., 2)`` arrays.
    """
    if j < 0 or j > 2 * params.m - 1:
        raise DomainValidityError(
            f"boundary operator order must lie in [0, 2m-1], got {j}"
        )
    geom = PairGeometry(PairPlan(params, [(0, j)]), x, alpha, n_alpha=n_alpha)
    return geom.value(*pair_kernel(geom, 0, j))
