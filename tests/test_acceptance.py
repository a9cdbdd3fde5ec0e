"""Top-level acceptance checks, one test per headline capability.

Each test prints a single summary line with its measured numbers, so a
verbose run reads as a checklist of the package's core claims: the
representation identities, the boundary-value solver, the jump relations,
the local reproductions, the convergence rates with and without boundary
oversampling, the error-kernel decay exponents, and the behavior of the
global extension.
"""

import time

import numpy as np
import pytest

from surfspline import scheme
from surfspline.dirichlet import principal_symbol_matrix, solve_dirichlet
from surfspline.geometry import BoundaryGrid, circle, generate_centers
from surfspline.harness import ExperimentConfig, converge
from surfspline.kernel import SplineParams
from surfspline.lpr import interior_reproduction_matrix
from surfspline.polyspace import PolyBasis
from surfspline.scheme import (
    ExtensionField,
    annihilation_check,
    boundary_support_is_local,
    error_kernel_norms,
    extension_continuity,
    greens_representation,
    probe_points,
    scheme_grids,
    volume_potential,
)
from surfspline.targets import named_target
from tests.conftest import interior_points, jump_error

PARAMS = SplineParams(m=2, d=2)
DISK = circle(1.0)
LADDER = (0.2, 0.1, 0.05, 0.025)


def _report(label: str, text: str) -> None:
    print(f"[{label}] {text}")


# ---------------------------------------------------------------------------
# shared heavyweight fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def rate_reports():
    """Both convergence ladders (plain and critically oversampled) for the
    same smooth target, centers, and measurement grids."""
    base = dict(
        curve="disk",
        m=2,
        target="wave",
        h_ladder=LADDER,
        seed=0,
        probe_grid=512,
        n_solver=256,
        quad_level=64,
    )
    t0 = time.perf_counter()
    plain = converge(ExperimentConfig(**base))
    plain_secs = time.perf_counter() - t0
    over = converge(ExperimentConfig(**base, oversample=2.0))
    return plain, plain_secs, over


@pytest.fixture(scope="module")
def expx_extension():
    grids = scheme_grids(DISK, 0.1, n_solver=256)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scheme, "_EXTENSION_LEVEL_FLOOR", 32)
        return ExtensionField(PARAMS, grids, named_target("expx", 2))


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def test_criterion_01_volume_plus_layers_identity():
    # reconstructing exp(x) on the disk from its bilaplacian and all four
    # boundary traces; also confirm the check has teeth by detuning the
    # kernel normalization
    t0 = time.perf_counter()
    f = named_target("expx", 2)
    probes = probe_points(DISK, 32, 0.02)
    err = np.max(np.abs(greens_representation(PARAMS, DISK, f, 256, 32, probes) - f(probes)))
    elapsed = time.perf_counter() - t0
    probes = probe_points(DISK, 16, 0.02)
    doubled = greens_representation(PARAMS, DISK, f, 128, 24, probes) + volume_potential(
        PARAMS, DISK, f.m_laplacian, probes, 24
    )
    detuned = np.max(np.abs(doubled - f(probes)))
    _report(
        "identity",
        f"max probe error {err:.3e} in {elapsed:.1f}s; "
        f"doubled kernel constant gives {detuned:.3e}",
    )
    assert err < 1e-6
    assert elapsed < 30.0
    assert detuned > 1e-2


def test_criterion_02_dirichlet_reproduces_polyharmonic_data():
    grid = BoundaryGrid.build(DISK, 256)
    rng = np.random.default_rng(42)
    pts = interior_points(DISK, 100, rng, margin=0.05)
    worst = {}
    for name in ("poly1", "harmonic3", "biharm"):
        f = named_target(name, 2)
        sol = solve_dirichlet(PARAMS, grid, f)
        fv = f(pts)
        worst[name] = float(np.max(np.abs(sol.evaluate(pts) - fv)) / np.max(np.abs(fv)))
    hom = solve_dirichlet(PARAMS, grid, np.zeros((2, grid.n)))
    hom_err = float(np.max(np.abs(hom.evaluate(pts))))
    _report(
        "dirichlet",
        " ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + f" homogeneous={hom_err:.2e}",
    )
    assert all(v < 1e-6 for v in worst.values())
    assert hom_err < 1e-8


def test_criterion_03_jump_relations_all_orders():
    # top-order traces of each layer potential jump by (-1)^(j+1) g; lower
    # orders are continuous, so (j, k = 3 - j) sweeps every jump pair
    errs = {}
    for n in (128, 256):
        grid = BoundaryGrid.build(DISK, n)
        g = np.cos(grid.t)
        errs[n] = [jump_error(PARAMS, j, g, grid) for j in range(4)]
    _report(
        "jumps",
        "n=256: " + " ".join(f"j{j}={e:.2e}" for j, e in enumerate(errs[256])),
    )
    assert all(e < 1e-3 for e in errs[256])
    for j in range(4):
        assert errs[256][j] < errs[128][j], f"no refinement gain for slot {j}"


def test_criterion_04_multilayer_representation_of_smooth_targets(monkeypatch):
    monkeypatch.setattr(scheme, "_EXTENSION_LEVEL_FLOOR", 32)
    rng = np.random.default_rng(7)
    pts = interior_points(DISK, 60, rng, margin=0.05)
    grids = scheme_grids(DISK, 0.1, n_solver=256)
    worst, fields = {}, {}
    for name in ("expx", "gauss", "wave"):
        f = named_target(name, 2)
        fields[name] = ExtensionField(PARAMS, grids, f)
        worst[name] = float(np.max(np.abs(fields[name].evaluate(pts) - f(pts))))
    ann = annihilation_check(fields["expx"])
    _report(
        "multilayer",
        " ".join(f"{k}={v:.2e}" for k, v in worst.items()) + f" moments={ann:.2e}",
    )
    assert all(v < 1e-5 for v in worst.values())
    assert ann < 1e-6


def test_criterion_05_convergence_rates_without_oversampling(rate_reports):
    plain, plain_secs, _ = rate_reports
    assert all(r.ok for r in plain.rungs)
    rates = plain.rates
    _report(
        "rates-plain",
        f"linf={rates['inf']:.2f} l2={rates['2']:.2f} l1={rates['1']:.2f} "
        f"({plain_secs:.0f}s)",
    )
    assert plain_secs < 600.0
    assert 1.6 <= rates["inf"] <= 2.6
    assert 2.1 <= rates["2"] <= 3.1
    assert 2.6 <= rates["1"] <= 3.6


def test_criterion_06_boundary_oversampling_restores_full_rate(rate_reports):
    plain, _, over = rate_reports
    assert all(r.ok for r in over.rungs)
    rate = over.rates["inf"]
    ratios = [
        p.errors["inf"] / o.errors["inf"]
        for p, o in zip(plain.rungs, over.rungs)
    ]
    _report(
        "rates-oversampled",
        f"linf rate={rate:.2f}; rung-for-rung gain over plain: "
        + " ".join(f"{r:.0f}x" for r in ratios),
    )
    assert 3.4 <= rate <= 4.6
    assert all(r > 3.0 for r in ratios)


def test_criterion_07_error_kernel_decay_exponents():
    # operator norms of the kernel-replacement errors, fitted against the
    # measured fill: interior ~ h^(2m), boundary order j ~ h^(2m - j - 1).
    # These exponents hold only on rungs whose boundary reproduction balls
    # are local (boundary_support_is_local); a rung whose balls span the
    # disk is still computed and reported, but marked pre-asymptotic and
    # left out of the fit.
    M = 2 * PARAMS.m
    fills, interior, e0, e1, local = [], [], [], [], []
    for h in LADDER:
        cs = generate_centers(DISK, h, seed=0)
        out = error_kernel_norms(PARAMS, DISK, cs, M=M)
        fills.append(cs.fill)
        interior.append(out["interior"])
        e0.append(out["boundary"][0])
        e1.append(out["boundary"][1])
        local.append(boundary_support_is_local(DISK, h, M))

    flagged = [h for h, ok in zip(LADDER, local) if not ok]
    assert flagged == [0.2]
    assert sum(local) >= 3

    def slope(vals):
        x = np.log(np.asarray(fills)[local])
        y = np.log(np.asarray(vals)[local])
        return float(np.polyfit(x, y, 1)[0])

    s_int, s0, s1 = slope(interior), slope(e0), slope(e1)
    pre = "; ".join(
        f"h={h:g}: {a:.2e} {b:.2e} {c:.2e}"
        for h, a, b, c, ok in zip(LADDER, interior, e0, e1, local)
        if not ok
    )
    _report(
        "error-kernels",
        f"interior h^{s_int:.2f} (target 4), "
        f"boundary0 h^{s0:.2f} (target 3), boundary1 h^{s1:.2f} (target 2); "
        f"pre-asymptotic, not fitted: {pre}",
    )
    assert abs(s_int - 4.0) <= 0.4
    assert abs(s0 - 3.0) <= 0.4
    assert abs(s1 - 2.0) <= 0.4


def test_criterion_08_local_reproduction_quality():
    cs = generate_centers(DISK, 0.05, seed=0)
    rng = np.random.default_rng(3)
    anchors = interior_points(DISK, 200, rng, margin=0.02)
    basis = PolyBasis.up_to_degree(4)
    V = basis.eval(cs.points)
    nominal = 0.25 * 16 * 0.05
    A, stab, radii = interior_reproduction_matrix(anchors, cs.points, 0.05, 4)
    worst_exact = float(np.max(np.abs(A @ V - basis.eval(anchors))))
    worst_radius = float(np.max(radii))
    worst_stab = float(np.max(stab))
    _report(
        "reproduction",
        f"exactness {worst_exact:.2e}, radius <= {worst_radius:.3f} "
        f"(nominal {nominal:.3f}), coefficient mass <= {worst_stab:.1f}",
    )
    assert worst_exact < 1e-10
    assert worst_radius <= nominal * 1.25**2 + 1e-12
    assert worst_stab <= 25.0


def test_criterion_09_principal_symbols_invertible():
    dets = {m: float(np.linalg.det(principal_symbol_matrix(m))) for m in range(1, 7)}
    sigma2 = principal_symbol_matrix(2)
    _report(
        "symbols",
        "det sigma(m): " + " ".join(f"{m}:{d:.3g}" for m, d in dets.items()),
    )
    assert all(abs(d) > 1e-12 for d in dets.values())
    assert set(np.round(sigma2.ravel(), 12)) == {0.25, 1.0, 0.0}
    assert dets[2] == pytest.approx(0.25, rel=1e-12)


def test_criterion_10_extension_decay_and_continuity(expx_extension):
    ext = expx_extension
    radii = np.geomspace(10.0, 100.0, 8)
    slopes = []
    for angle in (0.4, 2.1, 4.4):
        ray = radii[:, None] * np.array([np.cos(angle), np.sin(angle)])
        vals = np.abs(ext.convolution_part(ray))
        slopes.append(float(np.polyfit(np.log(radii), np.log(vals), 1)[0]))
    cont = extension_continuity(ext)
    _report(
        "extension",
        "decay slopes " + " ".join(f"{s:+.2f}" for s in slopes)
        + f" (target 0 = m - d), continuity {cont:.2e}",
    )
    # the convolution part must neither grow nor die polynomially: exponent
    # m - d = 0 up to logarithmic wobble
    assert all(abs(s) <= 0.5 for s in slopes)
    assert cont < 1e-4
