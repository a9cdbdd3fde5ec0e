"""Experiment configuration, convergence driver, identity and budget checks."""

import math
from dataclasses import replace

import numpy as np
import pytest

from surfspline.harness import (
    ErrorReport,
    ExperimentConfig,
    converge,
    oversampling_budget,
)
from surfspline.kernel import SplineParams
from surfspline.scheme import greens_representation, probe_points, volume_potential
from surfspline.targets import named_target

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_defaults_valid():
    cfg = ExperimentConfig()
    assert cfg.curve == "disk"
    assert cfg.h_ladder == (0.2, 0.1, 0.05, 0.025)
    assert cfg.resolved_nu() is None


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(h_ladder=(0.2, 0.1))  # too few rungs
    with pytest.raises(ValueError):
        ExperimentConfig(h_ladder=(0.1, 0.2, 0.05))  # not decreasing
    with pytest.raises(ValueError):
        ExperimentConfig(norms=("3",))
    with pytest.raises(ValueError):
        ExperimentConfig(h_ladder=(0.2, 0.1, -0.05))
    # values that fail before the first rung, or on every rung
    for field, value, message in [
        ("m", 1, "m >= 2"),
        ("n_solver", 63, "even and >= 4"),
        ("n_solver", 2, "even and >= 4"),
        ("quad_level", 1, "at least 2"),
        ("oversample", 0.5, "must be >= 1"),
    ]:
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{field: value})


def test_config_rejects_unknown_targets_and_curves(tmp_path):
    # rejected when the config is built, before any rung runs
    with pytest.raises(ValueError, match="unknown target 'nosuch'; known targets: biharm"):
        ExperimentConfig(target="nosuch", h_ladder=(0.3, 0.25, 0.2))
    for spec in ("square:1", "ellipse:2", "circle:1,2", "star:x"):
        with pytest.raises(ValueError, match="bad curve spec"):
            ExperimentConfig(curve=spec)
    path = tmp_path / "typo.cfg"
    path.write_text("[experiment]\ntarget = gaus\nh_ladder = 0.3 0.25 0.2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown target 'gaus'"):
        ExperimentConfig.from_file(path)


@pytest.mark.parametrize(
    "text, message",
    [("", "no \\[experiment\\] section"), ("m = 2\n", "no section headers")],
)
def test_config_file_errors_name_the_file(tmp_path, text, message):
    path = tmp_path / "broken.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=message) as exc:
        ExperimentConfig.from_file(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_converge_rejects_a_probe_grid_without_interior_points(monkeypatch):
    # raised during set-up, before the first rung generates its centers
    from surfspline import harness

    def no_rung(*args, **kwargs):
        raise AssertionError("a rung ran")

    monkeypatch.setattr(harness, "generate_centers", no_rung)
    cfg = ExperimentConfig(target="wave", h_ladder=(0.3, 0.25, 0.2), probe_grid=1)
    with pytest.raises(ValueError, match="probe_grid = 1 holds no point inside"):
        converge(cfg)


def test_config_from_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "[experiment]\n"
        "curve = ellipse:2,1\n"
        "m = 2\n"
        "target = gauss   ; inline comment\n"
        "h_ladder = 0.2 0.1 0.05\n"
        "norms = 2 inf\n"
        "oversample = critical\n"
        "seed = 5\n"
        "output = out/run\n"
        "probe_grid = 128\n"
        "n_solver = 128\n"
        "quad_level = 32\n",
        encoding="utf-8",
    )
    cfg = ExperimentConfig.from_file(path)
    assert cfg.curve == "ellipse:2,1"
    assert cfg.target == "gauss"
    assert cfg.h_ladder == (0.2, 0.1, 0.05)
    assert cfg.norms == ("2", "inf")
    assert cfg.oversample == "critical"
    assert cfg.seed == 5
    # critical oversampling resolves to the sup-norm budget exponent
    assert cfg.resolved_nu() == pytest.approx(2.0)


def test_config_from_file_plain_numbers(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "[experiment]\noversample = 1.5\nh_ladder = 0.4 0.3 0.2\n",
        encoding="utf-8",
    )
    cfg = ExperimentConfig.from_file(path)
    assert cfg.resolved_nu() == pytest.approx(1.5)
    path2 = tmp_path / "none.cfg"
    path2.write_text("[experiment]\noversample = none\n", encoding="utf-8")
    assert ExperimentConfig.from_file(path2).resolved_nu() is None


# ---------------------------------------------------------------------------
# oversampling budget
# ---------------------------------------------------------------------------


def test_budget_sup_norm():
    assert oversampling_budget(2, math.inf) == pytest.approx(2.0)


def test_budget_finite_p():
    # 2mp/(mp+1) at m = 2: 8/5 for p = 2 and 4/3 for p = 1
    assert oversampling_budget(2, 2.0) == pytest.approx(8.0 / 5.0)
    assert oversampling_budget(2, 1.0) == pytest.approx(4.0 / 3.0)


def test_budget_rejects_bad_p():
    with pytest.raises(ValueError):
        oversampling_budget(2, 0.5)


# ---------------------------------------------------------------------------
# convergence driver
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_report():
    cfg = ExperimentConfig(
        curve="disk",
        target="gauss",
        h_ladder=(0.25, 0.2, 0.15),
        probe_grid=64,
        n_solver=128,
        quad_level=24,
    )
    return cfg, converge(cfg)


def test_converge_produces_clean_rungs(small_report):
    cfg, report = small_report
    assert len(report.rungs) == 3
    for rung, h in zip(report.rungs, cfg.h_ladder):
        assert rung.ok
        assert rung.h == h
        assert h <= rung.fill <= 2 * h
        assert rung.n_centers > 0
        assert rung.runtime > 0
        assert set(rung.errors) == set(cfg.norms)
    # rough norm ordering expected for a smooth target on a unit-size domain
    for rung in report.rungs:
        assert rung.errors["1"] <= rung.errors["2"] * 3
        assert rung.errors["2"] <= rung.errors["inf"] * 3


def test_converge_fits_rates(small_report):
    _, report = small_report
    assert set(report.rates) == {"1", "2", "inf"}
    for p, rate in report.rates.items():
        assert 1.0 < rate < 5.0, f"implausible rate {rate} for l{p}"


def test_report_tables_deterministic(small_report, tmp_path):
    cfg, report = small_report
    again = converge(cfg)
    assert report.rung_table() == again.rung_table()
    assert report.rates_table() == again.rates_table()
    # runtime varies run to run, so it must stay out of the CSV
    assert "runtime" not in report.rung_table()


def test_report_write_files(small_report, tmp_path):
    cfg, report = small_report
    stem = tmp_path / "sub" / "experiment"
    moved = ErrorReport(replace(cfg, output=str(stem)), report.rungs, report.rates)
    main, rates_path = moved.write()
    assert main == tmp_path / "sub" / "experiment.csv"
    table = main.read_bytes()
    rates = rates_path.read_bytes()
    assert b"\r" not in table and b"\r" not in rates
    header = table.split(b"\n", 1)[0].decode()
    assert header == "h,fill,n_centers,n_boundary_nodes,err_l1,err_l2,err_linf,status"
    assert rates.decode().startswith("norm,fitted_rate\n")


def test_converge_partial_report_on_failing_rungs():
    # the coarse rungs violate the reach guard for nu = 2 on this ellipse;
    # they must be annotated and skipped, not abort the ladder
    cfg = ExperimentConfig(
        curve="ellipse:1.5,1",
        target="gauss",
        h_ladder=(0.6, 0.3, 0.2),
        oversample=2.0,
        probe_grid=48,
        n_solver=128,
        quad_level=24,
        norms=("inf",),
    )
    report = converge(cfg)
    assert not report.rungs[0].ok
    assert "ReachViolationError" in report.rungs[0].failure
    assert report.rungs[2].ok
    assert any("fewer than 3 clean rungs" in w for w in report.warnings)
    table = report.rung_table()
    lines = table.strip().splitlines()
    assert len(lines) == 4
    assert "ReachViolationError" in lines[1]
    assert "," not in lines[1].split("ReachViolationError")[1]  # CSV-safe annotation


@pytest.mark.parametrize("norms", [("inf",), ("2",)])
def test_converge_builds_trace_maps_once_and_evaluates_what_its_norms_need(
    monkeypatch, norms
):
    # one trace-map build per ladder, one compute_Nj per rung, and the
    # approximant evaluated on the probes only for inf and on the quadrature
    # only for 1 and 2
    from surfspline import harness, layerpot, scheme
    from surfspline.geometry import circle

    calls = {"maps": 0, "compute_Nj": 0}
    evaluated = []

    class CountingMaps(layerpot.TraceMaps):
        def __init__(self, *args, **kwargs):
            calls["maps"] += 1
            super().__init__(*args, **kwargs)

    def counting_compute_Nj(*args, real=scheme.compute_Nj):
        calls["compute_Nj"] += 1
        return real(*args)

    def counting_eval(apx, points, real=harness.eval_approximant):
        evaluated.append(len(points))
        return real(apx, points)

    monkeypatch.setattr(harness, "TraceMaps", CountingMaps)
    monkeypatch.setattr(scheme, "compute_Nj", counting_compute_Nj)
    monkeypatch.setattr(harness, "eval_approximant", counting_eval)
    cfg = ExperimentConfig(
        curve="disk", target="wave", h_ladder=(0.3, 0.25, 0.2), norms=norms,
        probe_grid=64, quad_level=16, n_solver=64,
    )
    report = converge(cfg)
    assert all(r.ok and set(r.errors) == set(norms) for r in report.rungs)
    assert calls == {"maps": 1, "compute_Nj": 3}
    n_probes = len(harness.probe_points(circle(1.0), 64, 0.0))
    n_quad = len(harness.interior_quadrature(circle(1.0), 16))
    assert n_probes != n_quad
    assert evaluated == [n_probes if norms == ("inf",) else n_quad] * 3


# ---------------------------------------------------------------------------
# representation identity check
# ---------------------------------------------------------------------------


def _expx_reconstruction_error(disk, doubled_constant=False):
    # exp(x) from its bilaplacian and boundary traces on a 16 x 16 probe grid
    params, f = SplineParams(m=2, d=2), named_target("expx", 2)
    probes = probe_points(disk, 16, 0.02)
    vals = greens_representation(params, disk, f, 128, 24, probes)
    if doubled_constant:
        vals = vals + volume_potential(params, disk, f.m_laplacian, probes, 24)
    return np.max(np.abs(vals - f(probes)))


def test_greens_identity_small(disk):
    assert _expx_reconstruction_error(disk) < 1e-8


def test_greens_identity_detects_wrong_constant(disk):
    # doubling the kernel constant of the volume term breaks the identity at O(1)
    assert _expx_reconstruction_error(disk, doubled_constant=True) > 1e-2
