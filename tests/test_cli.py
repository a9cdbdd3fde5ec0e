"""End-to-end command-line interface checks."""

from pathlib import Path

import numpy as np
import pytest

from surfspline.cli import main
from surfspline.harness import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent


def test_check_symbols_exit_codes(capsys):
    assert main(["check-symbols", "--m", "2"]) == 0
    out = capsys.readouterr().out
    assert "determinant: 0.25" in out
    assert main(["check-symbols", "--m", "5"]) == 0


def test_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_subcommand():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-dirichlet", "--data", "nosuch"],
        ["approximate", "--target", "nosuch"],
        ["extend", "--target", "nosuch", "--points", "0,0"],
        ["extend", "--target", "gaus", "--ray", "0.5,2,8,4"],
    ],
)
def test_unknown_target_names_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"invalid choice: '{argv[2]}'" in err and "harmonic3" in err and "wave" in err


def test_solve_dirichlet_writes_csv(tmp_path, capsys):
    out = tmp_path / "sol.csv"
    rc = main(
        [
            "solve-dirichlet",
            "--curve", "ellipse:2,1",
            "--m", "2",
            "--n", "128",
            "--data", "harmonic3",
            "--probe-grid", "16",
            "--output", str(out),
        ]
    )
    assert rc == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "x,y,u,data_fn,abs_diff"
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape[1] == 5
    # harmonic data is polyharmonic: the solver reproduces it to near roundoff
    assert np.max(data[:, 4]) < 1e-8


def test_approximate_with_centers_and_report(tmp_path, capsys):
    out = tmp_path / "apx.csv"
    cpath = tmp_path / "centers.csv"
    rc = main(
        [
            "approximate",
            "--curve", "disk",
            "--h", "0.2",
            "--target", "wave",
            "--output", str(out),
            "--centers", str(cpath),
            "--probe-grid", "24",
        ]
    )
    assert rc == 0
    txt = capsys.readouterr().out
    assert "max probe error" in txt
    assert cpath.read_text(encoding="utf-8").startswith("x,y\n")
    kinds = [line.split(",")[0] for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert kinds.count("center") > 20
    assert kinds.count("poly") == 3


def test_approximate_oversampled_adds_boundary_centers(tmp_path, capsys):
    # --oversample appends boundary layers to the same seeded lattice, so the
    # oversampled center set is a strict superset in row count
    rows = {}
    for extra in ([], ["--oversample", "2"]):
        cpath = tmp_path / f"centers{len(extra)}.csv"
        rc = main(
            [
                "approximate",
                "--h", "0.2",
                "--n", "64",
                "--probe-grid", "32",
                "--output", str(tmp_path / f"apx{len(extra)}.csv"),
                "--centers", str(cpath),
                *extra,
            ]
        )
        assert rc == 0
        assert "max probe error" in capsys.readouterr().out
        rows[bool(extra)] = len(cpath.read_text(encoding="utf-8").splitlines())
    assert rows[True] > rows[False]


def test_extend_stdout_points_mode(capsys):
    rc = main(
        [
            "extend",
            "--target", "cubicmix",
            "--h", "0.2",
            "--n", "128",
            "--points", "0.2,0.3;0.5,-0.1",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,y,value"
    first = [float(v) for v in lines[1].split(",")]
    assert first[2] == pytest.approx(0.2**2 * 0.3, abs=1e-6)


@pytest.mark.parametrize(
    "argv",
    [
        ["approximate", "--h", "0.3", "--oversample", "0.5"],
        ["solve-dirichlet", "--n", "63"],
        ["extend", "--m", "1", "--points", "0,0"],
        ["extend", "--points", "1,2,3"],
    ],
)
def test_bad_arguments_exit_2_without_output(tmp_path, capsys, argv):
    # every subcommand reports an input error the way converge does
    out = tmp_path / "out.csv"
    assert main([*argv, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["approximate", "--h", "0.3", "--probe-grid", "1"],
        ["solve-dirichlet", "--n", "32", "--probe-grid", "1"],
        ["solve-dirichlet", "--n", "32", "--probe-grid", "2"],
    ],
)
def test_empty_probe_grid_exits_2_before_any_csv(tmp_path, capsys, argv):
    # a probe grid with no point inside the domain is refused before the
    # command writes anything
    assert main([*argv, "--output", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: probe_grid = {argv[-1]} holds no point inside the domain")
    assert not list(tmp_path.iterdir())


def test_extend_requires_points_or_ray(capsys):
    assert main(["extend"]) == 2
    assert "provide --points or --ray" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec",
    [["--points", "1,2,3"], ["--points", "0.1,x"], ["--points", "0.1,0.2;"],
     ["--ray", "1,2"], ["--ray", "0,1.5,3,0"], ["--ray", "0,1.5,3,2.5"], ["--ray", "0,1,2,3,4"]],
)
def test_extend_point_specs_name_their_option(spec, capsys):
    # a malformed or empty point spec names its option and form, and exits 2
    # before any output
    assert main(["extend", *spec]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {spec[0]} takes ")
    assert "Traceback" not in captured.err and captured.out == ""


def test_extend_ray_csv(tmp_path):
    out = tmp_path / "ray.csv"
    rc = main(
        [
            "extend",
            "--target", "gauss",
            "--h", "0.2",
            "--n", "128",
            "--ray", "0.5,2,8,4",
            "--output", str(out),
        ]
    )
    assert rc == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    radii = np.hypot(data[:, 0], data[:, 1])
    np.testing.assert_allclose(radii, np.geomspace(2, 8, 4), rtol=1e-12)


def test_converge_from_config(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[experiment]\n"
        "curve = disk\n"
        "target = gauss\n"
        "h_ladder = 0.25 0.2 0.15\n"
        "norms = inf\n"
        "probe_grid = 48\n"
        "n_solver = 128\n"
        "quad_level = 24\n"
        f"output = {tmp_path / 'runout'}\n",
        encoding="utf-8",
    )
    rc = main(["converge", "--config", str(cfg), "--quiet"])
    assert rc == 0
    table = (tmp_path / "runout.csv").read_text(encoding="utf-8")
    assert table.startswith("h,fill,n_centers,n_boundary_nodes,err_linf,status")
    assert (tmp_path / "runout_rates.csv").exists()


@pytest.mark.parametrize(
    "line",
    ["target = gaus", "m = 1", "quad_level = 1", "n_solver = 63",
     "oversample = 0.5", "probe_grid = 1", None, "missing"],
)
def test_converge_config_errors_exit_2_without_output(tmp_path, capsys, line):
    # a bad config is an input error (exit 2), not a failed rung (exit 1)
    cfg = tmp_path / "exp.cfg"
    if line is None:
        cfg.write_text("", encoding="utf-8")
    elif line != "missing":
        cfg.write_text(
            "[experiment]\nh_ladder = 0.3 0.25 0.2\nnorms = 2 inf\n"
            f"{line}\noutput = {tmp_path / 'runout'}\n",
            encoding="utf-8",
        )
    assert main(["converge", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "h=" not in captured.out
    assert not list(tmp_path.glob("runout*"))


def _tiny_config(path, output, seed=0, target="wave", probe_grid=64):
    path.write_text(
        "[experiment]\n"
        "curve = disk\n"
        f"target = {target}\n"
        "h_ladder = 0.3 0.25 0.2\n"
        f"probe_grid = {probe_grid}\n"
        "quad_level = 16\n"
        "n_solver = 64\n"
        f"seed = {seed}\n"
        f"output = {output}\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.mark.parametrize("repeat_option", [False, True], ids=["one-option", "two-options"])
def test_converge_runs_every_config(tmp_path, capsys, repeat_option):
    a = _tiny_config(tmp_path / "a.cfg", tmp_path / "out" / "a")
    b = _tiny_config(tmp_path / "b.cfg", tmp_path / "out" / "b", seed=1)
    configs = ["--config", a, "--config", b] if repeat_option else ["--config", a, b]
    assert main(["converge", *configs]) == 0
    out = capsys.readouterr().out
    assert out.count("fitted linf rate") == 2
    for stem in ("a", "b"):
        assert (tmp_path / "out" / f"{stem}.csv").is_file()
        assert (tmp_path / "out" / f"{stem}_rates.csv").is_file()


def test_converge_reads_every_config_before_the_first_ladder(tmp_path, capsys):
    # a bad second config exits 2 before the first ladder writes anything
    for bad, message in [({"target": "gaus"}, "gaus"), ({"probe_grid": 1}, "probe_grid = 1")]:
        out = tmp_path / next(iter(bad))
        a = _tiny_config(tmp_path / "a.cfg", out / "a")
        b = _tiny_config(tmp_path / "b.cfg", out / "b", **bad)
        assert main(["converge", "--config", a, b]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert "h=" not in captured.out
        assert not out.exists()


def test_converge_exits_1_when_any_ladder_fails_a_rung(tmp_path, capsys, monkeypatch):
    # the second config's centers cannot be built, so its rungs fail; the
    # first ladder is untouched and both reports are still written
    from surfspline import harness

    real = harness.generate_centers

    def no_centers_for_seed_1(curve, h, seed=0):
        if seed == 1:
            raise RuntimeError("no centers")
        return real(curve, h, seed=seed)

    monkeypatch.setattr(harness, "generate_centers", no_centers_for_seed_1)
    a = _tiny_config(tmp_path / "a.cfg", tmp_path / "out" / "a")
    b = _tiny_config(tmp_path / "b.cfg", tmp_path / "out" / "b", seed=1)
    assert main(["converge", "--quiet", "--config", a, b]) == 1
    table_a = (tmp_path / "out" / "a.csv").read_text(encoding="utf-8")
    table_b = (tmp_path / "out" / "b.csv").read_text(encoding="utf-8")
    assert table_a.count(",ok\n") == 3
    assert table_b.count("RuntimeError: no centers") == 3


SHIPPED_CONFIGS = sorted((ROOT / "experiments").glob("*.cfg"))


def test_configs_are_shipped():
    assert SHIPPED_CONFIGS


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_parses_and_writes_under_results(path):
    assert Path(ExperimentConfig.from_file(path).output).parts[0] == "results"
