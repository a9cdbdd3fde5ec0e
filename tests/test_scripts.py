"""The command-line scripts run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_script(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["check_identities.py", "--n", "64", "--level", "16"],
        ["extension_decay.py", "--h", "0.2", "--rays", "1", "--samples", "4"],
    ],
)
def test_script_exits_cleanly(argv):
    proc = _run_script(argv)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("script", ["check_identities.py", "extension_decay.py"])
def test_script_rejects_an_unknown_target(script):
    proc = _run_script([script, "--target", "gaus"])
    assert proc.returncode == 2
    assert "invalid choice: 'gaus'" in proc.stderr and "Traceback" not in proc.stderr


def test_run_convergence_writes_both_csvs(tmp_path):
    stem = tmp_path / "out" / "tiny"
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "[experiment]\n"
        "curve = disk\n"
        "target = wave\n"
        "h_ladder = 0.3 0.25 0.2\n"
        "probe_grid = 64\n"
        "quad_level = 16\n"
        "n_solver = 64\n"
        f"output = {stem}\n",
        encoding="utf-8",
    )
    proc = _run_script(["run_convergence.py", str(cfg)])
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "tiny.csv").is_file()
    assert (tmp_path / "out" / "tiny_rates.csv").is_file()


@pytest.mark.parametrize("line", ["target = gaus", "probe_grid = 1"])
def test_run_convergence_config_errors_exit_2_without_output(tmp_path, line):
    stem = tmp_path / "out" / "tiny"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        f"[experiment]\nh_ladder = 0.3 0.25 0.2\n{line}\noutput = {stem}\n",
        encoding="utf-8",
    )
    proc = _run_script(["run_convergence.py", str(cfg)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()
