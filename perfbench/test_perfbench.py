"""Smoke test of the benchmark itself, on a tiny plain ladder.

    python3 -m pytest -q perfbench/test_perfbench.py

Checks that a run prints exactly the metrics BENCHMARK.json names, with
their units, that the tiny ladder passes its own checks, and that a traced
pass puts every wrapped function back.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import layers, run  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "ladder-plain", "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in SPEC["workloads"]} == set(run.workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == layers.PER_LAYER


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_with_its_unit(trace, section):
    out = _run(trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert {n: v["unit"] for n, v in out["metrics"].items()} \
        == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(math.isfinite(v["value"]) for v in out["metrics"].values())
    if trace == 0:
        assert out["attempted"] % 3 == 0 and out["attempted"] >= 3  # 3 rungs a pass
        assert all(v["value"] > 0 for v in out["metrics"].values())
    else:
        # untraced and traced pass: 3 rungs each, plus the guard on each traced rung
        assert out["attempted"] == 9
        # one rung builds one interior and m boundary matrices
        assert out["metrics"]["lpr.interior_reproduction_matrix.calls"]["value"] == 3
        assert out["metrics"]["lpr.boundary_reproduction_matrix.calls"]["value"] == 6
        assert out["metrics"]["dirichlet.compute_Nj.calls"]["value"] == 3


def _surfspline_attributes():
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "surfspline" or name.startswith("surfspline.")
        for attr, value in list(vars(mod).items())
    }


def test_wrappers_are_installed_everywhere_and_restored():
    import surfspline
    from surfspline import dirichlet, geometry, lpr, scheme

    before = _surfspline_attributes()
    methods = (geometry.DomainCurve.ray_exit, scheme.ExtensionField.evaluate)
    tracer = Tracer()
    layers.install(tracer)
    try:
        # the defining module and every module that imported the name
        for holder in (lpr, scheme, surfspline):
            assert holder.interior_reproduction_matrix.__wrapped__ is \
                before[("surfspline.lpr", "interior_reproduction_matrix")]
        assert dirichlet.one_sided_trace is not before[("surfspline.layerpot", "one_sided_trace")]
        assert geometry.DomainCurve.ray_exit is not methods[0]
    finally:
        tracer.restore()
    after = _surfspline_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert (geometry.DomainCurve.ray_exit, scheme.ExtensionField.evaluate) == methods


def test_self_time_is_span_minus_children():
    tracer = Tracer()
    tracer.spans = [
        ["outer", 0.0, 10.0, -1, 0],
        ["inner", 1.0, 4.0, 0, 0],
        ["inner", 5.0, 6.0, 0, 1],
        ["leaf", 2.0, 3.0, 1, 0],
    ]
    tot = tracer.totals()
    assert tot["outer"] == [10.0, 6.0, 1]
    assert tot["inner"] == [4.0, 3.0, 2]
    assert tot["leaf"] == [1.0, 1.0, 1]
    assert tracer.top_level_seconds() == 10.0
