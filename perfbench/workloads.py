"""The benchmark's workloads: inputs made from a seed, one pass each.

A pass is everything one fresh process does for a workload: set-up, then a
short sequence of operations (a ladder rung, or one step of the
extension-field run).  ``run_pass`` returns the timings, the checked
outputs and the failure count; it never raises for a failed operation.

Sizes are cut down from the shipped experiment configs so that a pass
takes seconds, not minutes; README.md gives the rationale for each.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext

import numpy as np

M = 2  # spline order used by every workload

LADDERS = {
    "ladder-plain": dict(
        curve="disk", target="wave", h_ladder=(0.2, 0.12, 0.08), oversample=None,
        probe_grid=256, quad_level=24, n_solver=80,
    ),
}
#: the tiny ladder of the smoke test
TINY_LADDER = dict(
    curve="disk", target="wave", h_ladder=(0.3, 0.25, 0.2), oversample=None,
    probe_grid=64, quad_level=16, n_solver=64,
)

FIELD = dict(
    target="gauss", h=0.1, n_solver=128, n_interior=500, n_near=100, n_far=100, h_kernels=0.07,
)

WORKLOADS = ("ladder-plain", "field")

#: correctness tolerances
FIELD_INTERIOR_TOL = 1e-5
FIELD_CONTINUITY_TOL = 1e-4


def sig4(x: float) -> str:
    """A value to the four significant digits ``converge`` prints."""
    return f"{x:.3e}"


class Pass:
    """Timings, outputs and failures of one pass.

    ``failures`` maps an operation's label to what went wrong with it; an
    operation counts as failed once, however many of its checks failed."""

    def __init__(self, t_start, tracer=None):
        self.tracer = tracer
        self.t_start = t_start
        self.setup_s = math.nan
        self.ops = []  # (label, seconds)
        self.outputs = {}  # label -> values checked against the reference
        self.failures = {}  # label -> [messages]
        self.attempted = 0

    def span(self, name):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def fail(self, label, message):
        self.failures.setdefault(label, []).append(message)

    def op(self, label, fn):
        """Run one operation; a raise or a failed check counts as failed."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op += 1
        t0 = time.perf_counter()
        try:
            with self.span("op." + label.split(":")[0]):
                problems = fn()
        except Exception as exc:  # noqa: BLE001 - counted, reported, pass goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        self.ops.append((label, time.perf_counter() - t0))
        for msg in problems:
            self.fail(label, msg)

    def check_reference(self, expected):
        """Compare outputs with values recorded at four significant digits."""
        for label, want in expected.items():
            got = [sig4(v) for v in self.outputs.get(label, [])]
            if got != want:
                self.fail(label, f"outputs {got} differ from the reference {want}")


# ---------------------------------------------------------------------------
# ladders
# ---------------------------------------------------------------------------


def ladder_config(name, seed, tiny=False):
    from surfspline.harness import ExperimentConfig

    spec = TINY_LADDER if tiny else LADDERS[name]
    return ExperimentConfig(m=M, norms=("1", "2", "inf"), seed=seed, output="perfbench", **spec)


def _ladder(p: Pass, name, seed, tiny):
    from surfspline import harness

    cfg = ladder_config(name, seed, tiny)
    t0 = time.perf_counter()
    with p.span("harness.converge"):
        report = harness.converge(cfg)
    total = time.perf_counter() - t0
    # converge's own set-up is whatever it spends outside its rungs
    p.setup_s = (t0 - p.t_start) + total - sum(r.runtime for r in report.rungs)
    prev = None
    for r in report.rungs:
        label = f"rung:{r.h:g}"
        p.attempted += 1
        p.ops.append((label, r.runtime))
        if not r.ok:
            p.fail(label, r.failure)
            continue
        errs = [r.errors[q] for q in cfg.norms]
        p.outputs[label] = errs
        if not all(np.isfinite(errs)):
            p.fail(label, f"non-finite errors {errs}")
        elif prev is not None and not all(b < a for a, b in zip(prev, errs)):
            p.fail(label, f"errors {errs} do not decrease from {prev}")
        prev = errs


# ---------------------------------------------------------------------------
# the extension field and the error kernels
# ---------------------------------------------------------------------------


def _field_points(curve, seed, spec):
    rng = np.random.default_rng([seed, 4])
    n = spec["n_interior"]
    box = rng.uniform(-1.0, 1.0, size=(4 * n, 2))
    rr = np.hypot(box[:, 0], box[:, 1])
    inside = box[rr < curve.polar_radius(np.arctan2(box[:, 1], box[:, 0])) - 0.05][:n]
    t = rng.uniform(0.0, 2 * np.pi, spec["n_near"])
    near = curve.point(t) + rng.uniform(0.01, 0.1, t.size)[:, None] * curve.normal(t)
    psi = rng.uniform(0.0, 2 * np.pi, spec["n_far"])
    far = rng.uniform(1.5, 3.0, psi.size)[:, None] * np.stack([np.cos(psi), np.sin(psi)], -1)
    return inside, near, far


def _field(p: Pass, seed):
    from surfspline import geometry, scheme, targets
    from surfspline.kernel import SplineParams

    spec = FIELD
    with p.span("setup"):
        curve = geometry.curve_from_spec("disk")
        params = SplineParams(m=M, d=2)
        f = targets.named_target(spec["target"], M)
        grids = scheme.scheme_grids(curve, spec["h"], n_solver=spec["n_solver"])
        inside, near, far = _field_points(curve, seed, spec)
        f_inside = f(inside)
    p.setup_s = time.perf_counter() - p.t_start

    state = {}

    def build():
        state["ext"] = scheme.ExtensionField(params, grids, f)
        return []

    def interior():
        err = float(np.max(np.abs(state["ext"].evaluate(inside) - f_inside)))
        p.outputs["interior"] = [err]
        return [] if err < FIELD_INTERIOR_TOL else [
            f"interior error {err:.3e} >= {FIELD_INTERIOR_TOL:g}"
        ]

    def exterior(label, pts):
        def run():
            vals = state["ext"].evaluate(pts)
            p.outputs[label] = [float(np.max(np.abs(vals)))]
            return [] if np.all(np.isfinite(vals)) else ["non-finite field values"]

        return run

    def continuity():
        gap = scheme.extension_continuity(state["ext"])
        p.outputs["continuity"] = [gap]
        return [] if gap < FIELD_CONTINUITY_TOL else [
            f"continuity gap {gap:.3e} >= {FIELD_CONTINUITY_TOL:g}"
        ]

    def kernels():
        cs = geometry.generate_centers(curve, spec["h_kernels"], seed=seed)
        out = scheme.error_kernel_norms(params, curve, cs)
        vals = [out["interior"]] + [out["boundary"][j] for j in sorted(out["boundary"])]
        p.outputs["error-kernels"] = vals
        return [] if all(np.isfinite(vals)) else [f"non-finite norms {vals}"]

    p.op("build", build)
    if "ext" not in state:
        return
    p.op("interior", interior)
    p.op("near", exterior("near", near))
    p.op("far", exterior("far", far))
    p.op("continuity", continuity)
    p.op("error-kernels", kernels)


def run_pass(workload, seed, t_start, *, tracer=None, tiny=False):
    """One pass of a workload in this process, after ``surfspline`` has
    been imported; ``t_start`` is when the process began its set-up."""
    p = Pass(t_start, tracer)
    if workload in LADDERS:
        _ladder(p, workload, seed, tiny)
    elif workload == "field":
        _field(p, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return p
