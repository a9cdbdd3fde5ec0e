"""surfspline benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload ladder-plain --seed 3 --seconds 20 --trace 0

Run from the repository root (or anywhere: paths are resolved from this
file).  A single closed-loop caller starts one fresh process per pass and
waits for it before starting the next, with the BLAS thread count set in
the child's environment.

``--trace 0`` runs whole passes until the pass boundary nearest
``--seconds`` and reports the end-to-end metrics as medians over the
passes.  ``--trace 1`` runs one untraced and one traced pass and reports
the per-layer metrics; the spans go to ``perfbench/out/``.

Every pass checks its outputs (see README.md).  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it name the environment and any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import layers, workloads  # noqa: E402

#: name -> (unit, better, bound)
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "op_first_s": ("s", "lower", 0.25),
    "op_last_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}
RUN_LIMIT = 170.0  # seconds; a run must end within 180, child processes included
#: BLAS threads of every pass.  The package is otherwise single-threaded,
#: and on a small shared host a second BLAS thread makes passes slower and
#: their times noisier, so every pass is the serial baseline.
BLAS_THREADS = 1


class PassFailed(RuntimeError):
    pass


def child(args, trace=0, dump=None):
    """Run one pass in a fresh process; returns its result and wall time."""
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace)]
    if args.tiny:
        cmd.append("--tiny")
    if dump:
        cmd += ["--dump", str(dump)]
    n = str(BLAS_THREADS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n, MKL_NUM_THREADS=n)
    env.pop("PYTHONPATH", None)
    t0 = time.perf_counter()
    deadline = getattr(args, "deadline", None)
    timeout = None if deadline is None else deadline - t0
    if timeout is not None and timeout <= 0:
        raise PassFailed("no time left for another pass")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise PassFailed(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def warm_up():
    """Import the package once, untimed, so that the first timed pass pays
    neither for compiling bytecode nor for reading the sources cold."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", "import surfspline"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise PassFailed(f"importing surfspline failed:\n{proc.stderr[-2000:]}")


def tally(passes):
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(len(r["failures"]) for r in passes)
    for r in passes:
        for label, msgs in r["failures"].items():
            for msg in msgs:
                print(f"FAILED {label}: {msg}")
    return attempted, failed


def untraced(args):
    """Whole passes until the pass boundary nearest ``--seconds``."""
    t0 = time.perf_counter()
    passes = [child(args)]
    while True:
        elapsed = time.perf_counter() - t0
        step = statistics.median(r["wall_s"] for r in passes)
        if elapsed + step / 2 > args.seconds or time.perf_counter() + step > args.deadline:
            break
        passes.append(child(args))
    med = statistics.median
    values = {
        "wall_s": med(r["wall_s"] for r in passes),
        "setup_s": med(r["setup_s"] for r in passes),
        "op_first_s": med(r["ops"][0][1] for r in passes),
        "op_last_s": med(r["op_last_s"] for r in passes),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in passes),
    }
    return passes, values


def traced(args):
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    plain = child(args)
    tr = child(args, trace=1, dump=out_dir / f"{stem}-spans.json")
    values = dict(tr["layers"])
    values.update({
        "trace.overhead_frac": tr["wall_s"] / plain["wall_s"] - 1.0,
        "trace.untraced_wall_s": plain["wall_s"],
        "trace.traced_wall_s": tr["wall_s"],
        "trace.span_sum_s": tr["span_sum_s"],
    })
    return [plain, tr], values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke test: a tiny plain ladder in place of a ladder workload")
    args = ap.parse_args(argv)
    args.deadline = time.perf_counter() + RUN_LIMIT

    if not (ROOT / "src" / "surfspline" / "__init__.py").is_file():
        print(f"error: no surfspline sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        warm_up()
        passes, values = (traced if args.trace else untraced)(args)
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("env " + json.dumps(passes[0]["env"]))
    for r in passes:
        ops = " ".join(f"{label}={sec:.3f}" for label, sec in r["ops"])
        print(f"pass wall={r['wall_s']:.3f} setup={r['setup_s']:.3f} {ops}")
    attempted, failed = tally(passes)
    units = {n: u for n, (u, _) in layers.PER_LAYER.items()} if args.trace else {
        n: u for n, (u, _, _) in END_TO_END.items()
    }
    metrics = {n: {"value": float(values[n]), "unit": u} for n, u in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
