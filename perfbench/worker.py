"""One benchmark pass in a fresh process; prints its result as one JSON line.

Run from the repository root as ``python3 -m perfbench.worker``; ``run.py``
starts it, one process per pass, so that no cache inside the package
(reproduction matrices, lru caches, sympy state) carries over between
passes.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def cold_cache_guard(p, tracer, workload, m):
    """Each ladder rung builds 1 interior and m boundary matrices."""
    if not workload.startswith("ladder"):
        return
    spans = tracer.spans
    kinds = ("lpr.interior_reproduction_matrix", "lpr.boundary_reproduction_matrix")
    groups = [
        [s for s in spans if s[3] == i]
        for i, s in enumerate(spans) if s[0] == "scheme.assemble_TXi"
    ]
    for group in groups:
        built = [sum(1 for s in group if s[0] == k) for k in kinds]
        p.attempted += 1
        if built != [1, m]:
            p.fail("cold-cache-guard", f"built {built[0]} interior and {built[1]} "
                   f"boundary matrices where 1 and {m} were expected")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dump", help="write the spans of a traced pass to this file")
    ap.add_argument("--tiny", action="store_true", help="the smoke test's tiny ladder")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    tracer = None
    if args.trace:
        from perfbench.tracer import Tracer

        tracer = Tracer()
    with tracer.span("setup.import") if tracer else nullcontext():
        import surfspline
    if Path(surfspline.__file__).resolve().parent != src / "surfspline":
        raise SystemExit(f"surfspline imported from {surfspline.__file__}, not {src}")

    from perfbench import layers, workloads

    if tracer is not None:
        layers.install(tracer)
        if args.workload.startswith("ladder"):
            tracer.op_boundary = "geometry.generate_centers"
    from surfspline.errors import NearBoundaryAccuracyWarning

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NearBoundaryAccuracyWarning)
        p = workloads.run_pass(args.workload, args.seed, T_START, tracer=tracer, tiny=args.tiny)
    near = sum(issubclass(w.category, NearBoundaryAccuracyWarning) for w in caught)
    if not p.ops:
        raise SystemExit(f"{args.workload}: the pass ran no operation")
    if not args.tiny and REFERENCE.exists():
        ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
        p.check_reference(ref.get(args.workload, {}).get(str(args.seed), {}))
    layer_metrics = {}
    if tracer is not None:
        tracer.restore()
        tracer.count("layerpot.near_boundary_warnings", near)
        cold_cache_guard(p, tracer, args.workload, workloads.M)
        layer_metrics = layers.metrics(tracer)
    result = {
        "setup_s": p.setup_s,
        "ops": p.ops,
        "op_last_s": p.ops[-1][1],
        "outputs": p.outputs,
        "failures": p.failures,
        "attempted": p.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
        "layers": layer_metrics,
    }
    if tracer is not None:
        result["span_sum_s"] = tracer.top_level_seconds()
        if args.dump:
            tracer.dump(args.dump, {"workload": args.workload, "seed": args.seed,
                                    "env": result["env"]})
    print(json.dumps(result))


if __name__ == "__main__":
    main()
