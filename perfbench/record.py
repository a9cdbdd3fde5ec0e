"""Record the reference outputs that later passes must reproduce.

    python3 perfbench/record.py --seeds 0-9 [--workload ladder-plain ...]

Runs one untraced pass per workload and seed and stores its checked
outputs (ladder errors and field values) at the four significant digits
``converge`` prints, in ``perfbench/reference.json``.
Record only from a commit whose outputs are known good: a later change
that moves any of these digits is a behaviour change, and the benchmark
counts it as a failed operation.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench import run, workloads  # noqa: E402

REFERENCE = HERE / "reference.json"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="first-last, inclusive")
    ap.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    ref = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    for name in args.workload:
        for seed in range(first, last + 1):
            res = run.child(argparse.Namespace(workload=name, seed=seed, tiny=False))
            if res["failures"]:
                raise SystemExit(f"{name} seed {seed} failed: {res['failures']}")
            ref.setdefault(name, {})[str(seed)] = {
                label: [workloads.sig4(v) for v in vals] for label, vals in res["outputs"].items()
            }
            print(name, seed, f"{res['wall_s']:.1f}s", flush=True)
            REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
