#!/usr/bin/env python3
"""Run one or more convergence experiments and print the fitted rates.

Usage:
    python scripts/run_convergence.py [config ...]

With no arguments every config under experiments/ runs in order.  Each
experiment writes its per-rung CSV and a rates summary next to the path
named in its config.  A config that cannot be read or set up prints
``error: ...`` and exits 2 before its ladder writes anything; a ladder with
a failed rung exits 1.
"""

import sys
from pathlib import Path

from surfspline.harness import ExperimentConfig, converge


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    paths = [Path(p) for p in argv]
    if not paths:
        paths = sorted((Path(__file__).resolve().parent.parent / "experiments").glob("*.cfg"))
    if not paths:
        print("no configs found", file=sys.stderr)
        return 2
    failures = 0
    for path in paths:
        print(f"== {path} ==")
        try:
            # converge records rung failures itself; what it raises is a config fault
            report = converge(ExperimentConfig.from_file(path), verbose=True)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for p, rate in report.rates.items():
            print(f"  fitted l{p} rate: {rate:.3f}")
        for warning in report.warnings:
            print(f"  warning: {warning}")
        main_csv, rates_csv = report.write()
        print(f"  wrote {main_csv}, {rates_csv}")
        failures += sum(not r.ok for r in report.rungs)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
