#!/usr/bin/env python3
"""Run one or more convergence experiments and print the fitted rates.

Usage:
    python scripts/run_convergence.py [config ...]

With no arguments every config under experiments/ runs in order, each as
``surfspline converge --config <path>``.  Each experiment writes its
per-rung CSV and a rates summary next to the path named in its config.  A
config that cannot be read or set up prints ``error: ...`` and exits 2
before its ladder writes anything; a ladder with a failed rung exits 1.
"""

import sys
from pathlib import Path

from surfspline.cli import main as cli_main


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    paths = [Path(p) for p in argv]
    if not paths:
        paths = sorted((Path(__file__).resolve().parent.parent / "experiments").glob("*.cfg"))
    if not paths:
        print("no configs found", file=sys.stderr)
        return 2
    worst = 0
    for path in paths:
        print(f"== {path} ==")
        rc = cli_main(["converge", "--config", str(path)])
        if rc == 2:
            return 2
        worst = max(worst, rc)
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
