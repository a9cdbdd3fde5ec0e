#!/usr/bin/env python3
"""Exercise the exact identities the scheme is built on and print residuals.

Checks, at a configurable resolution:
  * volume-plus-layers reconstruction of a target from its m-fold Laplacian
    and boundary traces (also with a deliberately wrong constant, which must
    blow up -- that is what pins the kernel normalization);
  * Dirichlet reproduction of polyharmonic targets;
  * the source-moment annihilation that makes the global extension decay;
  * continuity of the extension across the boundary.

Everything here should sit at quadrature accuracy; these are identity
checks, not convergence measurements.
"""

import argparse

from surfspline.dirichlet import solve_dirichlet
from surfspline.geometry import BoundaryGrid, curve_from_spec
from surfspline.harness import greens_identity_check
from surfspline.kernel import SplineParams
from surfspline.scheme import (
    ExtensionField,
    annihilation_check,
    extension_continuity,
    probe_points,
    scheme_grids,
)
from surfspline.targets import TARGET_LIBRARY, named_target

import numpy as np


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--curve", default="disk")
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--n", type=int, default=256, help="boundary nodes")
    ap.add_argument("--level", type=int, default=32, help="interior quadrature level")
    ap.add_argument("--target", default="expx", choices=sorted(TARGET_LIBRARY))
    args = ap.parse_args()

    curve = curve_from_spec(args.curve)
    params = SplineParams(m=args.m, d=2)

    err = greens_identity_check(curve, args.m, args.target, args.n, args.level)
    print(f"reconstruction from Laplacian + traces ({args.target}): {err:.3e}")
    bad = greens_identity_check(
        curve, args.m, args.target, args.n, args.level, constant_scale=2.0
    )
    print(f"  same with the kernel constant doubled (must be O(1)): {bad:.3e}")

    grid = BoundaryGrid.build(curve, args.n)
    for name in ("poly1", "harmonic3", "biharm"):
        f = named_target(name, args.m)
        sol = solve_dirichlet(params, grid, f)
        probes = probe_points(curve, 16, 0.05)
        rel = np.max(np.abs(sol.evaluate(probes) - f(probes))) / max(
            1.0, np.max(np.abs(f(probes)))
        )
        print(f"Dirichlet reproduction of {name}: {rel:.3e}")

    f = named_target(args.target, args.m)
    grids = scheme_grids(curve, 0.1, n_solver=args.n, level=args.level)
    field = ExtensionField(params, grids, f)
    print(f"source-moment annihilation ({args.target}): "
          f"{annihilation_check(field):.3e}")
    print(f"extension continuity across the boundary: "
          f"{extension_continuity(field):.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
