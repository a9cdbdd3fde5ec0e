"""Command-line front end.

Subcommands:

``converge``
    Run the convergence ladders described by one or more ``key = value``
    config files, in order, and write each one's per-rung CSV plus its
    fitted-rate summary.  Exits 1 if any rung failed.
``solve-dirichlet``
    Solve the polyharmonic Dirichlet problem for a named data function and
    dump the solution on an interior probe grid.
``approximate``
    Build the quasi-interpolant of a target at one fill distance and dump
    its centers, coefficients, and polynomial part.
``extend``
    Evaluate the global finite-energy extension of a target at explicit
    points or along a ray.
``check-symbols``
    Print the principal symbol matrix of the boundary system and its
    determinant (a singular matrix would make the solver unusable).

Point sets are ``(n, 2)`` arrays.  All CSV output is UTF-8 with LF line
endings and a header row.  A ``ValueError`` or ``OSError`` from any
subcommand (a bad argument, config or path) prints ``error: ...`` to stderr
and exits 2; argparse rejects unknown options and names the same way.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .dirichlet import principal_symbol_matrix, solve_dirichlet
from .geometry import curve_from_spec, generate_centers, oversample_boundary
from .harness import ExperimentConfig, converge
from .kernel import SplineParams
from .scheme import (
    ExtensionField,
    assemble_TXi,
    eval_approximant,
    probe_points,
    scheme_grids,
)
from .targets import TARGET_LIBRARY, named_target

__all__ = ["main"]


def _write_csv(path, header: str, rows) -> None:
    lines = [header]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _cmd_converge(args) -> int:
    # every config is read before the first ladder runs, so a bad one exits 2
    # before any CSV is written
    configs = [ExperimentConfig.from_file(path) for path in args.config]
    status = 0
    for config in configs:
        report = converge(config, verbose=not args.quiet)
        main_csv, rates_csv = report.write()
        for warning in report.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        if not args.quiet:
            for p, rate in report.rates.items():
                print(f"fitted l{p} rate: {rate:.3f}")
        print(f"wrote {main_csv} and {rates_csv}")
        if not all(r.ok for r in report.rungs):
            status = 1
    return status


def _cmd_solve_dirichlet(args) -> int:
    curve = curve_from_spec(args.curve)
    params = SplineParams(m=args.m, d=2)
    f = named_target(args.data, args.m)
    from .geometry import BoundaryGrid

    probes = probe_points(curve, args.probe_grid, args.margin)
    grid = BoundaryGrid.build(curve, args.n)
    sol = solve_dirichlet(params, grid, f)
    u = sol.evaluate(probes)
    fp = f(probes)
    rows = np.column_stack([probes, u, fp, np.abs(u - fp)])
    _write_csv(args.output, "x,y,u,data_fn,abs_diff", rows)
    print(
        f"solved {args.curve} m={args.m} n={args.n}; "
        f"max |u - data_fn| over probes: {np.max(np.abs(u - fp)):.3e} "
        "(equals the solver error only for polyharmonic data)"
    )
    print(f"wrote {args.output}")
    return 0


def _cmd_approximate(args) -> int:
    curve = curve_from_spec(args.curve)
    f = named_target(args.target, args.m)
    probes = probe_points(curve, args.probe_grid, 0.0) if args.probe_grid else None
    centers = generate_centers(curve, args.h, seed=args.seed)
    if args.oversample is not None:
        centers = oversample_boundary(curve, centers, args.h, args.oversample, args.m)
    grids = scheme_grids(curve, args.h, nu=args.oversample, n_solver=args.n)
    apx = assemble_TXi(f, centers, grids)
    apx.save_csv(args.output)
    if args.centers:
        _write_csv(args.centers, "x,y", centers.points)
        print(f"wrote centers to {args.centers}")
    if probes is not None:
        err = np.max(np.abs(eval_approximant(apx, probes) - f(probes)))
        print(f"max probe error: {err:.3e}")
    print(f"wrote {args.output}")
    return 0


def _parse_points(spec: str) -> np.ndarray:
    """The points of ``--points x,y;x,y...`` as an ``(n, 2)`` array."""
    pts = []
    try:
        for tok in spec.split(";"):
            x, y = tok.split(",")
            pts.append((float(x), float(y)))
    except ValueError:
        raise ValueError(f"--points takes x,y;x,y... pairs of numbers, got {spec!r}") from None
    return np.asarray(pts)


def _ray_points(spec: str) -> np.ndarray:
    """The points of ``--ray theta,r0,r1,count``: count radii spaced
    geometrically from r0 to r1 along the direction theta."""
    form = f"--ray takes theta,r0,r1,count with an integer count >= 1, got {spec!r}"
    try:
        theta, r0, r1, count = spec.split(",")
        theta, r0, r1, count = float(theta), float(r0), float(r1), int(count)
    except ValueError:
        raise ValueError(form) from None
    if count < 1:
        raise ValueError(form)
    radii = np.geomspace(r0, r1, count)
    direction = np.array([np.cos(theta), np.sin(theta)])
    return radii[:, None] * direction


def _cmd_extend(args) -> int:
    curve = curve_from_spec(args.curve)
    params = SplineParams(m=args.m, d=2)
    f = named_target(args.target, args.m)
    if args.points:
        pts = _parse_points(args.points)
    elif args.ray:
        pts = _ray_points(args.ray)
    else:
        raise ValueError("provide --points or --ray")
    grids = scheme_grids(curve, args.h, n_solver=args.n)
    field = ExtensionField(params, grids, f)
    rows = np.column_stack([pts, field.evaluate(pts)])
    if args.output:
        _write_csv(args.output, "x,y,value", rows)
        print(f"wrote {args.output}")
    else:
        print("x,y,value")
        for x, y, v in rows:
            print(f"{float(x)!r},{float(y)!r},{float(v)!r}")
    return 0


def _cmd_check_symbols(args) -> int:
    sigma = principal_symbol_matrix(args.m)
    det = float(np.linalg.det(sigma))
    print(f"principal symbol matrix, m={args.m}:")
    for row in sigma:
        print("  " + "  ".join(f"{v: .6g}" for v in row))
    print(f"determinant: {det:.6g}")
    if abs(det) < 1e-12:
        print("SINGULAR: layer representation would not be solvable", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfspline",
        description="Surface-spline approximation on smooth planar domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("converge", help="run convergence ladders from configs")
    p.add_argument(
        "--config", required=True, action="extend", nargs="+", help="key = value config files"
    )
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("solve-dirichlet", help="solve the boundary-value problem")
    p.add_argument("--curve", default="disk", help="disk | circle:r | ellipse:a,b | star:eps[,arms]")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", type=int, default=256, help="boundary nodes")
    p.add_argument(
        "--data", default="harmonic3", choices=sorted(TARGET_LIBRARY), help="named data function"
    )
    p.add_argument("--probe-grid", type=int, default=32)
    p.add_argument("--margin", type=float, default=0.02)
    p.add_argument("--output", default="dirichlet.csv")
    p.set_defaults(func=_cmd_solve_dirichlet)

    p = sub.add_parser("approximate", help="build a quasi-interpolant")
    p.add_argument("--curve", default="disk")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--h", type=float, default=0.1, help="target fill distance")
    p.add_argument("--target", default="expx", choices=sorted(TARGET_LIBRARY))
    p.add_argument("--oversample", type=float, default=None, help="boundary exponent nu")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=256, help="solver boundary nodes")
    p.add_argument("--output", default="approximant.csv")
    p.add_argument("--centers", default=None, help="also write the center set here")
    p.add_argument("--probe-grid", type=int, default=0, help="report max error on this grid")
    p.set_defaults(func=_cmd_approximate)

    p = sub.add_parser("extend", help="evaluate the global extension")
    p.add_argument("--curve", default="disk")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--target", default="expx", choices=sorted(TARGET_LIBRARY))
    p.add_argument("--h", type=float, default=0.1)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--points", default=None, help='semicolon-separated "x,y" pairs')
    p.add_argument("--ray", default=None, help='"theta,r0,r1,count" geometric ray')
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("check-symbols", help="print the principal symbol matrix")
    p.add_argument("--m", type=int, default=2)
    p.set_defaults(func=_cmd_check_symbols)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # converge records rung failures itself, so what any subcommand raises
    # as ValueError or OSError is an input fault: a bad argument, config or path
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
