#!/usr/bin/env python3
"""Measure the far-field decay of the extension's convolution part.

The extension of a target splits into a polynomial plus a convolution-type
part; once the source moments are annihilated the latter decays like
|x|^(m-d) (m = d leaves a log).  This script samples the convolution part
along rays, fits the log-log slope over |x| in [10, 100], and optionally
writes the samples as CSV for plotting.
"""

import argparse

import numpy as np

from surfspline.geometry import curve_from_spec
from surfspline.kernel import SplineParams
from surfspline.scheme import ExtensionField, scheme_grids
from surfspline.targets import TARGET_LIBRARY, named_target


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--curve", default="disk")
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--target", default="expx", choices=sorted(TARGET_LIBRARY))
    ap.add_argument("--h", type=float, default=0.1)
    ap.add_argument("--rays", type=int, default=4)
    ap.add_argument("--samples", type=int, default=12)
    ap.add_argument("--output", default=None, help="CSV of (x, y, |conv|)")
    args = ap.parse_args()

    curve = curve_from_spec(args.curve)
    params = SplineParams(m=args.m, d=2)
    f = named_target(args.target, args.m)
    grids = scheme_grids(curve, args.h)
    field = ExtensionField(params, grids, f)

    radii = np.geomspace(10.0, 100.0, args.samples)
    rows = []
    for k in range(args.rays):
        theta = 2 * np.pi * (k + 0.217) / args.rays
        pts = radii[:, None] * np.array([np.cos(theta), np.sin(theta)])
        vals = np.abs(field.convolution_part(pts))
        rows.append(vals)
        slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
        print(f"ray {theta:5.2f} rad: slope {slope:+.3f} (expected {args.m - 2:+d})")
        if args.output:
            data = np.column_stack([pts, vals])
            header = "" if k else "x,y,abs_convolution"
            with open(args.output, "a" if k else "w", encoding="utf-8", newline="\n") as fh:
                if header:
                    fh.write(header + "\n")
                for x, y, v in data:
                    fh.write(f"{x!r},{y!r},{v!r}\n")
    mean_slope = np.mean([
        np.polyfit(np.log(radii), np.log(v), 1)[0] for v in rows
    ])
    print(f"mean slope: {mean_slope:+.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
