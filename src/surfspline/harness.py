"""Experiment driver: convergence ladders, rate fits, CSV.

A convergence experiment runs the approximation scheme down a dyadic ladder
of fill distances, measures errors against a probe grid and an interior
quadrature that stay fixed across rungs, and fits log-log rates over the
last three rungs (the asymptotic regime; the full table is still emitted).
Everything is deterministic given the config seed, so the emitted CSV is
bit-identical between runs.  Timing is reported alongside but kept out of
the CSV files for exactly that reason.
"""

from __future__ import annotations

import configparser
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import curve_from_spec, generate_centers, oversample_boundary
from .kernel import SplineParams
from .layerpot import TraceMaps
from .scheme import (
    assemble_TXi,
    eval_approximant,
    interior_quadrature,
    probe_points,
    scheme_grids,
)
from .targets import TARGET_LIBRARY, named_target

__all__ = [
    "ExperimentConfig",
    "RungResult",
    "ErrorReport",
    "converge",
    "oversampling_budget",
]

_NORM_TOKENS = ("1", "2", "inf")


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one convergence experiment.

    ``oversample`` is either a float exponent nu, the string ``"critical"``
    (resolved to 2mp/(mp+1) for the strongest requested norm), or None for
    no boundary-zone densification.
    """

    curve: str = "disk"
    m: int = 2
    target: str = "expx"
    h_ladder: tuple[float, ...] = (0.2, 0.1, 0.05, 0.025)
    norms: tuple[str, ...] = ("1", "2", "inf")
    oversample: float | str | None = None
    seed: int = 0
    output: str = "experiment"
    probe_grid: int = 512
    n_solver: int = 256
    quad_level: int = 64

    def __post_init__(self):
        if len(self.h_ladder) < 3:
            raise ValueError("need at least 3 ladder rungs for a rate fit")
        if any(b >= a for a, b in zip(self.h_ladder, self.h_ladder[1:])):
            raise ValueError("h ladder must be strictly decreasing")
        if self.h_ladder[-1] <= 0:
            raise ValueError("ladder fill distances must be positive")
        bad = [p for p in self.norms if p not in _NORM_TOKENS]
        if bad:
            raise ValueError(f"unknown norm tokens {bad}; use 1, 2, inf")
        if self.m < 2:
            raise ValueError(f"spline order must satisfy m >= 2, got m={self.m}")
        if self.n_solver < 4 or self.n_solver % 2:
            raise ValueError(f"n_solver must be even and >= 4, got {self.n_solver}")
        if self.quad_level < 2:
            raise ValueError(f"quad_level must be at least 2, got {self.quad_level}")
        if self.oversample not in (None, "critical") and float(self.oversample) < 1.0:
            raise ValueError(f"oversample exponent must be >= 1, got {self.oversample}")
        if self.target not in TARGET_LIBRARY:
            known = ", ".join(sorted(TARGET_LIBRARY))
            raise ValueError(f"unknown target {self.target!r}; known targets: {known}")
        try:
            curve_from_spec(self.curve)
        except ValueError as exc:
            raise ValueError(f"bad curve spec {self.curve!r}: {exc}") from exc

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """Read a ``key = value`` config file ([experiment] section).

        Beyond the checks every config gets when built, a file's sup-norm
        probe grid must hold a point inside the domain, so a run over
        several files can refuse a bad one before the first ladder.
        """
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        with open(path, encoding="utf-8") as fh:
            try:
                cp.read_file(fh)
            except configparser.Error as exc:
                raise ValueError(f"{path}: {exc}") from exc
        if not cp.sections():
            raise ValueError(f"{path}: no [experiment] section")
        sec = cp["experiment"] if cp.has_section("experiment") else cp[cp.sections()[0]]
        kw = {}
        for key in ("curve", "target", "output"):
            if key in sec:
                kw[key] = sec[key].strip()
        for key in ("m", "seed", "probe_grid", "n_solver", "quad_level"):
            if key in sec:
                kw[key] = sec.getint(key)
        if "h_ladder" in sec:
            kw["h_ladder"] = tuple(
                float(tok) for tok in sec["h_ladder"].replace(",", " ").split()
            )
        if "norms" in sec:
            kw["norms"] = tuple(sec["norms"].replace(",", " ").split())
        if "oversample" in sec:
            raw = sec["oversample"].strip().lower()
            if raw in ("", "none"):
                kw["oversample"] = None
            elif raw == "critical":
                kw["oversample"] = "critical"
            else:
                kw["oversample"] = float(raw)
        config = cls(**kw)
        if "inf" in config.norms:
            probe_points(curve_from_spec(config.curve), config.probe_grid, 0.0)
        return config

    def resolved_nu(self) -> float | None:
        if self.oversample is None:
            return None
        if self.oversample == "critical":
            p = max(math.inf if p == "inf" else float(p) for p in self.norms)
            return oversampling_budget(self.m, p)
        return float(self.oversample)


@dataclass
class RungResult:
    """Outcome of one ladder rung; ``failure`` holds the annotation if the
    rung could not be completed."""

    h: float
    fill: float
    n_centers: int
    n_boundary_nodes: int
    errors: dict
    runtime: float
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass
class ErrorReport:
    config: ExperimentConfig
    rungs: list = field(default_factory=list)
    rates: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def rung_table(self) -> str:
        """The per-rung experiment CSV (deterministic; no timing column)."""
        cols = ["h", "fill", "n_centers", "n_boundary_nodes"]
        cols += [f"err_l{p}" for p in self.config.norms]
        lines = [",".join(cols + ["status"])]
        for r in self.rungs:
            row = [repr(r.h), repr(r.fill), str(r.n_centers), str(r.n_boundary_nodes)]
            row += [repr(r.errors[p]) if p in r.errors else "" for p in self.config.norms]
            row.append("ok" if r.ok else r.failure.replace(",", ";"))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def rates_table(self) -> str:
        lines = ["norm,fitted_rate"]
        for p in self.config.norms:
            val = self.rates.get(p)
            lines.append(f"l{p},{'' if val is None else repr(val)}")
        return "\n".join(lines) + "\n"

    def write(self) -> tuple:
        """Emit ``<output>.csv`` and ``<output>_rates.csv`` (UTF-8, LF)."""
        stem = Path(self.config.output)
        stem.parent.mkdir(parents=True, exist_ok=True)
        main = stem.with_suffix(".csv")
        rates = stem.with_name(stem.name + "_rates").with_suffix(".csv")
        main.write_text(self.rung_table(), encoding="utf-8", newline="\n")
        rates.write_text(self.rates_table(), encoding="utf-8", newline="\n")
        return main, rates


def _norm_errors(norms, probe_err, quad, quad_err):
    out = {}
    for p in norms:
        if p == "inf":
            out[p] = float(np.max(np.abs(probe_err)))
        elif p == "1":
            out[p] = float(quad.weights @ np.abs(quad_err))
        else:
            out[p] = float(np.sqrt(quad.weights @ quad_err**2))
    return out


def converge(config: ExperimentConfig, *, verbose: bool = False) -> ErrorReport:
    """Run the ladder described by the config and fit convergence rates.

    Each rung regenerates centers at its fill distance (plus optional
    boundary oversampling), assembles the quasi-interpolant, and measures
    the requested norms: the sup norm over a fixed clipped probe grid, the
    1- and 2-norms by a fixed interior quadrature; the approximant is
    evaluated only on the point sets the requested norms use.  Every rung
    solves on the same boundary grid, so the first rung builds its trace
    maps and every rung applies them.  A rung that raises is recorded with
    its failure annotation and the remaining rungs still run, so partial
    reports always come out; what raises is a fault of the config.  Rates
    are least-squares slopes of log error against log measured fill over
    the last three clean rungs.
    """
    curve = curve_from_spec(config.curve)
    f = named_target(config.target, config.m)
    params = SplineParams(m=config.m, d=2)
    nu = config.resolved_nu()

    probes = fp = quad = fq = None
    if "inf" in config.norms:
        probes = probe_points(curve, config.probe_grid, 0.0)
        fp = f(probes)
    if {"1", "2"} & set(config.norms):
        quad = interior_quadrature(curve, config.quad_level)
        fq = f(quad.nodes)

    report = ErrorReport(config=config)
    traces = None
    for h in config.h_ladder:
        t0 = time.perf_counter()
        try:
            cs = generate_centers(curve, h, seed=config.seed)
            if nu is not None:
                cs = oversample_boundary(curve, cs, h, nu, config.m)
            grids = scheme_grids(curve, h, nu=nu, n_solver=config.n_solver)
            if traces is None:
                traces = TraceMaps(params, grids.boundary)
            apx = assemble_TXi(f, cs, grids, traces)
            errors = _norm_errors(
                config.norms,
                None if probes is None else eval_approximant(apx, probes) - fp,
                quad,
                None if quad is None else eval_approximant(apx, quad.nodes) - fq,
            )
            rung = RungResult(
                h=h,
                fill=cs.fill,
                n_centers=len(cs.points),
                n_boundary_nodes=grids.boundary_nodes.n,
                errors=errors,
                runtime=time.perf_counter() - t0,
            )
        except Exception as exc:  # noqa: BLE001 - annotated partial report
            rung = RungResult(
                h=h,
                fill=float("nan"),
                n_centers=0,
                n_boundary_nodes=0,
                errors={},
                runtime=time.perf_counter() - t0,
                failure=f"{type(exc).__name__}: {exc}",
            )
        report.rungs.append(rung)
        if verbose:
            if rung.ok:
                err = " ".join(f"l{p}={rung.errors[p]:.3e}" for p in config.norms)
                print(
                    f"h={h:g} fill={rung.fill:.4f} N={rung.n_centers} "
                    f"{err} ({rung.runtime:.1f}s)"
                )
            else:
                print(f"h={h:g} FAILED: {rung.failure}")

    clean = [r for r in report.rungs if r.ok]
    if len(clean) >= 3:
        tail = clean[-3:]
        logf = np.log([r.fill for r in tail])
        for p in config.norms:
            loge = np.log([r.errors[p] for r in tail])
            report.rates[p] = float(np.polyfit(logf, loge, 1)[0])
    else:
        report.warnings.append("fewer than 3 clean rungs; no rate fit")

    for p in config.norms:
        seq = [r.errors[p] for r in clean]
        if any(b > a for a, b in zip(seq, seq[1:])):
            report.warnings.append(
                f"l{p} error not monotone along the ladder (preasymptotic bump?)"
            )
    return report


def oversampling_budget(m: int, p: float) -> float:
    """Critical oversampling exponent nu = 2mp/(mp+1) for the L_p norm.

    Densifying the planar boundary zone to h^nu adds O(h^-2) centers for
    every p.  ``p`` may be ``math.inf`` (sup norm), giving nu = 2.
    """
    if p < 1:
        raise ValueError("p must be in [1, inf]")
    return 2.0 if math.isinf(p) else 2.0 * m * p / (m * p + 1.0)
