"""Which package functions a traced pass wraps, and the per-layer metrics.

Every wrapped function gets a span named ``<module>.<function>``.  Counters
come from the arguments and returned values only: the ``(A, stab, radii)``
tuples of the reproduction-matrix functions, the ``DirichletSolution`` that
``compute_Nj`` returns, the center sets, and the shapes of the evaluated
point sets.  The kernel's private pair kernels inside ``one_sided_trace``
are not reachable from outside, so they count toward that span's self time.
"""

from __future__ import annotations

import inspect

import numpy as np

#: (module, attribute, span name); ``Class.method`` attributes wrap a method
WRAPPED = [
    ("surfspline.harness", "converge", "harness.converge"),
    ("surfspline.targets", "named_target", "targets.named_target"),
    ("surfspline.scheme", "interior_quadrature", "scheme.interior_quadrature"),
    ("surfspline.geometry", "generate_centers", "geometry.generate_centers"),
    ("surfspline.geometry", "DomainCurve.ray_exit", "geometry.ray_exit"),
    ("surfspline.scheme", "scheme_grids", "scheme.scheme_grids"),
    ("surfspline.scheme", "assemble_TXi", "scheme.assemble_TXi"),
    ("surfspline.lpr", "interior_reproduction_matrix", "lpr.interior_reproduction_matrix"),
    ("surfspline.lpr", "boundary_reproduction_matrix", "lpr.boundary_reproduction_matrix"),
    ("surfspline.dirichlet", "compute_Nj", "dirichlet.compute_Nj"),
    ("surfspline.dirichlet", "solve_dirichlet", "dirichlet.solve_dirichlet"),
    ("surfspline.layerpot", "one_sided_trace", "layerpot.one_sided_trace"),
    ("surfspline.layerpot", "layer_potential", "layerpot.layer_potential"),
    ("surfspline.kernel", "boundary_kernel", "kernel.boundary_kernel"),
    ("surfspline.scheme", "eval_approximant", "scheme.eval_approximant"),
    ("surfspline.scheme", "volume_potential", "scheme.volume_potential"),
    ("surfspline.scheme", "ExtensionField.__init__", "scheme.ExtensionField.init"),
    ("surfspline.scheme", "ExtensionField.evaluate", "scheme.ExtensionField.evaluate"),
    ("surfspline.scheme", "extension_continuity", "scheme.extension_continuity"),
    ("surfspline.scheme", "error_kernel_norms", "scheme.error_kernel_norms"),
]

#: per-layer metrics: name -> (unit, better)
PER_LAYER = {}


def _metric(names, unit, better):
    for n in names.split():
        PER_LAYER[n] = (unit, better)


for _kind in ("interior", "boundary"):
    _metric(f"lpr.{_kind}_reproduction_matrix.s", "s", "lower")
    _metric(f"lpr.{_kind}_reproduction_matrix.calls", "count", "lower")
    _metric(f"lpr.{_kind}.anchors lpr.{_kind}.nnz", "count", "lower")
    _metric(f"lpr.{_kind}.anchors_per_s", "1/s", "higher")
    _metric(f"lpr.{_kind}.nominal_ratio", "ratio", "higher")
    _metric(f"lpr.{_kind}.stability_max", "ratio", "lower")
_metric("dirichlet.compute_Nj.s dirichlet.compute_Nj.self_s dirichlet.solve_dirichlet.s "
        "layerpot.one_sided_trace.s", "s", "lower")
_metric("dirichlet.compute_Nj.calls layerpot.one_sided_trace.calls", "count", "lower")
_metric("scheme.eval_approximant.s", "s", "lower")
_metric("scheme.eval_approximant.entries", "count", "lower")
_metric("scheme.eval_approximant.entries_per_s", "1/s", "higher")
_metric("scheme.assemble_TXi.s scheme.assemble_TXi.self_s", "s", "lower")
_metric("scheme.volume_potential.s", "s", "lower")
_metric("scheme.volume_potential.points", "count", "lower")
_metric("scheme.volume_potential.points_per_s", "1/s", "higher")
_metric("geometry.ray_exit.s layerpot.layer_potential.s kernel.boundary_kernel.s "
        "scheme.ExtensionField.init_s scheme.ExtensionField.evaluate_s "
        "scheme.extension_continuity.s scheme.error_kernel_norms.s", "s", "lower")
_metric("geometry.ray_exit.calls layerpot.layer_potential.calls kernel.boundary_kernel.calls",
        "count", "lower")
_metric("geometry.generate_centers.s scheme.scheme_grids.s", "s", "lower")
_metric("geometry.n_centers", "count", "lower")
_metric("targets.named_target.s scheme.interior_quadrature.s", "s", "lower")
_metric("dirichlet.residual_max", "ratio", "lower")
_metric("dirichlet.rcond_min", "ratio", "higher")
_metric("layerpot.near_boundary_warnings", "count", "lower")
_metric("trace.overhead_frac", "ratio", "lower")
_metric("trace.untraced_wall_s trace.traced_wall_s trace.span_sum_s", "s", "lower")


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _reproduction(kind, gamma_default):
    def collect(tracer, fn, args, kwargs, result):
        a = _bound(fn, args, kwargs)
        A, stab, radii = result
        gamma = a.get("kwargs", {}).get("gamma", gamma_default)
        nominal = gamma * a["M"] ** 2 * a["h" if kind == "interior" else "h_local"]
        tracer.count(f"lpr.{kind}.anchors", A.shape[0])
        tracer.count(f"lpr.{kind}.nnz", A.nnz)
        tracer.count(f"lpr.{kind}.nominal", np.count_nonzero(np.isclose(radii, nominal, rtol=1e-12, atol=0.0)))
        tracer.high(f"lpr.{kind}.stability_max", np.max(stab))

    return collect


def _centers(tracer, fn, args, kwargs, result):
    tracer.high("geometry.n_centers", len(result))


def _solution(tracer, fn, args, kwargs, result):
    _, sol = result
    tracer.high("dirichlet.residual_max", sol.residual)
    tracer.low("dirichlet.rcond_min", sol.rcond)


def _entries(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    n_pts = np.atleast_2d(np.asarray(a["points"])).shape[0]
    tracer.count("scheme.eval_approximant.entries", n_pts * a["apx"].centers.shape[0])


def _points(tracer, fn, args, kwargs, result):
    pts = _bound(fn, args, kwargs)["points"]
    tracer.count("scheme.volume_potential.points", np.atleast_2d(np.asarray(pts)).shape[0])


def install(tracer):
    """Wrap every function in WRAPPED; ``tracer.restore()`` undoes it."""
    from surfspline import lpr

    collectors = {
        "interior_reproduction_matrix": _reproduction("interior", lpr.GAMMA_DEFAULT),
        "boundary_reproduction_matrix": _reproduction("boundary", lpr.GAMMA_BOUNDARY_DEFAULT),
        "generate_centers": _centers,
        "compute_Nj": _solution,
        "eval_approximant": _entries,
        "volume_potential": _points,
    }
    for module, attr, span in WRAPPED:
        if "." in attr:
            cls, meth = attr.split(".")
            tracer.wrap_method(module, cls, meth, span)
        else:
            tracer.wrap(module, attr, span, collectors.get(attr))


def metrics(tracer):
    """The per-layer metrics of one traced pass (zero where a layer idles)."""
    tot = tracer.totals()
    c, hi, lo = tracer.counters, tracer.maxima, tracer.minima
    out = {}

    def span(name, key="s"):
        incl, own, calls = tot.get(name, (0.0, 0.0, 0))
        return {"s": incl, "self_s": own, "calls": calls}[key]

    def rate(num, den):
        return num / den if den > 0 else 0.0

    for kind in ("interior", "boundary"):
        s = span(f"lpr.{kind}_reproduction_matrix")
        anchors = c[f"lpr.{kind}.anchors"]
        out[f"lpr.{kind}_reproduction_matrix.s"] = s
        out[f"lpr.{kind}_reproduction_matrix.calls"] = span(f"lpr.{kind}_reproduction_matrix", "calls")
        out[f"lpr.{kind}.anchors"] = anchors
        out[f"lpr.{kind}.nnz"] = c[f"lpr.{kind}.nnz"]
        out[f"lpr.{kind}.anchors_per_s"] = rate(anchors, s)
        out[f"lpr.{kind}.nominal_ratio"] = rate(c[f"lpr.{kind}.nominal"], anchors)
        out[f"lpr.{kind}.stability_max"] = hi.get(f"lpr.{kind}.stability_max", 0.0)
    for name in ("dirichlet.compute_Nj", "scheme.assemble_TXi"):
        out[f"{name}.s"] = span(name)
        out[f"{name}.self_s"] = span(name, "self_s")
    out["dirichlet.compute_Nj.calls"] = span("dirichlet.compute_Nj", "calls")
    out["dirichlet.solve_dirichlet.s"] = span("dirichlet.solve_dirichlet")
    for name in ("layerpot.one_sided_trace", "geometry.ray_exit", "layerpot.layer_potential",
                 "kernel.boundary_kernel"):
        out[f"{name}.s"] = span(name)
        out[f"{name}.calls"] = span(name, "calls")
    s = span("scheme.eval_approximant")
    out["scheme.eval_approximant.s"] = s
    out["scheme.eval_approximant.entries"] = c["scheme.eval_approximant.entries"]
    out["scheme.eval_approximant.entries_per_s"] = rate(c["scheme.eval_approximant.entries"], s)
    s = span("scheme.volume_potential")
    out["scheme.volume_potential.s"] = s
    out["scheme.volume_potential.points"] = c["scheme.volume_potential.points"]
    out["scheme.volume_potential.points_per_s"] = rate(c["scheme.volume_potential.points"], s)
    out["scheme.ExtensionField.init_s"] = span("scheme.ExtensionField.init")
    out["scheme.ExtensionField.evaluate_s"] = span("scheme.ExtensionField.evaluate")
    for name in ("scheme.extension_continuity", "scheme.error_kernel_norms",
                 "geometry.generate_centers", "scheme.scheme_grids",
                 "targets.named_target", "scheme.interior_quadrature"):
        out[f"{name}.s"] = span(name)
    out["geometry.n_centers"] = hi.get("geometry.n_centers", 0.0)
    out["dirichlet.residual_max"] = hi.get("dirichlet.residual_max", 0.0)
    out["dirichlet.rcond_min"] = lo.get("dirichlet.rcond_min", 0.0)
    out["layerpot.near_boundary_warnings"] = c["layerpot.near_boundary_warnings"]
    return out
