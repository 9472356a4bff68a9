"""The library layers the traced run measures, and the per-layer metrics.

Each function is wrapped at every name its callers look it up under; the
span names are ``<module>.<function>``.  The fields the workloads pass into
the library are counted (``form_evals``, ``h_evals``, ``fiber_samples``)
and timed as ``workload.field``.
"""
from __future__ import annotations

from orthoforms import calculus, cycles, domain, kernels, quadratic, series, special
from orthoforms.cycles import QuadratureError
from orthoforms.kernels import KernelSingularity

SINGULAR = ((KernelSingularity, "kernels.singular"),)
QUADRATURE = ((QuadratureError, "cycles.quadrature_errors"),)


def _add_len(counter: str):
    def hook(counters, result):
        counters[counter] += len(result)
    return hook


def _add_count(counters, result):
    counters["series.terms"] += result.count


def install(tracer) -> None:
    pkg = "orthoforms"
    fn = tracer.patch_function
    fn(quadratic.enumerate_majorant, "quadratic.enumerate_majorant", pkg,
       on_result=_add_len("quadratic.enumerate_majorant.kept"))
    tracer.patch_counter(quadratic.QuadraticLattice, "q",
                         "quadratic.enumerate_majorant",
                         "quadratic.enumerate_majorant.visited")
    for method in ("inverse", "apply", "compose", "preserves"):
        tracer.patch_method(quadratic.Isometry, method, "quadratic.Isometry")
    tracer.patch_method(domain.DomainPoint, "__init__", "domain.DomainPoint")
    fn(domain.act, "domain.act", pkg)
    fn(domain.majorant_at, "domain.majorant_at", pkg)
    fn(kernels.p_tilde_components, "kernels.p_tilde_components", pkg,
       raises=SINGULAR)
    fn(kernels.omega_kernel, "kernels.omega_kernel", pkg, raises=SINGULAR)
    fn(kernels.action_jacobian, "kernels.action_jacobian", pkg)
    fn(special.hyp2f1, "special.hyp2f1", pkg)
    for name in ("dbar_jacobian", "xi_top", "laplace_scalar", "star01"):
        fn(getattr(calculus, name), f"calculus.{name}", pkg)
    for name in ("eval_omega", "eval_Omega"):
        fn(getattr(series, name), "series.eval", pkg, on_result=_add_count)
    for name in ("tube_boundary_integral", "cycle_integral_C",
                 "shell_stokes", "restrict_samples"):
        fn(getattr(cycles, name), f"cycles.{name}", pkg, raises=QUADRATURE)
    tracer.patch_method(cycles.CycleChart, "create", "cycles.CycleChart.create")
    tracer.patch_method(cycles.CycleChart, "model_z",
                        "cycles.CycleChart.model_z")


# layers reported with their call count and self time
CALLS_AND_SELF = (
    "quadratic.Isometry", "domain.act", "kernels.omega_kernel",
    "kernels.action_jacobian", "special.hyp2f1", "calculus.dbar_jacobian",
    "calculus.xi_top", "calculus.laplace_scalar", "calculus.star01",
    "series.eval", "cycles.cycle_integral_C", "cycles.shell_stokes",
    "cycles.CycleChart.model_z", "workload.field",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _span(summary: dict, name: str) -> dict:
    return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})


def metrics(summary: dict, counters, setup_summary: dict, ops: int,
            untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer metrics of the traced operations; the set-up is traced
    separately and contributes the chart and isometry figures of set-up."""
    def span(name):
        return _span(summary, name)

    out: dict[str, tuple[float, str]] = {}
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = (span(name)["calls"], "count")
        out[f"{name}.self_s"] = (span(name)["self_s"], "s")

    enum = span("quadratic.enumerate_majorant")
    kept = counters["quadratic.enumerate_majorant.kept"]
    visited = counters["quadratic.enumerate_majorant.visited"]
    out["quadratic.enumerate_majorant.calls"] = (enum["calls"], "count")
    out["quadratic.enumerate_majorant.self_s"] = (enum["self_s"], "s")
    out["quadratic.enumerate_majorant.kept"] = (kept, "count")
    out["quadratic.enumerate_majorant.visited"] = (visited, "count")
    out["quadratic.enumerate_majorant.kept_per_visited"] = (
        _ratio(kept, visited), "ratio")
    out["quadratic.enumerate_majorant.s_per_kept"] = (
        _ratio(enum["total_s"], kept), "s")

    point = span("domain.DomainPoint")
    out["domain.DomainPoint.constructed"] = (point["calls"], "count")
    out["domain.DomainPoint.self_s"] = (point["self_s"], "s")
    out["domain.majorant_at.self_s"] = (span("domain.majorant_at")["self_s"],
                                        "s")

    pt = span("kernels.p_tilde_components")
    out["kernels.p_tilde_components.calls"] = (pt["calls"], "count")
    out["kernels.p_tilde_components.self_s"] = (pt["self_s"], "s")
    out["kernels.p_tilde_components.s_per_call"] = (
        _ratio(pt["total_s"], pt["calls"]), "s")

    terms = counters["series.terms"]
    out["series.terms"] = (terms, "count")
    out["series.terms_per_s"] = (
        _ratio(terms, span("series.eval")["total_s"]), "1/s")

    tube = span("cycles.tube_boundary_integral")
    nodes = counters["cycles.tube_boundary_integral.form_evals"]
    out["cycles.tube_boundary_integral.calls"] = (tube["calls"], "count")
    out["cycles.tube_boundary_integral.self_s"] = (tube["self_s"], "s")
    out["cycles.tube_boundary_integral.form_evals"] = (nodes, "count")
    out["cycles.tube_boundary_integral.s_per_node"] = (
        _ratio(tube["total_s"], nodes), "s")
    out["cycles.cycle_integral_C.h_evals"] = (
        counters["cycles.cycle_integral_C.h_evals"], "count")

    fib = span("cycles.restrict_samples")
    samples = counters["cycles.restrict_samples.fiber_samples"]
    out["cycles.restrict_samples.calls"] = (fib["calls"], "count")
    out["cycles.restrict_samples.self_s"] = (fib["self_s"], "s")
    out["cycles.restrict_samples.fiber_samples"] = (samples, "count")
    out["cycles.restrict_samples.s_per_sample"] = (
        _ratio(fib["total_s"], samples), "s")

    out["cycles.CycleChart.create.self_s"] = (
        _span(setup_summary, "cycles.CycleChart.create")["self_s"], "s")
    out["setup.quadratic.Isometry.self_s"] = (
        _span(setup_summary, "quadratic.Isometry")["self_s"], "s")
    out["setup.wall_s"] = (_span(setup_summary, "setup")["total_s"], "s")
    out["cycles.quadrature_errors"] = (counters["cycles.quadrature_errors"],
                                       "count")
    out["kernels.singular"] = (counters["kernels.singular"], "count")

    op_spans = span("op")
    out["trace.ops"] = (ops, "count")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    out["trace.overhead_frac"] = (
        _ratio(traced_wall - untraced_wall, untraced_wall), "ratio")
    out["trace.uncovered_s"] = (op_spans["self_s"], "s")
    out["trace.uncovered_frac"] = (
        _ratio(op_spans["self_s"], op_spans["total_s"]), "ratio")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in out.items()}


def print_table(summary: dict) -> None:
    """Layers by self time, with their share of the operations' time."""
    ops_total = summary.get("op", {}).get("total_s", 0.0)
    rows = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])
    print(f"layer {'name':<34} {'calls':>9} {'self_s':>10} {'share':>7}")
    for name, row in rows:
        if not row["calls"]:
            continue
        share = _ratio(row["self_s"], ops_total)
        print(f"layer {name:<34} {row['calls']:>9} {row['self_s']:>10.4f} "
              f"{share:>7.1%}")
