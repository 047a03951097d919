"""Per-layer metrics of a traced run: which spans and probes they come
from, and the checks that the trace itself is sound. See README.md for the
metric list and the end-to-end metric each one should move."""

from __future__ import annotations

import numpy as np

import tracer as tracing


def observers():
    """`observer_for(name)` for Tracer.install: probes that read the
    arguments or result of a few calls."""

    def rational_roots(t, args, kwargs, result):
        p = args[0] if args else kwargs["p"]
        bits = max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in p.coeffs), default=0)
        t.raise_max("polynomials.max_coeff_bits", bits)
        if result:
            t.bump("polynomials.rational_roots.hits")

    def residual_set(t, args, kwargs, result):
        if t.seen_before("residual_set", tuple(args) + tuple(sorted(kwargs.items()))):
            t.bump("fields.residual_set.repeats")

    def herm_eig(t, args, kwargs, result):
        m = np.asarray(args[0] if args else kwargs["a"])
        if t.seen_before("herm_eig", (m.shape, m.tobytes())):
            t.bump("linalg.herm_eig.repeats")

    def union(t, args, kwargs, result):
        bounds = set(result.points)
        for iv in result.intervals:
            bounds.add(iv.lo)
            bounds.add(iv.hi)
        t.raise_max("subsets.max_boundaries", len(bounds))

    def property_done(t, args, kwargs, result):
        t.new_scope()

    table = {
        "polynomials.rational_roots": rational_roots,
        "fields.residual_set": residual_set,
        "linalg.herm_eig": herm_eig,
        "subsets.SymbolicSubset.union": union,
    }

    def lookup(name: str):
        if name.startswith("properties.prop_"):
            return property_done
        return table.get(name)

    return lookup


def per_layer_names(property_names: list[str]) -> list[str]:
    names = []
    for layer in tracing.LAYERS:
        names += [f"{layer}.self_ms", f"{layer}.calls"]
    names += [
        "bench.self_ms",
        "polynomials.rational_roots.calls",
        "polynomials.rational_roots.ms",
        "polynomials.certify.calls",
        "polynomials.exact_zero_points.calls",
        "polynomials.max_coeff_bits",
        "polynomials.root_hit_frac",
        "rationals.orthogonal_projector.calls",
        "rationals.mat_rank.calls",
        "fields.residual_set.calls",
        "fields.residual_set.repeat_frac",
        "fields.total_defect_set.calls",
        "subsets.union.calls",
        "subsets.contains.calls",
        "subsets.max_boundaries",
        "sections.mul_scalar_section.calls",
        "linalg.herm_eig.calls",
        "linalg.herm_eig.repeat_frac",
        "algebra.calculus.calls",
        "algebra.closed_subideal.ms",
        "linalg.svd.calls",
        "modules.ideal_of_submodule.ms",
        "modules.span_basis.calls",
        "serialize.load_ms",
        "serialize.digest_ms",
        "generate.retry_frac",
        "properties.skipped_trials",
    ]
    names += [f"suite.{p}.ms" for p in property_names]
    names.append("trace_overhead_frac")
    return names


def unit_of(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def layer_metrics(tr: tracing.Tracer, table: tracing.SpanTable, gen_table: tracing.SpanTable,
                  prop_map: dict, skipped: int, overhead: float) -> dict:
    """Per-layer values of the traced loop; `gen_table` holds the spans of
    instance generation (the corpus set-up, or the suite loop itself)."""
    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in tracing.LAYERS:
        out[f"{layer}.self_ms"] = table.layer_self(layer) * 1000.0
        out[f"{layer}.calls"] = table.layer_calls(layer)
    out["bench.self_ms"] = table.layer_self("bench") * 1000.0
    rr = table.calls("polynomials.rational_roots")
    out["polynomials.rational_roots.calls"] = rr
    out["polynomials.rational_roots.ms"] = table.inclusive(lambda n: n == "polynomials.rational_roots") * 1000.0
    out["polynomials.certify.calls"] = table.calls("polynomials.certify_only_rational_roots")
    out["polynomials.exact_zero_points.calls"] = table.calls("polynomials.exact_zero_points")
    out["polynomials.max_coeff_bits"] = tr.stats.get("polynomials.max_coeff_bits", 0.0)
    out["polynomials.root_hit_frac"] = ratio(tr.stats.get("polynomials.rational_roots.hits", 0.0), rr)
    out["rationals.orthogonal_projector.calls"] = table.calls("rationals.orthogonal_projector")
    out["rationals.mat_rank.calls"] = table.calls("rationals.mat_rank")
    rs = table.calls("fields.residual_set")
    out["fields.residual_set.calls"] = rs
    out["fields.residual_set.repeat_frac"] = ratio(tr.stats.get("fields.residual_set.repeats", 0.0), rs)
    out["fields.total_defect_set.calls"] = table.calls("fields.total_defect_set")
    out["subsets.union.calls"] = table.calls("subsets.SymbolicSubset.union")
    out["subsets.contains.calls"] = table.calls("subsets.SymbolicSubset.contains")
    out["subsets.max_boundaries"] = tr.stats.get("subsets.max_boundaries", 0.0)
    out["sections.mul_scalar_section.calls"] = table.calls("sections.PiecewiseSection.mul_scalar_section")
    he = table.calls("linalg.herm_eig")
    out["linalg.herm_eig.calls"] = he
    out["linalg.herm_eig.repeat_frac"] = ratio(tr.stats.get("linalg.herm_eig.repeats", 0.0), he)
    out["algebra.calculus.calls"] = table.calls("algebra.calculus")
    out["algebra.closed_subideal.ms"] = table.inclusive(lambda n: n == "algebra.closed_subideal") * 1000.0
    out["linalg.svd.calls"] = tr.svd_calls
    out["modules.ideal_of_submodule.ms"] = table.inclusive(lambda n: n == "modules.ideal_of_submodule") * 1000.0
    out["modules.span_basis.calls"] = table.calls("modules.Submodule.span_basis")
    out["serialize.load_ms"] = table.inclusive(
        lambda n: n == "serialize.validate_instance" or (n.startswith("serialize.") and n.endswith("_from_json"))
    ) * 1000.0
    out["serialize.digest_ms"] = table.inclusive(lambda n: n == "serialize.digest") * 1000.0
    out["generate.retry_frac"] = ratio(
        gen_table.raised("generate._gen_field_attempt"), gen_table.calls("generate._gen_field_attempt")
    )
    out["properties.skipped_trials"] = skipped
    for fn_name, prop_name in prop_map.items():
        out[f"suite.{prop_name}.ms"] = table.inclusive(lambda n, f=f"properties.{fn_name}": n == f) * 1000.0
    out["trace_overhead_frac"] = overhead
    return out


def property_names(properties, generate) -> dict:
    """Function name -> property name, read from a zero-trial run of each."""
    return {prop.__name__: prop(generate.SplitMix64(0), 0).name for prop in properties.PROPERTIES}


def self_check(tr: tracing.Tracer, table: tracing.SpanTable, traced_wall: float, workload: str) -> list[str]:
    """Self times must add up to the traced wall time, the span stack must
    be empty, and the from-imported `fields.exact_zero_points` must have
    been traced (on the workloads that reach fields)."""
    problems = []
    layer_sum = sum(table.layer_self(layer) for layer in tracing.LAYERS)
    bench_self = table.layer_self("bench")
    if abs(layer_sum + bench_self - traced_wall) > 0.01 * traced_wall + 1e-3:
        problems.append(
            f"layer self times {layer_sum:.4f}s + benchmark loop {bench_self:.4f}s != traced wall {traced_wall:.4f}s"
        )
    if len(tr.stack) != 1:
        problems.append(f"span stack not empty after the traced run: depth {len(tr.stack) - 1}")
    if workload != "float_corpus" and table.calls_with_parent_layer("polynomials.exact_zero_points", "fields") == 0:
        problems.append("no fields -> exact_zero_points call was traced: from-import not covered")
    return problems


def install_check() -> list[str]:
    """The from-import binding in fields must be the traced wrapper."""
    import essmod.fields
    import essmod.polynomials

    problems = []
    for mod in (essmod.fields, essmod.polynomials):
        if not tracing.is_wrapped(mod.exact_zero_points):
            problems.append(f"{mod.__name__}.exact_zero_points is not wrapped")
    return problems
