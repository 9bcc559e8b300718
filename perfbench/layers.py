"""Which straus functions are timed as which layer, and the per-layer metrics.

The layer -> end-to-end metric -> workload mapping these metrics serve is
tabulated in README.md beside this file.
"""

from __future__ import annotations

from tracing import Tracer

PER_LAYER = (
    # name, unit, better
    ("sieve.primes_in_s", "s", "lower"),
    ("sieve.is_prime_s", "s", "lower"),
    ("sieve.is_prime_calls", "count", "lower"),
    ("enumeration.self_s", "s", "lower"),
    ("enumeration.solutions", "count", "lower"),
    ("enumeration.columns", "count", "lower"),
    ("enumeration.div_cache_entries", "count", "lower"),
    ("enumeration.div_cache_miss_ratio", "ratio", "lower"),
    ("enumeration.spf_entries", "count", "lower"),
    ("core.triple_s", "s", "lower"),
    ("core.triples", "count", "lower"),
    ("core.classify_s", "s", "lower"),
    ("core.classify_calls", "count", "lower"),
    ("core.envelope_rejections", "count", "lower"),
    ("stats.self_s", "s", "lower"),
    ("stats.emit_csv_s", "s", "lower"),
    ("stats.csv_bytes", "bytes", "lower"),
    ("verify.conj1_s", "s", "lower"),
    ("verify.conj2_s", "s", "lower"),
    ("verify.conj3_s", "s", "lower"),
    ("verify.conj5_s", "s", "lower"),
    ("verify.witness_scans", "count", "lower"),
    ("verify.witness_hit_ratio", "ratio", "higher"),
    ("verify.ledger_csv_s", "s", "lower"),
    ("construct.load_rules_s", "s", "lower"),
    ("construct.construct_s", "s", "lower"),
    ("construct.rule_hit_ratio", "ratio", "higher"),
    ("parallel.pmap_s", "s", "lower"),
    ("parallel.pmap_w1_s", "s", "lower"),
    ("parallel.efficiency", "ratio", "higher"),
    ("grid.build_s", "s", "lower"),
    ("grid.render_s", "s", "lower"),
    ("grid.cells", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("process.peak_rss_mb", "MB", "lower"),
)


def _enumeration_hooks(enumeration):
    def sizes():
        return (
            len(getattr(enumeration, "_div_sq_cache", ())),
            len(getattr(enumeration, "_spf", ())),
        )

    def on_start(args):
        return {"p": args[0], "cache0": sizes()[0], "last_x": None, "yields": 0}

    def on_yield(state, triple):
        state["last_x"] = triple.x
        state["yields"] += 1

    def on_end(tracer, state, exhausted):
        p, counts = state["p"], tracer.counts
        if exhausted:
            counts["columns"] += 3 * p // 4 - p // 4
        elif state["last_x"] is not None:
            counts["columns"] += state["last_x"] - p // 4
        counts["solutions"] += state["yields"]
        cache, spf = sizes()
        counts["div_cache_new"] += max(0, cache - state["cache0"])
        counts["div_cache_peak"] = max(counts["div_cache_peak"], cache)
        counts["spf_peak"] = max(counts["spf_peak"], spf)

    return on_start, on_yield, on_end


def _witness_hook(window):
    def on_result(tracer, args, report, seconds):
        if report is None:
            lo, hi = window(args[0])
            tracer.counts["witness_scans"] += hi - lo + 1
        else:
            tracer.counts["witness_scans"] += report.early_exit_scans
            tracer.counts["witness_hits"] += 1

    return on_result


def _count_hook(key, value):
    def on_result(tracer, args, result, seconds):
        tracer.counts[key] += value(result)

    return on_result


def trace_library(straus) -> Tracer:
    """A tracer with wrappers around every layer's public entry points."""
    t = Tracer()
    enum_mod, verify_mod = straus.enumeration, straus.verify
    wrapped = [
        ("sieve", straus.primes_in, {}),
        ("sieve", straus.is_prime, {}),
        ("enumeration", straus.enumerate_fast, {}),
        ("core", straus.Triple, {}),
        ("core", straus.classify, {}),
        ("stats", straus.range_summary, {}),
        ("stats", straus.emit_csv, {}),
        ("verify", straus.sweep, {}),
        ("verify", straus.write_ledger_csv, {}),
        ("verify", straus.find_conj3_witness,
         {"on_result": _witness_hook(verify_mod.conj3_window)}),
        ("verify", straus.find_conj5_witness,
         {"on_result": _witness_hook(verify_mod.conj5_window)}),
        ("construct", straus.load_rules, {}),
        ("construct", straus.match_rule, {}),
        ("construct", straus.construct_solution,
         {"on_result": _count_hook("constructed", lambda triple: 1)}),
        ("grid", straus.build_grid,
         {"on_result": _count_hook("cells", lambda g: g.x_max * g.y_max)}),
        ("grid", straus.render, {}),
        ("cli", straus.cli.main, {}),
    ]
    for layer, fn, options in wrapped:
        t.add(fn, t.wrap(layer, fn, **options))
    gen = straus.iter_solutions_fast
    t.add(gen, t.wrap_generator("enumeration", gen, *_enumeration_hooks(enum_mod)))
    return t


def trace_pmap(straus) -> Tracer:
    """A tracer around pmap alone; it adds one wrapper call per sweep."""
    t = Tracer()
    pmap = straus.parallel.pmap

    def on_result(tracer, args, result, seconds):
        tracer.counts["pmap_ok_s"] += seconds  # calls that raise are not comparable

    t.add(pmap, t.wrap("parallel", pmap, on_result=on_result))
    return t


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(traced: Tracer, traced_pass, ref: dict) -> dict:
    """Per-layer values from one traced pass, plus the scalars `ref` holds:
    untraced_s and traced_s (mean pass seconds), pmap_w1_s and pmap_w2_s,
    load_rules_s and peak_rss_mb."""
    total, own, n, c = traced.total, traced.self_time, traced.calls, traced.counts
    claim_s = traced_pass.extra.get("claim_s", {})
    w1, w2 = ref["pmap_w1_s"], ref["pmap_w2_s"]
    witness_s = {"conj3": total["verify.find_conj3_witness"],
                 "conj5": total["verify.find_conj5_witness"]}
    overhead = ref["traced_s"] - ref["untraced_s"]
    values = {
        "sieve.primes_in_s": total["sieve.primes_in"],
        "sieve.is_prime_s": total["sieve.is_prime"],
        "sieve.is_prime_calls": n["sieve.is_prime"],
        "enumeration.self_s": traced.layer_self["enumeration"],
        "enumeration.solutions": c["solutions"],
        "enumeration.columns": c["columns"],
        "enumeration.div_cache_entries": c["div_cache_peak"],
        "enumeration.div_cache_miss_ratio": _ratio(c["div_cache_new"], c["columns"]),
        "enumeration.spf_entries": c["spf_peak"],
        "core.triple_s": total["core.Triple"],
        "core.triples": n["core.Triple"],
        "core.classify_s": total["core.classify"],
        "core.classify_calls": n["core.classify"],
        "core.envelope_rejections": traced.errors["core.Triple", "OverflowError"],
        "stats.self_s": own["stats.range_summary"],
        "stats.emit_csv_s": total["stats.emit_csv"],
        "stats.csv_bytes": traced_pass.extra.get("csv_bytes", 0),
        "verify.conj1_s": claim_s.get("conj1", 0.0),
        "verify.conj2_s": claim_s.get("conj2", 0.0),
        "verify.conj3_s": claim_s.get("conj3-pattern", witness_s["conj3"]),
        "verify.conj5_s": claim_s.get("conj5-pattern", witness_s["conj5"]),
        "verify.witness_scans": c["witness_scans"],
        "verify.witness_hit_ratio": _ratio(c["witness_hits"], c["witness_scans"]),
        "verify.ledger_csv_s": total["verify.write_ledger_csv"],
        "construct.load_rules_s": ref["load_rules_s"],
        "construct.construct_s": total["construct.construct_solution"] + total["construct.match_rule"],
        "construct.rule_hit_ratio": _ratio(c["constructed"], n["construct.match_rule"]),
        "parallel.pmap_s": w2,
        "parallel.pmap_w1_s": w1,
        "parallel.efficiency": _ratio(w1, 2 * w2),
        "grid.build_s": total["grid.build_grid"],
        "grid.render_s": own["grid.render"],
        "grid.cells": c["cells"],
        "cli.self_s": own["cli.main"],
        "trace.overhead_s": overhead,
        "trace.overhead_pct": 100 * _ratio(overhead, ref["untraced_s"]),
        "process.peak_rss_mb": ref["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
