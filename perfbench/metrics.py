"""Metric names, units and the arithmetic that turns a pass into metrics.

BENCHMARK.json lists the same names; test_perfbench.py checks that they agree.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "failed_frac": "1",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

CLI_OPS = ("modes", "exchange", "crossing", "shift", "scan", "fit_thermal", "fit_free", "shots", "walk")

# Span-derived metrics are per op ("ms/op", "count/op") unless the unit says
# otherwise. A function's ".ms" is its inclusive time (callees included), so it
# stays comparable when a later change moves work between its callees; a
# layer's ".self_ms" is self time.
_FUNCTION_METRICS = {
    "trap.mode_frequencies.ms": "ms/op",
    "trap.mode_frequencies.calls": "count/op",
    "fock.eigh.ms": "ms/op",
    "fock.eigh.calls": "count/op",
    "dynamics.dispersive_shift_table.ms": "ms/op",
    "dynamics.dispersive_shift_table.calls": "count/op",
    "dynamics.crossing_map.ms": "ms/op",
    "dynamics.exchange_trace.ms": "ms/op",
    "states.family_populations.ms": "ms/op",
    "states.family_populations.calls": "count/op",
    "states.prepare.ms": "ms/op",
    "states.random_walk_thermal.ms": "ms/op",
    "spectra.model_spectrum.ms": "ms/op",
    "spectra.add_shot_noise.ms": "ms/op",
    "fitting.fit_free_distribution.ms": "ms/op",
    "fitting.fit_parametric.ms": "ms/op",
    "measure.single_shot.calls": "count/op",
}

LAYER_SELF = ("trap", "fock", "dynamics", "states", "spectra", "fitting", "measure", "cli", "import", "unspanned")

PER_LAYER_BASE = {
    **_FUNCTION_METRICS,
    "dynamics.dressed_cache_hit_ratio": "1",
    "spectra.driven_scan.ms_per_point": "ms/point",
    "spectra.driven_scan.eigh_flops_computed": "flop/op",
    "fitting.fit_free_distribution.iterations": "count/fit",
    "fitting.fit_parametric.nfev": "count/fit",
    "fitting.converged_ratio": "1",
    "measure.single_shot.us": "us/call",
    "cli.import_ms": "ms",
    "cli.import.scipy_optimize_ms": "ms",
    **{f"cli.{op}.wall_ms": "ms" for op in CLI_OPS},
    **{f"{layer}.self_ms": "ms/op" for layer in LAYER_SELF},
    "proc.cpu_wall_ratio": "1",
}
BLAS1 = ".blas1"
PER_LAYER = {
    **PER_LAYER_BASE,
    **{name + BLAS1: unit for name, unit in PER_LAYER_BASE.items()},
    "trace.overhead_frac": "1",
}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 ops beyond it: (value, percentile, n).
    With 10 ops or fewer no percentile qualifies, and the maximum is reported."""
    xs = sorted(latencies)
    n = len(xs)
    k = n - 11 if n > 10 else n - 1
    return xs[k], 100.0 * (k + 1) / n, n


def by_case(run: dict) -> dict:
    """Latencies grouped by case."""
    groups = defaultdict(list)
    for case_id, lat in zip(run["case_ids"], run["latencies"]):
        groups[case_id].append(lat)
    return groups


def ops_per_s(run: dict) -> float:
    """Attempted ops per second of op wall time. With one caller in a closed
    loop the ops run back to back, so this is the loop's throughput; the
    fixed op count keeps the case mix the same from run to run."""
    return len(run["latencies"]) / sum(run["latencies"])


def end_to_end(run: dict, setup_times: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics of one untraced pass, plus the tail's percentile and count."""
    lat = run["latencies"]
    tail_value, pct, n = tail(lat)
    values = {
        "ops_per_s": ops_per_s(run),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_value,
        "failed_frac": sum(1 for f in run["failures"] if f) / len(lat),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": run["peak_rss_kib"] / 1024.0,
    }
    return values, {"op_tail_percentile": pct, "op_tail_samples": n}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(run: dict, imports: dict) -> dict:
    """Per-layer metrics of one traced pass (see NOTES.md for definitions)."""
    n_ops = len(run["latencies"])
    spans = run["trace"]["spans"]
    counters = run["trace"]["counters"]

    def total_ms(name):
        return spans.get(name, {}).get("total_ns", 0) / 1e6

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    out = {}
    for metric in _FUNCTION_METRICS:
        fn, kind = metric.rsplit(".", 1)
        out[metric] = (total_ms(fn) if kind == "ms" else calls(fn)) / n_ops
    hits = counters.get("dressed_cache.hits", 0)
    out["dynamics.dressed_cache_hit_ratio"] = _ratio(hits, hits + counters.get("dressed_cache.misses", 0))
    out["spectra.driven_scan.ms_per_point"] = _ratio(
        total_ms("spectra.driven_scan"), counters.get("driven_scan.points", 0)
    )
    out["spectra.driven_scan.eigh_flops_computed"] = counters.get("driven_scan.eigh_flops", 0) / n_ops
    out["fitting.fit_free_distribution.iterations"] = _ratio(
        counters.get("fit_free.iterations", 0), counters.get("fit_free.fits", 0)
    )
    out["fitting.fit_parametric.nfev"] = _ratio(
        counters.get("fit_parametric.iterations", 0), counters.get("fit_parametric.fits", 0)
    )
    fits = counters.get("fit_free.fits", 0) + counters.get("fit_parametric.fits", 0)
    converged = counters.get("fit_free.converged", 0) + counters.get("fit_parametric.converged", 0)
    out["fitting.converged_ratio"] = _ratio(converged, fits)
    out["measure.single_shot.us"] = _ratio(1e3 * total_ms("measure.single_shot"), calls("measure.single_shot"))
    out["cli.import_ms"] = imports["import_ms"]
    out["cli.import.scipy_optimize_ms"] = imports["scipy_optimize_ms"]
    groups = by_case(run)
    for op in CLI_OPS:
        lat = groups.get(op)
        out[f"cli.{op}.wall_ms"] = 1e3 * statistics.median(lat) if lat else 0.0
    layer_ns = dict.fromkeys(LAYER_SELF, 0)
    for name, s in spans.items():
        layer = name.split(".", 1)[0]
        layer_ns[layer if layer in layer_ns else "unspanned"] += s["self_ns"]
    layer_ns["unspanned"] += int(1e9 * sum(run["latencies"])) - run["trace"]["top_level_ns"]
    for layer, ns in layer_ns.items():
        out[f"{layer}.self_ms"] = ns / 1e6 / n_ops
    out["proc.cpu_wall_ratio"] = run["cpu_s"] / sum(run["latencies"])
    return out
