"""Summarize sets of result records into one JSON document.

    python3 perfbench/summarize.py SET_DIR [SET_DIR ...] > perfbench/baseline.json

Each SET_DIR holds the records one set of runs left in .perfbench/results/
(default: that directory). For each set and workload: every end-to-end
metric's median, quartiles and quartile spread (IQR / median, as the
acceptance rule computes it) over the untraced runs, the seeds and failure
counts behind them, and the per-layer metrics of the traced run (the median
over traced runs, if several). With two or more sets, ``agreement`` gives
each later set's median relative to the first set's.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(records: list[dict]) -> dict:
    by_workload = defaultdict(lambda: {0: [], 1: []})
    for rec in records:
        by_workload[rec["workload"]][rec["trace"]].append(rec)
    summary = {}
    for workload, runs in sorted(by_workload.items()):
        entry = {"runs": len(runs[0]), "seeds": sorted(r["seed"] for r in runs[0])}
        e2e = {}
        for name in runs[0][0]["metrics"] if runs[0] else []:
            values = [r["metrics"][name]["value"] for r in runs[0]]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            median = statistics.median(values)
            e2e[name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "iqr_over_median": (q3 - q1) / median if median else None,
                "unit": runs[0][0]["metrics"][name]["unit"],
            }
        entry["end_to_end"] = e2e
        failures = defaultdict(int)
        for r in runs[0]:
            for cls, n in r["failure_counts"].items():
                failures[cls] += n
        entry["failure_counts"] = dict(failures)
        entry["attempted"] = sum(r["attempted"] for r in runs[0])
        if runs[1]:
            entry["per_layer_seeds"] = sorted(r["seed"] for r in runs[1])
            entry["per_layer"] = {
                name: statistics.median(r["metrics"][name]["value"] for r in runs[1])
                for name in runs[1][0]["metrics"]
            }
        summary[workload] = entry
    return summary


def main() -> int:
    dirs = [Path(d) for d in sys.argv[1:]] or [ROOT / ".perfbench" / "results"]
    sets = [[json.loads(p.read_text()) for p in sorted(d.glob("*.json"))] for d in dirs]
    if not all(sets):
        print("a set directory holds no result records", file=sys.stderr)
        return 1
    first = sets[0][0]
    summaries = [summarize(records) for records in sets]
    doc = {
        "git_commit": first["git_commit"],
        "source_digest": first["source_digest"],
        "seconds": first["seconds"],
        "held_out_seed": first["held_out_seed"],
        "env": first["env"],
        "sets": [{"name": d.name, "workloads": s} for d, s in zip(dirs, summaries)],
    }
    if len(summaries) > 1:
        doc["agreement"] = {
            f"{d.name}/{dirs[0].name}": {
                workload: {
                    name: m["median"] / summaries[0][workload]["end_to_end"][name]["median"] - 1.0
                    for name, m in entry["end_to_end"].items()
                    if summaries[0][workload]["end_to_end"][name]["median"]
                }
                for workload, entry in s.items()
            }
            for d, s in zip(dirs[1:], summaries[1:])
        }
    print(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
