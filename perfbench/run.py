"""The ionkerr benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload recon --seed 1 --seconds 18 --trace 0

Run it from the root of a checkout. Each workload runs in a fresh worker
process (worker.py), a closed loop with one caller, and every op's output is
checked. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints
the per-layer metrics from traced passes at the default BLAS thread count
and at one thread (suffix ``.blas1``), plus ``trace.overhead_frac``. The last
line of stdout is one JSON object; a fuller record, with the environment,
goes to .perfbench/results/. NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import metrics
from provenance import git_commit, source_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("recon", "squeezed", "driven", "cli")
# Kept out of tuning: a claimed gain must also hold on this seed.
HELD_OUT_SEED = 7919
SETUP_REPS = 7
BLAS1_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0
# Failure classes of known program defects. They count in failed/failed_frac
# like any other failure; only a failure outside this list makes the run
# incorrect, so a new kind of wrong output cannot hide behind them.
KNOWN_DEFECTS = {
    "simplex": "free fit overshoots sum(p) <= 1 + 1e-9 (ROADMAP item 1)",
    "truncation": "driven scan at n_a <= 3 differs from n_a <= 6 (ROADMAP item 2)",
    "fit_p0_keyerror": "`fit --family thermal` without --p0 dies with KeyError",
}


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.passes = 0

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("benchmark exceeded its time limit")
        return left

    def worker(self, mode: str, seconds: float = 0.0, trace: int = 0, env: dict | None = None):
        """Start a worker; return (set-up seconds, result record or None)."""
        self.passes += 1
        result = self.workdir / f"result{self.passes}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--root", str(ROOT), "--workdir", str(self.workdir),
            "--workload", self.workload, "--seed", str(self.seed),
            "--mode", mode, "--seconds", str(seconds), "--trace", str(trace),
            "--result", str(result),
        ]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=dict(os.environ, **(env or {})))
        try:
            ready = None
            while ready is None:
                if not select.select([proc.stdout], [], [], self._remaining())[0]:
                    continue
                line = proc.stdout.readline()
                if not line:
                    raise BenchError(f"{self.workload} worker exited before set-up finished")
                if line.strip() == "READY":
                    ready = time.perf_counter() - t0
            code = proc.wait(timeout=self._remaining())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0:
            raise BenchError(f"{self.workload} worker exited with code {code}")
        if mode != "run":
            return ready, None
        return ready, json.loads(result.read_text())


def import_probe(env: dict | None) -> dict:
    """Fresh-interpreter import of ionkerr.cli: wall time (median of 3) and the
    cumulative time of scipy.optimize from ``-X importtime``."""
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    timed = "import time; t = time.perf_counter(); import ionkerr.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(3):
        out = subprocess.run([sys.executable, "-c", timed], env=env, capture_output=True, text=True, check=True)
        times.append(float(out.stdout.split()[-1]))
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import ionkerr.cli"],
        env=env, capture_output=True, text=True, check=True,
    )
    scipy_us = 0
    for line in out.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.optimize":
            scipy_us = int(parts[1])
    return {"import_ms": 1e3 * statistics.median(times), "scipy_optimize_ms": scipy_us / 1e3}


def _failure_counts(*records) -> Counter:
    counts = Counter()
    for rec in records:
        for classes in rec["failures"]:
            counts.update(classes)
    return counts


def _only_known(counts: Counter) -> bool:
    return all(c in KNOWN_DEFECTS for c in counts)


def run_untraced(runner: Runner, seconds: float) -> dict:
    # Half the set-ups run before the timed pass and half after it, so that
    # their median spans the whole run rather than one phase of a shared
    # host's speed, which drifts over tens of seconds.
    before = [runner.worker("setup")[0] for _ in range(SETUP_REPS // 2)]
    ready, rec = runner.worker("run", seconds=seconds)
    after = [runner.worker("setup")[0] for _ in range(SETUP_REPS - 1 - SETUP_REPS // 2)]
    setups = before + [ready] + after
    values, extra = metrics.end_to_end(rec, setups)
    counts = _failure_counts(rec)
    return {
        "metrics": values,
        "units": metrics.END_TO_END,
        "extra": {**extra, "setup_s_samples": setups},
        "records": [rec],
        "failure_counts": counts,
        "correct": _only_known(counts),
    }


def run_traced(runner: Runner, seconds: float) -> dict:
    share = max(seconds / 3.0, 1.0)
    _, plain = runner.worker("run", seconds=share)
    _, traced = runner.worker("run", seconds=share, trace=1)
    _, traced1 = runner.worker("run", seconds=share, trace=1, env=BLAS1_ENV)
    values = metrics.layer_metrics(traced, import_probe(None))
    values.update(
        {k + metrics.BLAS1: v for k, v in metrics.layer_metrics(traced1, import_probe(BLAS1_ENV)).items()}
    )
    values["trace.overhead_frac"] = 1.0 - metrics.ops_per_s(traced) / metrics.ops_per_s(plain)
    # The same seed gives the same op sequence, so the traced pass must reach
    # the same verdict as the untraced one on every op both ran.
    agree = all(a == b for a, b in zip(plain["failures"], traced["failures"]))
    counts = _failure_counts(plain, traced, traced1)
    return {
        "metrics": values,
        "units": metrics.PER_LAYER,
        "extra": {"checks_agree": agree, "spans": traced["trace"]["n_spans"], "env_blas1": traced1["env"]},
        "records": [plain, traced, traced1],
        "failure_counts": counts,
        "correct": agree and _only_known(counts),
    }


def report(args, out: dict) -> dict:
    recs = out["records"]
    attempted = sum(len(r["latencies"]) for r in recs)
    failed = sum(1 for r in recs for f in r["failures"] if f)
    env = recs[0]["env"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(ROOT),
        "source_digest": source_digest(SRC / "ionkerr"),
        "env": env,
        "metrics": {k: {"value": v, "unit": out["units"][k]} for k, v in out["metrics"].items()},
        "extra": out["extra"],
        "failure_counts": dict(out["failure_counts"]),
        "attempted": attempted,
        "failed": failed,
        "correct": out["correct"],
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, m in record["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    if args.trace == 0:
        ex = out["extra"]
        print(f"  op_tail_ms is p{ex['op_tail_percentile']:.1f} of {ex['op_tail_samples']} ops")
    for cls, n in sorted(out["failure_counts"].items()):
        print(f"  failures {cls}: {n} ({KNOWN_DEFECTS.get(cls, 'NOT a known defect')})")
    print(f"  env: {json.dumps(env, sort_keys=True)}")
    print(f"  commit={record['git_commit']} source={record['source_digest']} held_out_seed={HELD_OUT_SEED}")
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "ionkerr" / "cli.py").is_file():
        print(f"error: no ionkerr sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench" / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(args.workload, args.seed, workdir)
        out = (run_traced if args.trace else run_untraced)(runner, args.seconds)
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = report(args, out)
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
