"""One workload process: set-up, then a closed loop with one caller.

Started by run.py in a fresh interpreter. It imports the program, builds the
inputs and runs one untimed warm-up op, then prints READY; run.py times set-up
from process start to that line. In ``--mode run`` it then repeats the
workload's case cycle --seconds / NOMINAL_CYCLE_S times (at least once),
checks every output outside the timed region, and writes a JSON record to
``--result``.
With ``--trace 1`` it records spans around the public ionkerr functions.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from spans import LAYERS, Tracer, dressed_cache_counts

HERE = Path(__file__).resolve().parent


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded in this process."""
    import ctypes

    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1]})
    except OSError:
        return out
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # loads scipy's own BLAS so its thread count is read too

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--result")
    args = ap.parse_args()

    root = Path(args.root)
    src = root / "src"
    workdir = Path(args.workdir)
    is_cli = args.workload == "cli"
    if is_cli:
        from cliwork import Cli

        launcher = [sys.executable, str(HERE / "cli_traced.py")] if args.trace else None
        wl = Cli(args.seed, workdir, src, launcher)
    else:
        sys.path.insert(0, str(src))
        from inproc import WORKLOADS

        wl = WORKLOADS[args.workload](args.seed, workdir)

    warm = wl.warmup()
    warm_out = wl.run_op(warm)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    wl.check(warm, warm_out)  # records the cli's first CSVs; not counted

    tracer = None
    cache0 = None
    if args.trace:
        tracer = Tracer()
        if not is_cli:
            tracer.install({layer: importlib.import_module(f"ionkerr.{layer}") for layer in LAYERS})
            cache0 = dressed_cache_counts(importlib.import_module("ionkerr.dynamics"))

    latencies, failures, case_ids = [], [], []
    cpu_s = 0.0
    spans_file = workdir / "op_spans.json"
    n_cycles = max(1, round(args.seconds / wl.NOMINAL_CYCLE_S))
    for k in range(n_cycles):
        for case in wl.cycle(k):
            extra = {}
            if tracer is not None:
                tracer.current_op = len(latencies)
                tracer.enabled = True
                if is_cli:
                    extra = {"launcher_env": {"PERFBENCH_SPANS": str(spans_file)}}
            c0 = _cpu()
            ts = time.perf_counter()
            try:
                out, err = wl.run_op(case, **extra), None
            except Exception as exc:  # an op that raises is a failed op, not a benchmark fault
                out, err = None, f"exception:{type(exc).__name__}"
            te = time.perf_counter()
            cpu_s += _cpu() - c0
            latencies.append(te - ts)
            if tracer is not None:
                tracer.enabled = False
                if is_cli and spans_file.exists():
                    tracer.absorb(json.loads(spans_file.read_text()), len(latencies) - 1)
                    spans_file.unlink()
            failures.append([err] if err else wl.check(case, out))
            case_ids.append(case[0] if is_cli else case["id"])

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF)
    record = {
        "latencies": latencies,
        "failures": failures,
        "case_ids": case_ids,
        "cpu_s": cpu_s,
        "peak_rss_kib": usage.ru_maxrss,
        "env": environment(),
    }
    if tracer is not None:
        tracer.uninstall()
        if cache0 is not None:
            cache1 = dressed_cache_counts(importlib.import_module("ionkerr.dynamics"))
            tracer.counters["dressed_cache.hits"] += cache1[0] - cache0[0]
            tracer.counters["dressed_cache.misses"] += cache1[1] - cache0[1]
        agg = tracer.aggregate()
        record["trace"] = {**agg, "counters": dict(tracer.counters)}
        trace_dir = root / ".perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        blas = os.environ.get("OPENBLAS_NUM_THREADS", "default")
        with gzip.open(trace_dir / f"{args.workload}-seed{args.seed}-blas{blas}.json.gz", "wt") as fh:
            json.dump(tracer.dump(), fh)
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
