"""Self-tests of the benchmark itself: python3 -m pytest perfbench -q

They run short passes of the real workloads, so they take about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_benchmark_json_matches_emitted_names():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert e2e == metrics.END_TO_END
    assert layer == metrics.PER_LAYER
    names = [w["name"] for w in doc["workloads"]] + list(e2e) + list(layer)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in list(e2e.values()) + list(layer.values()):
        assert UNIT.fullmatch(unit), unit


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_unit(trace):
    proc = _bench("--workload", "recon", "--seed", "5", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


def _worker(tmp_path: Path, workload: str, trace: int) -> dict:
    """One worker pass at --seconds 0, which runs the case cycle once."""
    result = tmp_path / f"{workload}-{trace}.json"
    workdir = tmp_path / f"work-{workload}-{trace}"
    workdir.mkdir()
    subprocess.run(
        [
            sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workdir", str(workdir),
            "--workload", workload, "--seed", "3", "--mode", "run", "--trace", str(trace),
            "--result", str(result),
        ],
        check=True, capture_output=True, timeout=170,
    )
    return json.loads(result.read_text())


@pytest.mark.parametrize("workload,ops", [("recon", 36), ("squeezed", 9), ("driven", 6), ("cli", 9)])
def test_traced_and_untraced_agree_on_checks(tmp_path, workload, ops):
    plain = _worker(tmp_path, workload, 0)
    traced = _worker(tmp_path, workload, 1)
    assert len(plain["failures"]) == len(traced["failures"]) == ops
    assert plain["failures"] == traced["failures"]
    assert traced["trace"]["n_spans"] > 0


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "recon", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_tail_has_ten_ops_beyond():
    value, pct, n = metrics.tail([float(i) for i in range(100)])
    assert (value, n) == (89.0, 100) and sum(1 for i in range(100) if i > value) == 10
    assert pct == pytest.approx(90.0)


def test_tracer_self_time_and_uninstall():
    mod = types.ModuleType("toy")
    exec("def inner():\n    return 1\n\ndef outer():\n    return inner() + inner()\n", mod.__dict__)
    outer, inner = mod.outer, mod.inner
    tracer = Tracer()
    tracer.install({"toy": mod})
    assert mod.outer() == 2
    tracer.uninstall()
    assert mod.outer is outer and mod.inner is inner
    agg = tracer.aggregate()
    o, i = agg["spans"]["toy.outer"], agg["spans"]["toy.inner"]
    assert (o["calls"], i["calls"]) == (1, 2)
    assert o["total_ns"] == agg["top_level_ns"]
    assert o["self_ns"] == o["total_ns"] - i["total_ns"]
