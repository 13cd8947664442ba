"""Tests of the benchmark itself, on the smoke size of each workload.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from spans import Tracer, self_times, unit_totals  # noqa: E402
from workloads import check_output, make  # noqa: E402


def _run(root, workload, trace, seed=0):
    proc = subprocess.run(
        [
            sys.executable, str(root / "bench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
            "--size", "smoke",
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


def _result(proc):
    return json.loads(proc.stdout.splitlines()[-1])


def _declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    record = ROOT / ".bench_out" / "results" / f"{workload}-smoke-seed0-trace{trace}.json"
    with open(record, encoding="utf-8") as fh:
        units = len(json.load(fh)["unit_walls_s"])
    # whole rounds only: every dataset is clustered equally often
    round_units = make(workload, "smoke", 0).round_units
    assert units >= round_units and units % round_units == 0


def test_declared_metrics_match_the_runner():
    doc = _declared()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def test_quality_and_counts_repeat_for_a_fixed_seed():
    first = _result(_run(ROOT, "large-n", 1, seed=5))["metrics"]
    second = _result(_run(ROOT, "large-n", 1, seed=5))["metrics"]
    for name in ("landmarks.flat_calls", "landmarks.scales", "landmarks.neighborhood_rows",
                 "linalg.kmeans_inertia", "kernels.embed_mb", "rate_min"):
        assert first[name] == second[name]
    a = _result(_run(ROOT, "subspace-ref", 0, seed=5))["metrics"]
    b = _result(_run(ROOT, "subspace-ref", 0, seed=5))["metrics"]
    assert a["rate"] == b["rate"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "subspace-ref", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_check_output_flags_bad_results():
    good = check_output([0, 1, 1], [1.0, 0.5], 3, 2)
    assert good == []
    assert check_output([0, 1], [1.0, 0.5], 3, 2)  # wrong count
    assert check_output([0, 2, 1], [1.0, 0.5], 3, 2)  # label out of range
    assert check_output([0, -1, 1], [1.0, 0.5], 3, 2)
    assert check_output([0, 1, 1], [1.0, float("nan")], 3, 2)
    assert check_output([0, 1, 1], [0.5, 1.0], 3, 2)  # ascending


def test_smoke_sizes_are_small():
    for name in run.WORKLOADS:
        assert make(name, "smoke", 0).n < make(name, "full", 0).n / 5


def test_self_time_subtracts_children():
    tracer = Tracer(origin=0.0)
    tracer.unit = "u"
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    outer["start"], outer["end"] = 0.0, 3.0
    inner["start"], inner["end"] = 1.0, 2.0
    assert inner["parent"] == outer["id"]
    assert self_times(tracer.spans) == {"outer": 2.0, "inner": 1.0}
    assert unit_totals(tracer.spans, "u") == {"outer": 3.0, "inner": 1.0}


def test_memory_span_records_peak():
    tracer = Tracer()
    with tracer.span("alloc", memory=True) as rec:
        block = bytearray(4 * 2**20)
    assert rec["peak_bytes"] >= len(block)
