"""Smoke tests of the benchmark itself.

    python3 -m pytest benchmark

Each test but the speed-factor one runs the benchmark command on a
minimal operation list.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH_DIR))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str) -> tuple[dict, str]:
    done = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), done.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_minimal_run_prints_every_metric(workload, trace):
    result, _ = run_bench("--workload", workload, "--seed", "1",
                          "--trace", str(trace), "--limit", "1")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_perturbed_reference_fails(tmp_path):
    reference = json.loads((BENCH_DIR / "reference" / "series.json")
                           .read_text())
    for entry in reference["entries"].values():
        entry["output"]["count"] += 1
    path = tmp_path / "series.json"
    path.write_text(json.dumps(reference))
    result, _ = run_bench("--workload", "series", "--seed", "1",
                          "--limit", "2", "--reference", str(path))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 2


@pytest.mark.parametrize("workload,limit", [("series", 3), ("pointwise", 20)])
def test_traced_counts_repeat_exactly(workload, limit):
    def counts():
        result, _ = run_bench("--workload", workload, "--seed", "2",
                              "--trace", "1", "--limit", str(limit))
        return {name: m["value"] for name, m in result["metrics"].items()
                if m["unit"] == "count"}

    first = counts()
    assert any(first.values())
    assert counts() == first


def test_speed_factor_is_mean_unit_speed_nearby():
    from speed import REFERENCE_UNIT_S, Speed

    speed = Speed()
    # ten units at the reference speed, then ten at twice that speed
    speed.units = [REFERENCE_UNIT_S] * 10 + [REFERENCE_UNIT_S / 2] * 10
    speed.stamps = [0.1 * i for i in range(20)]
    short_slow, short_fast, long_both = speed.factors([0.3, 1.5, 0.0],
                                                      [0.01, 0.01, 2.0])
    assert short_slow == pytest.approx(1.0)
    assert short_fast == pytest.approx(2.0)
    assert long_both == pytest.approx(1.5)
