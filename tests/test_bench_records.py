"""The committed benchmark records (``BENCH_*.json`` at the repository root)
name only workloads and end-to-end metrics that ``BENCHMARK.json`` defines."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_a_benchmark_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_benchmark_record_names_only_defined_workloads_and_metrics(path):
    benchmark = _load(ROOT / "BENCHMARK.json")
    workloads = {workload["name"] for workload in benchmark["workloads"]}
    metrics = {metric["name"] for metric in benchmark["end_to_end"]}
    runs = _load(path)["runs"]
    assert runs
    for run in runs:
        where = (run["workload"], run["seed"], run["side"])
        assert run["workload"] in workloads, where
        assert run["trace"] == 0, where
        assert run["metrics"] and set(run["metrics"]) <= metrics, where
        assert all(math.isfinite(value) for value in run["metrics"].values()), where
