"""The committed benchmark records (``BENCH_*.json`` at the repository root)
name only workloads and metrics that ``BENCHMARK.json`` defines: end-to-end
metrics in ``--trace 0`` runs and per-layer metrics in ``--trace 1`` runs."""

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
    metrics = {trace: {metric["name"] for metric in benchmark[key]}
               for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    runs = _load(path)["runs"]
    assert runs
    for run in runs:
        where = (run["workload"], run["seed"], run["side"])
        assert run["workload"] in workloads, where
        assert run["trace"] in metrics, where
        assert run["metrics"] and set(run["metrics"]) <= metrics[run["trace"]], where
        assert all(math.isfinite(value) for value in run["metrics"].values()), where
