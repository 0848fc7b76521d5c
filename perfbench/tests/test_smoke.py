"""Smoke test of the benchmark itself, at the tiny size.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_script(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    proc = run_script(ROOT, "--workload", "presets", "--seed", "3", "--seconds", "0.1",
                      "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for metric in SPEC[section]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(line.startswith(f"{name} = ") and line.split()[3] == unit for line in lines), name


def test_wrong_reference_hash_counts_as_failed_op():
    refs = {**harness.load_refs(), "2a": "0" * 64}
    result = harness.run("presets", 3, 0.1, trace=False, size="tiny", refs=refs)
    failed = [op for op in result.ops if op.error is not None]
    assert not result.correct
    assert result.failed == len(failed) > 0
    assert {op.label for op in failed} == {"2a"}
    assert {op.kind for op in failed} == {"curve", "cli"}


def test_traced_run_spans_every_layer():
    seen = set()
    for workload in harness.WORKLOADS:
        result = harness.run(workload, 3, 0.1, trace=True, size="tiny")
        assert result.correct, [op.error for op in result.ops if op.error]
        seen |= {span.name for span in result.spans}
    assert set(spans.SPAN_NAMES) <= seen
    # the wrappers are gone once the run is over
    for owner, attr, _ in spans.TARGETS:
        assert not hasattr(getattr(owner, attr), "__wrapped__"), attr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_script(tmp_path, "--workload", "presets", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
