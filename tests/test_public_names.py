"""Every public name, and every name the benchmark reaches by attribute,
resolves.  ``perfbench/spans.py`` wraps the functions in its ``TARGETS`` by
attribute and ``perfbench/harness.py`` calls a few ``cli`` and ``Scenario``
names directly, so removing or renaming one of them breaks the benchmark
without breaking any other test."""

import importlib.util
import sys
from pathlib import Path

import pytest

import tcsim
from tcsim import analysis, cli, oracle, scenario, tc

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# the cli names perfbench/harness.py calls or reads
HARNESS_CLI_NAMES = ("closed_series", "oracle_series", "csv_lines", "write_text", "main", "EXIT_OK")


@pytest.mark.parametrize("module", [tcsim, tc, oracle, analysis, scenario], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_every_benchmark_span_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up there
    spec.loader.exec_module(spans)  # defines TARGETS; installs nothing
    assert spans.TARGETS
    missing = [(owner, attr) for owner, attr, _ in spans.TARGETS if not callable(getattr(owner, attr, None))]
    assert not missing


def test_names_the_benchmark_harness_calls_resolve():
    assert all(hasattr(cli, name) for name in HARNESS_CLI_NAMES)
    assert callable(scenario.Scenario.effective_n_max)
    assert callable(scenario.Scenario.oscillator_components)
