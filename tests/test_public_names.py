"""Every public name, and every name the benchmark reaches by attribute,
resolves; the package root resolves its names on first access.  ``perfbench/spans.py`` wraps the functions in its ``TARGETS`` by
attribute and ``perfbench/harness.py`` calls a few ``cli`` and ``Scenario``
names directly, so removing or renaming one of them breaks the benchmark
without breaking any other test.  No module of the package reads another
module's private names, and ``tcsim.errors`` defines one exception class per
exit code."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import tcsim
from tcsim import analysis, cli, errors, oracle, scenario, tc

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


def test_the_errors_module_defines_one_class_per_exit_code():
    # ScenarioParseError exits 2 and ValidationError 3; every tcsim error is one of them
    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, BaseException)}
    assert defined == {"ValidationError", "ScenarioParseError"}


def test_dir_of_the_package_lists_every_exported_name():
    assert set(tcsim.__all__) <= set(dir(tcsim))


def test_an_unknown_package_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'tcsim' has no attribute 'no_such_name'"):
        tcsim.no_such_name  # noqa: B018


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from tcsim import *", namespace)
    assert set(tcsim.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(tcsim, name) for name in tcsim.__all__)


def _private_reads(path: Path, modules: set[str]) -> set[tuple[str, str, str]]:
    """(reader, owner, name) of each _-prefixed name that the module at
    ``path`` imports from, or reads as an attribute of, another tcsim module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {f"tcsim.{m}": m for m in modules}  # dotted expression -> module it names
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({a.asname: a.name.partition(".")[2] for a in node.names
                          if a.asname and a.name.startswith("tcsim.")})
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("tcsim")):
            base = ".".join(filter(None, ["tcsim" if node.level else None, node.module]))
            for alias in node.names:
                if base == "tcsim" and alias.name in modules:
                    bound[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    found.add((path.stem, base.partition(".")[2] or "__init__", alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.startswith("__"):
            owner = bound.get(ast.unparse(node.value))
            if owner is not None:
                found.add((path.stem, owner, node.attr))
    return {read for read in found if read[0] != read[1]}


def test_modules_read_no_other_private_names():
    # a private name read across modules couples them unseen: the name moves
    # to the module that reads it, or is made public
    package = Path(tcsim.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    reads = set().union(*(_private_reads(path, modules) for path in package.glob("*.py")))
    assert reads == set()
