"""The scenario documents and the library example shown in README.md and in
the `tcsim.scenario` docstring still parse and run as documented, the exit
codes README.md and the `tcsim.cli` docstring list are the CLI's, every
test the documents cite still exists, and every class name README.md quotes
is exported."""

import contextlib
import io
import re
import textwrap
from pathlib import Path

import tcsim
import tcsim.cli
import tcsim.errors
import tcsim.scenario
from tcsim.scenario import parse_scenario

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _fenced(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


def test_readme_scenario_document_parses():
    [document] = _fenced("ini")
    sc = parse_scenario(document)
    assert (sc.kind, sc.params, sc.environment.p) == ("binomial", (("M", 11), ("q", 0.95)), 0.5)
    assert (sc.oracle_enabled, sc.oracle_omega, sc.effective_n_max()) == (True, 0.0, 13)


def test_readme_scenario_document_runs_to_a_csv_of_percent_formatted_fields(tmp_path):
    # four columns with the oracle's, which no pinned digest covers
    [document] = _fenced("ini")
    (tmp_path / "readme.ini").write_text(document, encoding="utf-8")
    assert tcsim.cli.main(["run", str(tmp_path / "readme.ini"), "--out", str(tmp_path / "readme.csv")]) == 0
    sc = parse_scenario(document, label=str(tmp_path / "readme.ini"))
    closed, checked = tcsim.cli.closed_series(sc), tcsim.cli.oracle_series(sc)
    rows = zip(closed.times, closed.values, checked.values, abs(closed.values - checked.values))
    expected = [f"# {entry}" for entry in sc.to_lines()] + ["t,zeta,zeta_oracle,abs_err"]
    expected += ["%.17g,%.17g,%.17g,%.17g" % row for row in rows]
    assert (tmp_path / "readme.csv").read_bytes() == "".join(f"{line}\n" for line in expected).encode()


def test_module_docstring_scenario_document_parses():
    doc = tcsim.scenario.__doc__
    example = doc[doc.index("::\n") + 3:]
    document = textwrap.dedent(example[: re.search(r"\n\S", example).start()])
    sc = parse_scenario(document)
    assert (sc.kind, sc.params, sc.environment.p, sc.grid.n_points) == ("number", (("N", 1),), 0.5, 3001)
    assert (sc.oracle_enabled, sc.oracle_omega, sc.effective_n_max()) == (True, 0.0, 3)


def test_readme_library_example_runs_to_its_printed_errors():
    [example] = _fenced("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {})
    errors = [float(line) for line in out.getvalue().split()]
    assert len(errors) == 2
    assert all(err <= 1e-12 for err in errors)


def _listed_exit_codes(text):
    [sentence] = re.findall(r"Exit codes:(.*?)\.", text, flags=re.DOTALL)
    return sorted(int(code) for code in re.findall(r"\b\d+\b", sentence))


def test_documented_exit_codes_are_the_cli_exit_codes():
    codes = sorted(value for name, value in vars(tcsim.cli).items() if name.startswith("EXIT_"))
    assert _listed_exit_codes(README) == codes
    assert _listed_exit_codes(tcsim.cli.__doc__) == codes


def test_every_test_the_documents_cite_is_defined():
    defined = {
        name
        for path in (ROOT / "tests").glob("*.py")
        for name in re.findall(r"^def (test_\w+)", path.read_text(encoding="utf-8"), flags=re.MULTILINE)
    }
    for document in ("README.md", "RESOLVED_EQUATIONS.md"):
        text = (ROOT / document).read_text(encoding="utf-8")
        cited = set(re.findall(r"\b(test_\w+)\b(?!\.py)", text))
        assert cited - defined == set(), document


def test_every_class_name_the_readme_quotes_is_exported():
    # backticked CamelCase names, alone or ahead of an attribute; all-caps
    # words such as PASS are not class names
    prose = re.sub(r"^```.*?^```", "", README, flags=re.MULTILINE | re.DOTALL)
    quoted = set(re.findall(r"`([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)(?:\.\w+)*`", prose))
    assert quoted
    missing = {name for name in quoted if not hasattr(tcsim, name) and not hasattr(tcsim.errors, name)}
    assert missing == set()
