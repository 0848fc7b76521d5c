"""Command-line front end.

Subcommands: ``run`` a scenario file, materialize a figure preset with
``figure``, cross-check closed form against brute force with
``oracle-check``, and inspect an emitted CSV with ``analyze``.

Exit codes: 0 ok, 2 parse/usage error, 3 validation error, 5 tolerance
failure.

The oracle, the analysis and the jc closed form are imported by the functions
that use them, so a process loads only the layers its subcommand runs.
"""

from __future__ import annotations

import argparse
import codecs
import math
import sys
from collections.abc import Iterable, Iterator
from contextlib import nullcontext, suppress
from pathlib import Path

import numpy as np

from . import tc
from .errors import ScenarioParseError, ValidationError
from .scenario import PRESET_IDS, Scenario, load_scenario, preset
from .series import TimeSeries
from .states import SystemConfig

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_TOLERANCE = 5


def _finite_float(text: str) -> float:
    """argparse type: a finite number; anything else is a usage error (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # not a number at all: reported below like nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite, non-negative number."""
    value = _finite_float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"tolerance {text!r} is negative")
    return value


def _int_at_least(least: int):
    """argparse type: an integer no smaller than ``least``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"{text!r} is less than {least}")
        return value

    return parse


def closed_series(scenario: Scenario) -> TimeSeries:
    """Closed-form entropy series for any scenario kind.

    Every oscillator preparation, pure or mixed, goes through the
    coefficient machinery over the scenario's weighted components.  The one
    exception is a vacuum/one-photon mixture with a decoupled environment:
    it routes through the dedicated two-frequency closed form, because the
    pinned preset-1 CSV bytes come from that form.  On preset 1 the general
    path differs from it by at most 2.9e-15, in the last bits of 2203 of
    the 3001 rows.
    """
    config = scenario.system_config()
    if scenario.kind == "mixture01" and config.couplings.lambda2 == 0.0:
        from . import jc
        times = config.grid.times()
        f = dict(scenario.params)["f"]
        return TimeSeries(times, jc.jc_mixture_entropy(f, config.couplings.lambda1, times))
    return tc.entropy_series(config)


def oracle_series(scenario: Scenario) -> TimeSeries:
    """Brute-force entropy series for any scenario kind."""
    from . import oracle
    return oracle.oracle_entropy_series(scenario.system_config(), omega=scenario.oracle_omega)


_CSV_BLOCK_ROWS = 4096  # rows per % operation, so the temporary table and tuple stay small


def _blocks(columns: list[np.ndarray], field: str, sep: str) -> Iterator[str]:
    """The rows of the equal-length ``columns``, each ``field``-formatted and comma-joined,
    as strings of ``_CSV_BLOCK_ROWS`` ``sep``-joined rows, one ``%`` operation each."""
    row = ",".join([field] * len(columns))
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        block = np.column_stack([column[start:start + _CSV_BLOCK_ROWS] for column in columns])
        yield sep.join([row] * len(block)) % tuple(block.ravel().tolist())


def csv_lines(scenario: Scenario, closed: TimeSeries, checked: TimeSeries | None) -> Iterator[str]:
    """``#`` scenario lines, the column header, then the ``%.17g`` rows (which read back to
    the same doubles) in strings of ``_CSV_BLOCK_ROWS`` newline-joined rows.  A generator:
    each block is formatted when it is asked for, so a caller that writes the lines as they
    come, as ``write_text`` does, holds one block of text at a time.  It is consumed once."""
    columns = {"t": closed.times, "zeta": closed.values}
    if checked is not None:
        columns.update(zeta_oracle=checked.values, abs_err=np.abs(closed.values - checked.values))
    for entry in scenario.to_lines():
        yield f"# {entry}"
    yield ",".join(columns)
    yield from _blocks(list(columns.values()), "%.17g", "\n")


def write_text(path: Path | None, lines: Iterable[str]) -> None:
    """Each of ``lines`` and a newline, written to ``path`` (stdout if None) as it arrives, then
    flushed; ``lines`` is consumed once, so a generator such as ``csv_lines`` is never held whole."""
    try:
        with nullcontext(sys.stdout) if path is None else path.open("w", encoding="utf-8") as f:
            for line in lines:
                f.write(line)
                f.write("\n")
            f.flush()
    except OSError as exc:
        if path is None:  # closed, with what it still buffers, so exit does not fail on it again
            with suppress(OSError):
                sys.stdout.close()
        raise ScenarioParseError(f"cannot write {'stdout' if path is None else path}: {exc}") from exc


def svg_lines(series: TimeSeries, title: str) -> Iterator[str]:
    """Minimal static SVG 1.1 line plot: one polyline plus labelled axes.  A generator,
    consumed once like ``csv_lines``; the polyline's points are formatted
    ``_CSV_BLOCK_ROWS`` points per ``%`` operation into its one ``points`` attribute."""
    width, height = 960, 540
    left, right, top, bottom = 70, 20, 30, 50
    plot_w = width - left - right
    plot_h = height - top - bottom
    t0, t1 = float(series.times[0]), float(series.times[-1])
    z0, z1 = 0.0, max(0.5, float(series.values.max()))

    def sx(t):
        return left + (t - t0) / (t1 - t0) * plot_w

    def sy(z):
        return top + (z1 - z) / (z1 - z0) * plot_h

    pts = " ".join(_blocks([sx(series.times), sy(series.values)], "%.2f", " "))
    # escaped by hand: xml.sax.saxutils would import urllib.request into every run
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    yield '<?xml version="1.0" encoding="UTF-8"?>'
    yield f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}">'
    yield f'<rect width="{width}" height="{height}" fill="white"/>'
    yield f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>'
    yield f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" stroke="black"/>'
    yield f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>'
    for t in np.linspace(t0, t1, 7):
        x = sx(t)
        yield f'<line x1="{x:.2f}" y1="{top + plot_h}" x2="{x:.2f}" y2="{top + plot_h + 5}" stroke="black"/>'
        yield f'<text x="{x:.2f}" y="{top + plot_h + 20}" text-anchor="middle" font-size="11">{t:g}</text>'
    for z in np.linspace(z0, z1, 6):
        y = sy(z)
        yield f'<line x1="{left - 5}" y1="{y:.2f}" x2="{left}" y2="{y:.2f}" stroke="black"/>'
        yield f'<text x="{left - 8}" y="{y + 4:.2f}" text-anchor="end" font-size="11">{z:g}</text>'
    yield f'<text x="{left + plot_w / 2:.0f}" y="{height - 10}" text-anchor="middle" font-size="13">t</text>'
    yield (f'<text x="18" y="{top + plot_h / 2:.0f}" text-anchor="middle" font-size="13" '
           f'transform="rotate(-90 18 {top + plot_h / 2:.0f})">zeta</text>')
    yield f'<polyline points="{pts}" fill="none" stroke="#1f5fa8" stroke-width="1"/>'
    yield "</svg>"


def _run_scenario(scenario: Scenario, out: Path | None, svg_path: Path | None, title: str) -> int:
    """Write the scenario's CSV to ``out`` (stdout if None), and its SVG plot
    to ``svg_path`` unless that is None."""
    closed = closed_series(scenario)
    checked = oracle_series(scenario) if scenario.oracle_enabled else None
    write_text(out, csv_lines(scenario, closed, checked))
    if svg_path is not None:
        write_text(svg_path, svg_lines(closed, title))
    return EXIT_OK


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    out = Path(args.out) if args.out else None
    if args.svg and out is None:
        raise ScenarioParseError("--svg requires --out")
    try:
        svg_path = out.with_suffix(".svg") if args.svg else None
    except ValueError as exc:  # no file name to put the suffix on, as in "."
        raise ScenarioParseError(f"cannot write {out}: {exc}") from exc
    if args.svg and svg_path == out:
        raise ScenarioParseError(f"--svg would write the plot over the CSV {out}")
    return _run_scenario(scenario, out, svg_path, title=f"scenario {args.scenario}")


def cmd_figure(args) -> int:
    scenario = preset(args.id, t_end=args.t_end, points=args.points)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioParseError(f"cannot write {out_dir}: {exc}") from exc
    out = out_dir / f"fig{scenario.label}.csv"
    svg_path = out_dir / f"fig{scenario.label}.svg" if args.svg else None
    _run_scenario(scenario, out, svg_path, title=f"figure {scenario.label}")
    write_text(None, [f"wrote {out}" + (f" and {svg_path}" if svg_path else "")])
    return EXIT_OK


def _error_model(config: SystemConfig) -> tuple[float, float, float]:
    """(C, floor, d_max) of the error model |zeta_closed - zeta_oracle| <=
    C eps d_max t_max + floor (RESOLVED_EQUATIONS.md); d_max is the d_plus
    of block support + 1, above every block the closed form reads, so that C
    covers the oracle's eigenvalue error as well."""
    return 4.0, 2e-14, tc.spectral_params(config.support + 1, config.couplings).d_plus


def cmd_oracle_check(args) -> int:
    if (args.scenario is None) == (args.preset is None):
        raise ScenarioParseError("oracle-check needs exactly one of a scenario file and --preset")
    scenario = load_scenario(args.scenario) if args.preset is None else preset(args.preset)
    closed = closed_series(scenario)
    checked = oracle_series(scenario)
    errors = np.abs(closed.values - checked.values)
    worst = int(np.argmax(errors))
    max_err = float(errors[worst])
    ok = max_err <= args.tol
    c, floor, d_max = _error_model(scenario.system_config())  # information, not a second gate
    expected = c * np.finfo(float).eps * d_max * closed.times[-1] + floor
    write_text(None, [f"max |zeta_closed - zeta_oracle| = {max_err:.3e} over {len(closed)} points "
                      f"(tol {args.tol:g}): {'PASS' if ok else 'FAIL'}",
                      f"worst point: t = {closed.times[worst]:.17g}  zeta_closed = "
                      f"{closed.values[worst]:.17g}  zeta_oracle = {checked.values[worst]:.17g}",
                      f"expected <~ {c:g}*eps*d_max*t_max + {floor:g} = {expected:.3e}  "
                      f"(d_max = {d_max:.6g}, t_max = {closed.times[-1]:.17g})"])
    return EXIT_OK if ok else EXIT_TOLERANCE


def _seek_first_row(f) -> bool:
    """Move the text file ``f`` to its first line that is not blank and does not start with
    ``#`` or ``t,``; False, at the end of the file, if there is none."""
    start = f.tell()
    for line in iter(f.readline, ""):
        text = line.strip()
        if text and not text.startswith(("#", "t,")):
            f.seek(start)
            return True
        start = f.tell()
    return False


def _undecodable(path: Path, exc: UnicodeDecodeError) -> str:
    """The decoder's message for the first bytes of ``path`` that are not UTF-8, with their
    offset in the file rather than in the block the text reader was decoding (``exc``, whose
    message is kept if the file cannot be read again).  The file is read in binary blocks
    through one incremental decoder, so memory stays bounded."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = 0
    try:
        with path.open("rb") as f:
            while block := f.read(2**16):
                held = len(decoder.getstate()[0])  # bytes of a sequence cut by the last block
                decoder.decode(block)
                offset += len(block)
            held = len(decoder.getstate()[0])
            decoder.decode(b"", final=True)
    except UnicodeDecodeError as found:
        start = offset - held + found.start
        end = offset - held + found.end - 1
        what = (f"byte 0x{found.object[found.start]:02x} in position {start}" if end == start
                else f"bytes in position {start}-{end}")
        return f"'utf-8' codec can't decode {what}: {found.reason}"
    except OSError:
        pass
    return str(exc)


def _is_number(field: str) -> bool:
    """Whether numpy's CSV reader takes ``field`` as a double: what ``float`` takes, but
    for digit separators and digits other than ASCII."""
    text = field.strip()
    try:
        float(text)
    except ValueError:
        return False
    return text.isascii() and "_" not in text


def _bad_row(path: Path) -> str | None:
    """The first data row of ``path`` that numpy's reader rejects and why, as ``data row N``
    counting from 1 over the rows numpy reads, as the other row messages count; None if
    none is found.  Called only after numpy has failed, since it reads the file again."""
    try:
        with path.open(encoding="utf-8", errors="replace") as f:
            _seek_first_row(f)
            row = 0
            for line in f:
                text = line.rstrip("\n").partition("#")[0]
                if not text:  # numpy skips empty lines and lines of only a comment
                    continue
                row += 1
                fields = text.split(",")
                for column in (0, 1):  # in numpy's order: a bad t before a missing zeta
                    if column == len(fields):
                        return f"data row {row} of {path} has 1 column; t and zeta need 2"
                    if not _is_number(fields[column]):
                        return (f"data row {row} of {path}, column {column + 1}, "
                                f"is not a number: {fields[column]!r}")
    except OSError:
        pass
    return None


def _load_csv(path: Path) -> TimeSeries:
    """The first two columns of the rows after the leading blank, ``#`` and ``t,`` lines,
    parsed by numpy from the open file in one call, which skips empty and ``#`` lines and
    drops the text after a ``#``.  A row numpy cannot parse, or that is not finite, exits 2
    and names the file and the data row; a zeta outside [0, 0.5], or a t not above the one
    before it, exits 3 and names them too."""
    try:
        with path.open(encoding="utf-8") as f:
            has_rows = _seek_first_row(f)
            if has_rows:
                times, values = np.loadtxt(f, delimiter=",", usecols=(0, 1), ndmin=2,
                                           unpack=True, comments="#")
    except UnicodeDecodeError as exc:  # caught before ValueError, its base
        raise ScenarioParseError(f"cannot read {path}: {_undecodable(path, exc)}") from exc
    except OSError as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ScenarioParseError(_bad_row(path) or f"bad CSV row in {path}: {exc}") from exc
    if not has_rows:
        raise ScenarioParseError(f"no data rows in {path}")
    bad = np.flatnonzero(~(np.isfinite(times) & np.isfinite(values)))
    if bad.size:
        i = bad[0]
        raise ScenarioParseError(f"data row {i + 1} of {path} is not finite: {times[i]:g},{values[i]:g}")
    # both pipelines clip zeta to exactly this range
    bad = np.flatnonzero((values < 0.0) | (values > 0.5))
    if bad.size:
        i = bad[0]
        raise ValidationError(f"data row {i + 1} of {path} has zeta = {values[i]:g} outside [0, 0.5]")
    bad = np.flatnonzero(times[1:] <= times[:-1])
    if bad.size:
        i = bad[0] + 1
        raise ValidationError(f"data row {i + 1} of {path} has t = {float(times[i])!r}, not above the "
                              f"t = {float(times[i - 1])!r} before it; times must be strictly increasing")
    return TimeSeries(times, values)


def cmd_analyze(args) -> int:
    from . import analysis
    series = _load_csv(Path(args.csv))
    # both reports are formed before any output, so a failure prints nothing
    report = analysis.find_revivals(series, after=args.after)
    spectrum = analysis.dominant_frequencies(series, count=args.peaks)
    lines = [f"samples: {len(series)}  t in [{series.times[0]:g}, {series.times[-1]:g}]",
             f"time average over (after={args.after:g}): {report.time_average:.6f}",
             f"local minima after t={args.after:g}: {len(report.minima)}"]
    if report.global_min is not None:
        tmin, zmin = report.global_min
        lines.append(f"global minimum: zeta = {zmin:.6e} at t = {tmin:.6f}")
    lines.append(f"frequency resolution: {spectrum.resolution:.6f}")
    lines += [f"peak: omega = {freq:.6f}  magnitude = {magnitude:.3f}" for freq, magnitude in spectrum.peaks]
    write_text(None, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcsim",
        description="Closed-form qubit-oscillator entropy dynamics with a brute-force cross-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file, emit CSV")
    p_run.add_argument("scenario", help="scenario file path")
    p_run.add_argument("--out", help="output CSV path (default: stdout)")
    p_run.add_argument("--svg", action="store_true", help="also emit an SVG plot next to --out")
    p_run.set_defaults(func=cmd_run)

    p_fig = sub.add_parser("figure", help="materialize a figure preset")
    p_fig.add_argument("id", help=f"preset id: {', '.join(PRESET_IDS)}")
    p_fig.add_argument("--svg", action="store_true", help="also emit figN.svg")
    p_fig.add_argument("--t-end", type=_finite_float, default=None, dest="t_end")
    p_fig.add_argument("--points", type=_int_at_least(2), default=None)
    p_fig.add_argument("--out-dir", default=".", dest="out_dir")
    p_fig.set_defaults(func=cmd_figure)

    p_chk = sub.add_parser("oracle-check", help="compare closed form against brute force")
    p_chk.add_argument("scenario", nargs="?", default=None, help="scenario file path")
    p_chk.add_argument("--preset", default=None, help=f"preset id instead of a file: {', '.join(PRESET_IDS)}")
    p_chk.add_argument("--tol", type=_tolerance, default=1e-8)
    p_chk.set_defaults(func=cmd_oracle_check)

    p_an = sub.add_parser("analyze", help="revival minima and spectral peaks of an emitted CSV")
    p_an.add_argument("csv", help="CSV produced by run/figure")
    p_an.add_argument("--after", type=_finite_float, default=0.0)
    p_an.add_argument("--peaks", type=_int_at_least(1), default=5)
    p_an.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE if isinstance(exc, ScenarioParseError) else EXIT_VALIDATION


def main_entry() -> None:
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
