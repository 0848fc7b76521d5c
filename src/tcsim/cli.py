"""Command-line front end.

Subcommands: ``run`` a scenario file, materialize a figure preset with
``figure``, cross-check closed form against brute force with
``oracle-check``, and inspect an emitted CSV with ``analyze``.

Exit codes: 0 ok, 2 parse/usage error, 3 validation error, 4 truncation
too small, 5 tolerance failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, jc, oracle, tc
from .errors import ScenarioParseError, TruncationError, ValidationError
from .scenario import PRESET_IDS, Scenario, _fmt, load_scenario, preset
from .series import TimeSeries

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_TRUNCATION = 4
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
    if scenario.kind == "mixture01" and scenario.lambda2 == 0.0:
        times = config.grid.times()
        f = dict(scenario.params)["f"]
        return TimeSeries(times, jc.jc_mixture_entropy(f, scenario.lambda1, times))
    return tc.entropy_series(config)


def oracle_series(scenario: Scenario) -> TimeSeries:
    """Brute-force entropy series for any scenario kind."""
    config = scenario.system_config()
    cfg = oracle.OracleConfig(
        n_max=scenario.effective_n_max(),
        couplings=config.couplings,
        omega=scenario.oracle_omega,
    )
    return oracle.oracle_entropy_series(config, cfg)


def csv_lines(scenario: Scenario, closed: TimeSeries, checked: TimeSeries | None) -> list[str]:
    lines = [f"# {entry}" for entry in scenario.to_lines()]
    if checked is None:
        lines.append("t,zeta")
        for t, z in zip(closed.times, closed.values):
            lines.append(f"{_fmt(t)},{_fmt(z)}")
    else:
        lines.append("t,zeta,zeta_oracle,abs_err")
        for t, z, zo in zip(closed.times, closed.values, checked.values):
            lines.append(f"{_fmt(t)},{_fmt(z)},{_fmt(zo)},{_fmt(abs(z - zo))}")
    return lines


def write_text(path: Path | None, lines: list[str]) -> None:
    body = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(body)
        return
    try:
        path.write_text(body, encoding="utf-8")
    except OSError as exc:
        raise ScenarioParseError(f"cannot write {path}: {exc}") from exc


def svg_lines(series: TimeSeries, title: str) -> list[str]:
    """Minimal static SVG 1.1 line plot: one polyline plus labelled axes."""
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

    pts = " ".join(f"{sx(t):.2f},{sy(z):.2f}" for t, z in zip(series.times, series.values))
    tick_ts = np.linspace(t0, t1, 7)
    tick_zs = np.linspace(z0, z1, 6)
    # escaped by hand: xml.sax.saxutils would import urllib.request into every run
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
    ]
    for t in tick_ts:
        x = sx(t)
        lines.append(f'<line x1="{x:.2f}" y1="{top + plot_h}" x2="{x:.2f}" y2="{top + plot_h + 5}" stroke="black"/>')
        lines.append(f'<text x="{x:.2f}" y="{top + plot_h + 20}" text-anchor="middle" font-size="11">{t:g}</text>')
    for z in tick_zs:
        y = sy(z)
        lines.append(f'<line x1="{left - 5}" y1="{y:.2f}" x2="{left}" y2="{y:.2f}" stroke="black"/>')
        lines.append(f'<text x="{left - 8}" y="{y + 4:.2f}" text-anchor="end" font-size="11">{z:g}</text>')
    lines.append(f'<text x="{left + plot_w / 2:.0f}" y="{height - 10}" text-anchor="middle" font-size="13">t</text>')
    lines.append(f'<text x="18" y="{top + plot_h / 2:.0f}" text-anchor="middle" font-size="13" '
                 f'transform="rotate(-90 18 {top + plot_h / 2:.0f})">zeta</text>')
    lines.append(f'<polyline points="{pts}" fill="none" stroke="#1f5fa8" stroke-width="1"/>')
    lines.append("</svg>")
    return lines


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
    print(f"wrote {out}" + (f" and {svg_path}" if svg_path else ""))
    return EXIT_OK


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
    print(f"max |zeta_closed - zeta_oracle| = {max_err:.3e} over {len(closed)} points "
          f"(tol {args.tol:g}): {'PASS' if ok else 'FAIL'}")
    print(f"worst point: t = {_fmt(closed.times[worst])}  zeta_closed = {_fmt(closed.values[worst])}  "
          f"zeta_oracle = {_fmt(checked.values[worst])}")
    return EXIT_OK if ok else EXIT_TOLERANCE


def _load_csv(path: Path) -> TimeSeries:
    times, values = [], []
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("t,"):
            continue
        parts = line.split(",")
        try:
            times.append(float(parts[0]))
            values.append(float(parts[1]))
        except (IndexError, ValueError) as exc:
            raise ScenarioParseError(f"bad CSV row {line!r}") from exc
    if not times:
        raise ScenarioParseError(f"no data rows in {path}")
    times, values = np.array(times), np.array(values)
    bad = np.flatnonzero(~(np.isfinite(times) & np.isfinite(values)))
    if bad.size:
        i = bad[0]
        raise ScenarioParseError(
            f"data row {i + 1} of {path} is not finite: {times[i]:g},{values[i]:g}"
        )
    # both pipelines clip zeta to exactly this range
    bad = np.flatnonzero((values < 0.0) | (values > 0.5))
    if bad.size:
        i = bad[0]
        raise ValidationError(
            f"data row {i + 1} of {path} has zeta = {values[i]:g} outside [0, 0.5]"
        )
    return TimeSeries(times, values)


def cmd_analyze(args) -> int:
    series = _load_csv(Path(args.csv))
    # both reports are formed before any output, so a failure prints nothing
    report = analysis.find_revivals(series, after=args.after)
    spectrum = analysis.dominant_frequencies(series, count=args.peaks)
    print(f"samples: {len(series)}  t in [{series.times[0]:g}, {series.times[-1]:g}]")
    print(f"time average over (after={args.after:g}): {report.time_average:.6f}")
    print(f"local minima after t={args.after:g}: {len(report.minima)}")
    if report.global_min is not None:
        tmin, zmin = report.global_min
        print(f"global minimum: zeta = {zmin:.6e} at t = {tmin:.6f}")
    print(f"frequency resolution: {spectrum.resolution:.6f}")
    for freq, magnitude in spectrum.peaks:
        print(f"peak: omega = {freq:.6f}  magnitude = {magnitude:.3f}")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TruncationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main_entry() -> None:
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
