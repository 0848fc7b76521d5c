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
import functools
import io
import itertools
import math
import os
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
    config = scenario.config
    if scenario.kind == "mixture01" and config.couplings.lambda2 == 0.0:
        from . import jc
        times = config.grid.times()
        f = dict(scenario.params)["f"]
        return TimeSeries(times, jc.jc_mixture_entropy(f, config.couplings.lambda1, times))
    return tc.entropy_series(config)


def oracle_series(scenario: Scenario) -> TimeSeries:
    """Brute-force entropy series for any scenario kind."""
    from . import oracle
    return oracle.oracle_entropy_series(scenario.config, omega=scenario.oracle_omega)


_CSV_BLOCK_ROWS = 4096  # rows per formatted block, so the temporary arrays and text stay small


def _blocks(columns: list[np.ndarray], field: str, sep: str) -> Iterator[str]:
    """The rows of the equal-length ``columns``, each ``field``-formatted and comma-joined,
    as strings of ``_CSV_BLOCK_ROWS`` ``sep``-joined rows, one ``%`` operation each."""
    row = ",".join([field] * len(columns))
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        block = np.column_stack([column[start:start + _CSV_BLOCK_ROWS] for column in columns])
        yield sep.join([row] * len(block)) % tuple(block.ravel().tolist())


# A CSV field is laid out in a slot of 32 bytes, four uint64 words: seven "0"s, the 17
# significant digits, eight "0"s.  For a decimal exponent X the point goes at byte 7 + X; the
# bytes before it are taken one byte to the left (the integer digits, or for X < 0 the "0"
# before the point), those after it where they stand, up to the last digit that is not a
# trailing zero.  Every other byte is 0, and byte 31 holds the field's separator.
_SLOT_DIGITS = 7  # the byte of the first digit


@functools.cache
def _slot_tables() -> tuple[np.ndarray, ...]:
    """The tables of ``_field_text``, built on first use: the ASCII of 0000-9999 as uint32, the
    number of trailing zeros of each, and three byte masks of a slot as (525, 4) uint64, one
    row for each decimal exponent X in [-4, 16] and end byte e in [0, 25), row 25 (X + 4) + e:
    ``lead``, the bytes before the point; ``tail``, those after it and before e; ``point``,
    the point where e is past it."""
    a, b, c, d = np.ix_(*[np.arange(10, dtype=np.uint32)] * 4)  # the digits of 0000-9999
    quads = (a + 48 | b + 48 << 8 | c + 48 << 16 | d + 48 << 24).ravel().astype("<u4")  # ASCII
    zero = d == 0
    zeros = zero.astype(np.uint8)
    for digit in (c, b, a):
        zero = zero & (digit == 0)
        zeros = zeros + zero
    byte = np.arange(32)
    exponent = np.arange(-4, 17).repeat(25)[:, None]
    end = np.tile(np.arange(25), 21)[:, None]
    point = _SLOT_DIGITS + exponent

    def words(mask, value=0xFF):
        return (mask * value).astype(np.uint8).view(np.uint64)

    lead = words((byte >= _SLOT_DIGITS - 1 + np.minimum(exponent, 0)) & (byte < point))
    return (quads, zeros.ravel(), lead, words((byte > point) & (byte < end)),
            words((byte == point) & (byte < end), ord(".")))


@functools.cache
def _powers_of_five() -> np.ndarray:
    """5**s for s in [0, 21], built on first use."""
    return 5 ** np.arange(22, dtype=np.uint64)


def _round_scaled(mant: np.ndarray, exp2: np.ndarray, s: np.ndarray) -> np.ndarray:
    """mant 2**exp2 10**s rounded half to even, exactly, for uint64 mant < 2**53 and s in
    [0, 21] where the result is below 2**64: mant 5**s, below 2**102, is formed in two uint64
    limbs from 32-bit partial products, then shifted by exp2 + s."""
    u32, low32 = np.uint64(32), np.uint64(2**32 - 1)
    five = _powers_of_five()[s]
    m_hi, m_lo, f_hi, f_lo = mant >> u32, mant & low32, five >> u32, five & low32
    low = m_lo * f_lo
    mid = m_lo * f_hi + m_hi * f_lo  # below 2**54
    lo = low + (mid << u32)
    hi = m_hi * f_hi + (mid >> u32) + (lo < low)  # with the carry out of lo
    shift = exp2 + s
    right = np.maximum(-shift, 0).astype(np.uint64)  # hi is 0 wherever right is 0
    left = np.maximum(shift, 0).astype(np.uint64)
    one = np.uint64(1)
    digits = (hi << (np.uint64(63) - right) << one | lo >> right) << left
    twice = (lo & (one << right) - one) << one  # twice the remainder, against one unit
    unit = one << right
    return digits + ((twice > unit) | (twice == unit) & (digits & one == one))


def _fixed_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(digits, exponent, fixed) of ``values``.  ``fixed`` marks the values in [1e-4, 1e17), those
    ``%.17g`` writes in fixed notation; for each, ``digits`` is its 17 significant digits,
    rounded half to even as ``%.17g`` rounds them, as an integer in [10**16, 10**17), and
    ``exponent`` its decimal exponent.  Both are 0 elsewhere."""
    fixed = (values >= 1e-4) & (values < 1e17)  # and so neither nan nor negative
    bits = np.where(fixed, values, 2.0).view(np.uint64)  # 2.0: any value in range
    mant = bits & np.uint64(2**52 - 1) | np.uint64(2**52)
    exp2 = (bits >> np.uint64(52)).astype(np.intp) - 1075  # value = mant 2**exp2
    # never above the exponent, whatever log10's last bit: where it is one below, the digits
    # reach 10**17, and they are formed once more one exponent up
    exponent = np.floor(np.log10(bits.view(np.float64)) - 1e-9).astype(np.intp)
    digits = _round_scaled(mant, exp2, 16 - exponent)
    low = np.flatnonzero(digits >= 10**17)
    exponent[low] += 1
    digits[low] = _round_scaled(mant[low], exp2[low], 16 - exponent[low])
    fixed &= (digits >= 10**16) & (digits < 10**17)
    digits[~fixed] = 0
    exponent[~fixed] = 0
    return digits, exponent, fixed


def _field_text(values: np.ndarray) -> np.ndarray:
    """The (n, 32) uint8 slots of the ``%.17g`` text of ``values``, their separators left 0.
    The values ``%.17g`` writes in fixed notation are laid out from their digits (see
    ``_SLOT_DIGITS``) and +0.0 as "0"; the others, -0.0, negative, non-finite or outside
    [1e-4, 1e17), are formatted with ``%`` one at a time."""
    quads, zeros, lead, tail, point = _slot_tables()
    digits, exponent, fixed = _fixed_digits(values)
    e8 = np.uint64(10**8)
    high = digits // e8
    head = high // e8
    parts = [head]  # the leading digit, then four groups of four
    for eight in (high - head * e8, digits - high * e8):
        upper = eight // np.uint64(10**4)
        parts += [upper, eight - upper * np.uint64(10**4)]
    # uint32 words: "0000", "000" and the leading digit, the four groups, "0000", "0000"
    slots = np.full((len(values), 8), quads[0], quads.dtype)
    trailing = 0  # the zeros at the end of the digits
    for i, part in enumerate(parts):
        part = part.astype(np.intp)
        slots[:, i + 1] = quads[part]
        if i:
            trailing = np.where(part == 0, trailing + 4, zeros[part])
    significant = 17 - trailing
    # the text ends after the last significant digit, or before the point if that digit is
    # an integer digit
    end = np.where(significant > exponent + 1, _SLOT_DIGITS + significant, _SLOT_DIGITS + exponent)
    row = 25 * (exponent + 4) + end
    text = slots.view(np.uint8).ravel()
    shifted = np.empty_like(text)
    shifted[:-1] = text[1:]
    slots, shifted = slots.view(np.uint64), shifted.view(np.uint64).reshape(-1, 4)
    shifted &= np.take(lead, row, axis=0)
    slots &= np.take(tail, row, axis=0)
    slots |= np.take(point, row, axis=0)
    slots |= shifted
    text = slots.view(np.uint8)
    other = np.flatnonzero(~fixed & ((values != 0.0) | np.signbit(values)))
    if other.size:
        fields = np.array(["%.17g" % value for value in values[other].tolist()], dtype="S24")
        text[other, :24] = fields.view(np.uint8).reshape(-1, 24)
    return text


def _csv_block(columns: list[np.ndarray]) -> str:
    """The rows of the equal-length ``columns`` as comma-joined fields, newline-joined: the text
    ``"%.17g" % value`` gives each field.  The fields are laid out in one (rows, columns, 32)
    buffer, a column at a time, and the bytes that are not 0 are its text."""
    text = np.empty((len(columns[0]), len(columns), 32), np.uint8)
    for i, column in enumerate(columns):
        text[:, i] = _field_text(column)
    text[:, :, -1] = ord(",")
    text[:, -1, -1] = ord("\n")
    text[-1, -1, -1] = 0
    text = text.ravel()
    return text[text != 0].tobytes().decode("ascii")


def csv_lines(scenario: Scenario, closed: TimeSeries, checked: TimeSeries | None) -> Iterator[str]:
    """``#`` scenario lines, the column header, then the ``%.17g`` rows (which read back to
    the same doubles) in strings of ``_CSV_BLOCK_ROWS`` newline-joined rows.  A generator:
    each block, its ``abs_err`` column included, is formed when it is asked for, so a caller
    that writes the lines as they come, as ``write_text`` does, holds one block at a time.
    It is consumed once."""
    for entry in scenario.to_lines():
        yield f"# {entry}"
    yield "t,zeta" if checked is None else "t,zeta,zeta_oracle,abs_err"
    for start in range(0, len(closed), _CSV_BLOCK_ROWS):
        rows = slice(start, start + _CSV_BLOCK_ROWS)
        columns = [closed.times[rows], closed.values[rows]]
        if checked is not None:
            columns += [checked.values[rows], np.abs(columns[1] - checked.values[rows])]
        yield _csv_block(columns)


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
    for path in (out, svg_path):  # neither output may replace the scenario it is made from
        if path is not None and os.path.realpath(path) == os.path.realpath(args.scenario):
            raise ScenarioParseError(f"cannot write {path} over the scenario file {args.scenario}")
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
    c, floor, d_max = _error_model(scenario.config)  # information, not a second gate
    expected = c * np.finfo(float).eps * d_max * closed.times[-1] + floor
    write_text(None, [f"max |zeta_closed - zeta_oracle| = {max_err:.3e} over {len(closed)} points "
                      f"(tol {args.tol:g}): {'PASS' if ok else 'FAIL'}",
                      f"worst point: t = {closed.times[worst]:.17g}  zeta_closed = "
                      f"{closed.values[worst]:.17g}  zeta_oracle = {checked.values[worst]:.17g}",
                      f"expected <~ {c:g}*eps*d_max*t_max + {floor:g} = {expected:.3e}  "
                      f"(d_max = {d_max:.6g}, t_max = {closed.times[-1]:.17g})"])
    return EXIT_OK if ok else EXIT_TOLERANCE


def _header_lines(path: Path) -> int | None:
    """The number of lines before the first data row of ``path``, that is before its first
    line that is not blank and does not start with ``#`` or ``t,``; None if there is none.
    The file is read as numpy reads it, UTF-8 with universal newlines and a leading
    byte-order mark skipped, so numpy's ``skiprows`` skips the same lines.  A file that
    cannot be read twice, as a pipe, raises OSError, since numpy opens it again."""
    with path.open(encoding="utf-8-sig") as f:
        if not f.seekable():
            raise io.UnsupportedOperation("underlying stream is not seekable")
        for count, line in enumerate(f):
            text = line.strip()
            if text and not text.startswith(("#", "t,")):
                return count
    return None


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


def _bad_row(path: Path, skip: int) -> str | None:
    """The first data row of ``path`` that numpy's reader rejects and why, as ``data row N``
    counting from 1 over the rows numpy reads after the ``skip`` header lines, as the other
    row messages count; None if none is found.  Called only after numpy has failed, since
    it reads the file again."""
    try:
        with path.open(encoding="utf-8-sig", errors="replace") as f:
            row = 0
            for line in itertools.islice(f, skip, None):
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


# numpy opens a path through a decompressor chosen by these suffixes; tcsim writes plain
# text under any name, so a file named so goes to numpy as an open text file instead,
# which numpy reads a Python line at a time rather than in blocks
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _load_csv(path: Path) -> TimeSeries:
    """The first two columns of the rows after the leading blank, ``#`` and ``t,`` lines,
    parsed by numpy in one call, which reads the file in blocks, skips empty and ``#``
    lines and drops the text after a ``#``.  A row numpy cannot parse, or that is not
    finite, exits 2 and names the file and the data row; a zeta outside [0, 0.5], or a t
    not above the one before it, exits 3 and names them too."""
    try:
        skip = _header_lines(path)
        if skip is not None:
            with (path.open(encoding="utf-8-sig") if path.suffix in _COMPRESSED_SUFFIXES
                  else nullcontext(path)) as source:
                times, values = np.loadtxt(source, delimiter=",", usecols=(0, 1), ndmin=2,
                                           unpack=True, comments="#", skiprows=skip,
                                           encoding="utf-8-sig")
    except UnicodeDecodeError as exc:  # caught before ValueError, its base
        raise ScenarioParseError(f"cannot read {path}: {_undecodable(path, exc)}") from exc
    except OSError as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ScenarioParseError(_bad_row(path, skip) or f"bad CSV row in {path}: {exc}") from exc
    if skip is None:
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
