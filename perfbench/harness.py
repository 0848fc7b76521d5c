"""Workloads, operations and metrics of the tcsim benchmark.

Load is a closed loop: one client in this process issues one operation at a
time and starts the next only when the previous one has finished.  A cycle
takes every item of the workload once through each operation kind:

- ``curve``:   ``cli.closed_series`` -> ``cli.csv_lines`` -> ``cli.write_text``
- ``check``:   ``cli.closed_series`` + ``cli.oracle_series`` and max |difference|
- ``analyze``: ``cli.main(["analyze", <curve csv>, "--after", "5", "--peaks", "5"])``
- ``cli``:     a fresh ``python -m tcsim.cli`` process writing the same curve

Every output is checked.  An operation that raises or fails a check counts as
failed and is reported; its time is left out of the timings.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from tcsim import analysis, cli, scenario
from tcsim.scenario import Scenario

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFS_FILE = BENCH_DIR / "preset_sha256.json"

WORKLOADS = ("presets", "binomial-m400", "long-grid")
PRESET_IDS = ("1", "2a", "2b", "2c", "3", "4", "5", "6")
KINDS = ("curve", "check", "analyze", "cli")
TRACED_KINDS = ("curve", "check", "analyze")

CHECK_TOL = 1e-8
ANALYZE_ARGS = ("--after", "5", "--peaks", "5")
CHILD_TIMEOUT_S = 60

# "full" is the benchmark; "tiny" keeps the same code paths at a size the
# smoke test can afford.
SIZES = {
    "full": {"presets": PRESET_IDS, "binomial_m": 400, "binomial_points": 3001,
             "long_t_end": 2500.0, "long_points": 250_001, "setup_probes": 7},
    "tiny": {"presets": ("1", "2a"), "binomial_m": 8, "binomial_points": 101,
             "long_t_end": 20.0, "long_points": 2001, "setup_probes": 1},
}

E2E_UNITS = {"setup_s": "s", "curve_s": "s", "check_s": "s", "analyze_s": "s",
             "cli_s": "s", "peak_rss_mb": "MB"}

# Per-layer time metrics: the self time of these spans, per item and cycle.
LAYER_SPANS = {
    "states.build_s": ("states.build",),
    "tc.closed_s": ("tc.closed", "tc.spectral"),
    "jc.closed_s": ("jc.closed",),
    "oracle.hamiltonian_s": ("oracle.hamiltonian",),
    "oracle.eigh_s": ("oracle.eigh",),
    "oracle.evolve_s": ("oracle.evolve",),
    "oracle.reduce_s": ("oracle.series",),
    "cli.csv_s": ("cli.csv",),
    "cli.write_s": ("cli.write",),
    "cli.load_s": ("cli.load",),
    "analysis.revivals_s": ("analysis.revivals",),
    "analysis.spectrum_s": ("analysis.spectrum",),
}

# Counts derived from the inputs rather than timed.
COMPUTED = ("states.support", "tc.index_points", "tc.quad_bytes",
            "oracle.dim", "oracle.state_bytes")

PER_LAYER_UNITS = {
    "scenario.parse_s": "s",
    "states.build_s": "s",
    "states.support": "count",
    "tc.closed_s": "s",
    "tc.spectral_calls": "count",
    "tc.index_points": "count",
    "tc.quad_bytes": "B",
    "tc.peak_alloc_mb": "MB",
    "jc.closed_s": "s",
    "oracle.hamiltonian_s": "s",
    "oracle.eigh_s": "s",
    "oracle.evolve_s": "s",
    "oracle.reduce_s": "s",
    "oracle.peak_alloc_mb": "MB",
    "oracle.dim": "count",
    "oracle.state_bytes": "B",
    "oracle.max_abs_err": "1",
    "cli.csv_s": "s",
    "cli.write_s": "s",
    "cli.csv_bytes": "B",
    "cli.load_s": "s",
    "cli.startup_s": "s",
    "analysis.revivals_s": "s",
    "analysis.spectrum_s": "s",
    **{f"trace.{kind}_{what}_s": "s" for kind in TRACED_KINDS
       for what in ("untraced", "layers", "overhead")},
}


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


# ---------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Item:
    """One input of a workload: a preset, or a scenario drawn from the seed."""

    label: str
    scenario: Scenario
    text: str | None = None         # scenario file for `tcsim run`; None for presets
    ref_sha256: str | None = None   # expected curve CSV digest, where one is pinned


def draw_params(workload: str, seed: int, size: str) -> dict:
    """The workload's fixed parameters plus the values drawn from ``seed``."""
    cfg = SIZES[size]
    rng = random.Random(seed)
    if workload == "presets":
        return {"presets": list(cfg["presets"])}
    if workload == "binomial-m400":
        return {"kind": "binomial", "M": cfg["binomial_m"], "q": rng.uniform(0.3, 0.7),
                "p": rng.uniform(0.0, 1.0), "lambda2": rng.uniform(0.05, 0.2),
                "t_end": 30.0, "points": cfg["binomial_points"]}
    if workload == "long-grid":
        return {"kind": "number", "N": 1, "p": rng.uniform(0.0, 1.0),
                "lambda2": rng.uniform(0.05, 0.2),
                "t_end": cfg["long_t_end"], "points": cfg["long_points"]}
    raise ValueError(f"unknown workload {workload!r}; valid: {', '.join(WORKLOADS)}")


def scenario_text(params: dict) -> str:
    if params["kind"] == "binomial":
        osc = f"kind = binomial\nM = {params['M']}\nq = {params['q']!r}"
    else:
        osc = f"kind = number\nN = {params['N']}"
    return (f"[oscillator]\n{osc}\n"
            f"[environment]\np = {params['p']!r}\n"
            f"[couplings]\nlambda1 = 1.0\nlambda2 = {params['lambda2']!r}\n"
            f"[grid]\nt_start = 0\nt_end = {params['t_end']!r}\npoints = {params['points']}\n")


def load_refs() -> dict[str, str]:
    return json.loads(REFS_FILE.read_text(encoding="utf-8"))


def item_labels(workload: str, params: dict) -> list[str]:
    return list(params["presets"]) if workload == "presets" else [workload]


def build_item(workload: str, params: dict, label: str, refs: dict[str, str]) -> Item:
    """Parse one scenario of the workload and construct its oscillator states."""
    if workload == "presets":
        item = Item(label, scenario.preset(label), ref_sha256=refs[label])
    else:
        text = scenario_text(params)
        item = Item(label, scenario.parse_scenario(text), text=text)
    item.scenario.oscillator_components()
    return item


def warm_up() -> None:
    """Run each in-process layer once on a small grid so lazy set-up
    (numpy submodules, BLAS threads) is done before timing."""
    sc = scenario.preset("2c", t_end=10.0, points=101)
    closed = cli.closed_series(sc)
    cli.csv_lines(sc, closed, cli.oracle_series(sc))
    analysis.find_revivals(closed, after=5.0)
    analysis.dominant_frequencies(closed, count=5)


# Median seconds of speed_probe() on the reference machine (2-core Xeon at
# 2.1 GHz, Python 3.11, numpy 2.4 with OpenBLAS), over twenty 30 s runs.
PROBE_REF_S = 0.0045


def speed_probe() -> float:
    """Time a fixed piece of numpy work (a sine and a sort over 200,000
    doubles) that runs no tcsim code.

    On a shared machine the host's speed drifts by tens of percent over
    minutes.  The probe runs before every timed operation, and the
    end-to-end times are scaled by ``PROBE_REF_S`` over the run's median
    probe, so runs made at different host speeds stay comparable.  Among
    the probes tried (float formatting and parsing, small BLAS and LAPACK
    calls, this one), this one tracked the operations' times best.
    """
    x = np.linspace(0.0, 1.0, 200_000)
    t0 = perf_counter()
    np.sort(np.sin(7.0 * x))
    return perf_counter() - t0


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def probe_setup(workload: str, seed: int, size: str) -> list[float]:
    """Set-up times of fresh processes, each timing its own imports, scenario
    parsing, state construction and warm-up.  Runs them one at a time."""
    samples = []
    for _ in range(SIZES[size]["setup_probes"]):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed), size],
            env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def probe_startup() -> float:
    """Wall time of a fresh ``python -c "import tcsim.cli"``."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import tcsim.cli"], env=child_env(),
                   capture_output=True, timeout=CHILD_TIMEOUT_S, check=True)
    return perf_counter() - t0


# --------------------------------------------------------------- operations

@dataclass
class Op:
    cycle: int
    label: str
    kind: str
    mode: str  # "untraced", "traced", or "alloc" (traced under tracemalloc, not timed)
    seconds: float | None = None
    error: str | None = None


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_range(values: np.ndarray, what: str) -> None:
    if not np.all((values >= 0.0) & (values <= 0.5)):
        raise CheckFailed(f"{what} leaves [0, 0.5] (or is not finite)")


class Runner:
    """Issues operations one at a time, checks each output, and keeps the
    record of every operation and (when tracing) every span."""

    def __init__(self, workdir: Path, recorder: spans.Recorder | None):
        self.workdir = workdir
        self.recorder = recorder
        self.items: list[Item] = []
        self.ops: list[Op] = []
        self.cycles = 0
        self.startup_s: list[float] = []
        self.max_abs_err = 0.0
        self.probe_speed = False
        self.probe_s: list[float] = []
        self.csv_bytes: dict[str, int] = {}
        self._curve_sha: dict[str, str] = {}
        self._analyze_out: dict[str, str] = {}

    def setup(self, workload: str, params: dict, refs: dict[str, str]) -> None:
        """Build the items; with a recorder installed, each build is a
        traced ``setup`` operation."""
        (self.workdir / "cli").mkdir(parents=True, exist_ok=True)
        for label in item_labels(workload, params):
            if self.recorder is None:
                item = build_item(workload, params, label, refs)
            else:
                self.ops.append(Op(-1, label, "setup", "traced"))
                with self.recorder.op(len(self.ops) - 1, "setup"):
                    item = build_item(workload, params, label, refs)
            if item.text is not None:
                self._scenario_file(item).write_text(item.text, encoding="utf-8")
            self.items.append(item)

    def _scenario_file(self, item: Item) -> Path:
        return self.workdir / f"{item.label}.ini"

    def _curve_file(self, item: Item) -> Path:
        return self.workdir / f"curve-{item.label}.csv"

    def _cli_file(self, item: Item) -> Path:
        if item.text is None:
            return self.workdir / "cli" / f"fig{item.scenario.label}.csv"
        return self.workdir / "cli" / f"{item.label}.csv"

    # curve
    def _do_curve(self, item: Item):
        closed = cli.closed_series(item.scenario)
        cli.write_text(self._curve_file(item), cli.csv_lines(item.scenario, closed, None))
        return closed.values

    def _check_curve(self, item: Item, values) -> None:
        _check_range(values, "closed-form zeta")
        path = self._curve_file(item)
        self.csv_bytes[item.label] = path.stat().st_size
        self._expect_curve_bytes(item, _sha256(path), "curve CSV")

    def _expect_curve_bytes(self, item: Item, digest: str, what: str) -> None:
        expected = item.ref_sha256 or self._curve_sha.setdefault(item.label, digest)
        if digest != expected:
            raise CheckFailed(f"{what} sha256 {digest[:12]} differs from {expected[:12]}")

    # check
    def _do_check(self, item: Item):
        closed = cli.closed_series(item.scenario)
        checked = cli.oracle_series(item.scenario)
        err = float(np.max(np.abs(closed.values - checked.values)))
        return closed.values, checked.values, err

    def _check_check(self, item: Item, payload) -> None:
        closed, checked, err = payload
        self.max_abs_err = max(self.max_abs_err, err)
        if not err <= CHECK_TOL:
            raise CheckFailed(f"max |closed - oracle| = {err:.3e} > {CHECK_TOL:g}")
        _check_range(closed, "closed-form zeta")
        _check_range(checked, "oracle zeta")

    # analyze
    def _do_analyze(self, item: Item):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["analyze", str(self._curve_file(item)), *ANALYZE_ARGS])
        return code, out.getvalue()

    def _check_analyze(self, item: Item, payload) -> None:
        code, text = payload
        if code != cli.EXIT_OK:
            raise CheckFailed(f"analyze exited {code}")
        lines = text.splitlines()
        points = item.scenario.grid.n_points
        if not lines or not lines[0].startswith(f"samples: {points} "):
            raise CheckFailed(f"analyze did not report {points} samples")
        if not 1 <= sum(line.startswith("peak:") for line in lines) <= 5:
            raise CheckFailed("analyze did not report between 1 and 5 peaks")
        if text != self._analyze_out.setdefault(item.label, text):
            raise CheckFailed("analyze output differs from this run's first one")

    # cli
    def _do_cli(self, item: Item):
        if item.text is None:
            args = ["figure", item.label, "--out-dir", str(self.workdir / "cli")]
        else:
            args = ["run", str(self._scenario_file(item)), "--out", str(self._cli_file(item))]
        return subprocess.run([sys.executable, "-m", "tcsim.cli", *args], env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)

    def _check_cli(self, item: Item, proc) -> None:
        if proc.returncode != cli.EXIT_OK:
            raise CheckFailed(f"tcsim exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
        path = self._cli_file(item)
        digest = _sha256(path)
        path.unlink()  # so a later run that writes nothing cannot pass on this file
        self._expect_curve_bytes(item, digest, "CLI CSV")

    def run_op(self, item: Item, kind: str, mode: str) -> None:
        if self.probe_speed:
            self.probe_s.append(speed_probe())
        op = Op(self.cycles, item.label, kind, mode)
        op_id = len(self.ops)
        self.ops.append(op)
        do = getattr(self, f"_do_{kind}")
        check = getattr(self, f"_check_{kind}")
        root = contextlib.nullcontext() if mode == "untraced" else self.recorder.op(op_id, kind)
        try:
            with root:
                t0 = perf_counter()
                payload = do(item)
                seconds = perf_counter() - t0
            check(item, payload)
        except Exception as exc:  # every failure is counted and reported, never raised
            op.error = f"{type(exc).__name__}: {exc}"
        else:
            op.seconds = seconds

    def run_cycle(self, kinds: tuple[str, ...], mode: str) -> None:
        for item in self.items:
            for kind in kinds:
                self.run_op(item, kind, mode)
        self.cycles += 1

    def measure(self, seconds: float, kinds: tuple[str, ...], mode: str) -> None:
        """Run whole cycles until ``seconds`` have passed (at least one).
        A traced cycle also times one fresh CLI import."""
        start = perf_counter()
        first = True
        while first or perf_counter() - start < seconds:
            first = False
            self.run_cycle(kinds, mode)
            if mode == "traced":
                self.startup_s.append(probe_startup())


# ------------------------------------------------------------------ metrics

def item_mean(per_item: dict[str, list[float]]) -> float | None:
    """Mean over items of each item's median; None when nothing succeeded."""
    medians = [statistics.median(v) for v in per_item.values() if v]
    return statistics.fmean(medians) if medians else None


def op_seconds(ops: list[Op], kind: str, mode: str) -> dict[str, list[float]]:
    per_item: dict[str, list[float]] = {}
    for op in ops:
        if op.kind == kind and op.mode == mode and op.seconds is not None:
            per_item.setdefault(op.label, []).append(op.seconds)
    return per_item


def tail(samples: list[float]) -> dict:
    """Pooled median and the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered) if n else None}
    if n >= 11:
        out["percentile"] = 100.0 * (n - 10) / n
        out["value"] = ordered[n - 11]
    return out


def end_to_end(runner: Runner, setup_samples: list[float]) -> tuple[dict, dict]:
    """Times scaled to the reference host speed, and for each time its
    unscaled value and pooled tail."""
    scale = PROBE_REF_S / statistics.median(runner.probe_s)
    raw = {"setup_s": statistics.median(setup_samples)}
    tails = {"setup_s": {"n": len(setup_samples)}}
    for kind in KINDS:
        per_item = op_seconds(runner.ops, kind, "untraced")
        raw[f"{kind}_s"] = item_mean(per_item)
        tails[f"{kind}_s"] = tail([s for v in per_item.values() for s in v])
    metrics = {}
    for name, value in raw.items():
        metrics[name] = None if value is None else value * scale
        tails[name]["raw"] = value
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tails["host"] = {"probe_median_s": statistics.median(runner.probe_s),
                     "probe_ref_s": PROBE_REF_S, "n": len(runner.probe_s), "scale": scale}
    return metrics, tails


def computed_counts(item: Item, ran_tc: bool) -> dict[str, int]:
    """Sizes that follow from the inputs alone; they repeat exactly."""
    sc = item.scenario
    points = sc.grid.n_points
    support = sum(int(np.count_nonzero(dist.amplitudes))
                  for _, dist in sc.oscillator_components())
    dim = 4 * (sc.effective_n_max() + 1)
    return {
        "states.support": support,
        "tc.index_points": support * points if ran_tc else 0,
        "tc.quad_bytes": 8 * 16 * points * support if ran_tc else 0,
        "oracle.dim": dim,
        "oracle.state_bytes": 16 * dim * points,
    }


def per_layer(runner: Runner, recorder: spans.Recorder) -> dict:
    own = recorder.self_times()
    # self time per (op id, span name), and per op for all non-root spans
    by_op: dict[int, dict[str, float]] = {}
    spectral_calls: dict[int, int] = {}
    peaks: dict[str, int] = {}
    for span, self_s in zip(recorder.spans, own):
        if span.op is None or span.name.startswith("op."):
            continue
        names = by_op.setdefault(span.op, {})
        names[span.name] = names.get(span.name, 0.0) + self_s
        if span.name == "tc.spectral":
            spectral_calls[span.op] = spectral_calls.get(span.op, 0) + 1
        if span.peak_alloc_bytes is not None:
            peaks[span.name] = max(peaks.get(span.name, 0), span.peak_alloc_bytes)

    setup_ops = [i for i, op in enumerate(runner.ops) if op.kind == "setup"]
    cycle_ops = [i for i, op in enumerate(runner.ops) if op.mode == "traced" and op.kind != "setup"]

    def layer_time(span_names, op_ids) -> float:
        per_cycle: dict[str, dict[int, float]] = {}
        for i in op_ids:
            op = runner.ops[i]
            cycles = per_cycle.setdefault(op.label, {})
            cycles[op.cycle] = cycles.get(op.cycle, 0.0) + sum(
                by_op.get(i, {}).get(name, 0.0) for name in span_names)
        return item_mean({label: list(c.values()) for label, c in per_cycle.items()}) or 0.0

    metrics = {"scenario.parse_s": layer_time(("scenario.parse",), setup_ops)}
    for name, span_names in LAYER_SPANS.items():
        metrics[name] = layer_time(span_names, cycle_ops)

    first_curve = {}
    for i in cycle_ops:
        op = runner.ops[i]
        if op.kind == "curve" and op.seconds is not None:
            first_curve.setdefault(op.label, i)
    counts = {item.label: computed_counts(item, "tc.closed" in by_op.get(first_curve.get(item.label), {}))
              for item in runner.items}
    for name in COMPUTED:
        values = [c[name] for c in counts.values()]
        # sizes held at once are maxima over items; work done is a mean per item
        metrics[name] = statistics.fmean(values) if name == "tc.index_points" else max(values)
    metrics["tc.spectral_calls"] = statistics.fmean(
        [spectral_calls.get(first_curve.get(item.label), 0) for item in runner.items])
    metrics["tc.peak_alloc_mb"] = peaks.get("tc.closed", 0) / 2**20
    metrics["oracle.peak_alloc_mb"] = peaks.get("oracle.series", 0) / 2**20
    metrics["oracle.max_abs_err"] = runner.max_abs_err
    metrics["cli.csv_bytes"] = statistics.fmean(runner.csv_bytes.values())
    metrics["cli.startup_s"] = statistics.median(runner.startup_s)

    all_names = tuple(spans.SPAN_NAMES)
    for kind in TRACED_KINDS:
        untraced = item_mean(op_seconds(runner.ops, kind, "untraced"))
        traced = item_mean(op_seconds(runner.ops, kind, "traced"))
        kind_ops = [i for i in cycle_ops if runner.ops[i].kind == kind]
        metrics[f"trace.{kind}_untraced_s"] = untraced
        metrics[f"trace.{kind}_layers_s"] = layer_time(all_names, kind_ops)
        metrics[f"trace.{kind}_overhead_s"] = (
            traced - untraced if traced is not None and untraced is not None else None)
    return {name: metrics[name] for name in PER_LAYER_UNITS}


# --------------------------------------------------------------- environment

def _blas_threads() -> int | None:
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return proc.stdout.strip() or None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tcsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------- run

@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    params: dict
    env: dict
    metrics: dict
    units: dict
    tails: dict = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)
    spans: list[spans.Span] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(op.kind != "setup" for op in self.ops)

    @property
    def failed(self) -> int:
        return sum(op.kind != "setup" and op.error is not None for op in self.ops)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(v is not None for v in self.metrics.values())

    def summary(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": self.units[name]}
                        for name, value in self.metrics.items()},
        }

    def detail(self) -> dict:
        return {
            "workload": self.workload, "seed": self.seed, "trace": self.trace,
            "params": self.params, "env": self.env, "summary": self.summary(),
            "tails": self.tails, "computed": [n for n in COMPUTED if n in self.metrics],
            "ops": [vars(op) for op in self.ops],
            "spans": [vars(s) for s in self.spans],
        }


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        refs: dict[str, str] | None = None) -> Result:
    """Set up, measure for ``seconds`` and compute the metrics of one run.

    Without ``trace`` the result holds the end-to-end metrics.  With
    ``trace`` the time is split between an untraced and a traced half, and
    the result holds the per-layer metrics, including the difference
    between the two halves as tracing overhead.
    """
    params = draw_params(workload, seed, size)
    refs = load_refs() if refs is None else refs
    setup_samples = [] if trace else probe_setup(workload, seed, size)
    recorder = spans.Recorder() if trace else None
    workdir = OUT_DIR / f"work-{workload}-{os.getpid()}"
    runner = Runner(workdir, recorder)
    try:
        if recorder is None:
            runner.setup(workload, params, refs)
        else:
            recorder.install()
            try:
                runner.setup(workload, params, refs)
            finally:
                recorder.uninstall()
        warm_up()
        if recorder is None:
            runner.probe_speed = True
            runner.measure(seconds, KINDS, "untraced")
            metrics, tails = end_to_end(runner, setup_samples)
            units = E2E_UNITS
        else:
            runner.measure(seconds / 2, TRACED_KINDS, "untraced")
            recorder.install()
            try:
                runner.measure(seconds / 2, TRACED_KINDS, "traced")
                # tracemalloc slows allocation-heavy code, so peak allocation
                # comes from one extra cycle that is left out of the timings
                recorder.measure_alloc = True
                runner.run_cycle(("curve", "check"), "alloc")
            finally:
                recorder.uninstall()
            metrics, tails = per_layer(runner, recorder), {}
            units = PER_LAYER_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return Result(workload, seed, trace, params, environment(), metrics, units, tails,
                  runner.ops, recorder.spans if recorder else [])
