"""In-memory spans around the public functions of the tcsim modules.

The wrappers are installed by attribute from here, only for the traced part
of a run, and removed afterwards; the program itself is not changed.  A
module-level function is wrapped on the module that looks it up at call
time, so calls made inside tcsim go through the wrapper as well.

Each span records its name, start, end, parent span and operation id.  While
``measure_alloc`` is set, the closed-form and oracle entry spans also record
the peak number of bytes allocated while they ran, measured with
``tracemalloc`` started at the span's entry and stopped at its exit.
"""

from __future__ import annotations

import functools
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from tcsim import analysis, cli, jc, oracle, scenario, tc

# (owner, attribute, span name); several attributes may share a span name.
TARGETS = (
    (scenario, "parse_scenario", "scenario.parse"),
    (scenario, "preset", "scenario.parse"),
    (scenario.Scenario, "oscillator_components", "states.build"),
    (tc, "entropy_series", "tc.closed"),
    (tc, "mixture_entropy_arrays", "tc.closed"),
    (tc, "spectral_params", "tc.spectral"),
    (jc, "jc_mixture_entropy", "jc.closed"),
    (oracle, "oracle_entropy_series", "oracle.series"),
    (oracle, "build_hamiltonian", "oracle.hamiltonian"),
    (oracle.Propagator, "__init__", "oracle.eigh"),
    (oracle.Propagator, "evolve_state", "oracle.evolve"),
    (cli, "csv_lines", "cli.csv"),
    (cli, "write_text", "cli.write"),
    (cli, "_load_csv", "cli.load"),
    (analysis, "find_revivals", "analysis.revivals"),
    (analysis, "dominant_frequencies", "analysis.spectrum"),
)

SPAN_NAMES = tuple(sorted({name for _, _, name in TARGETS}))

# Spans whose peak allocation is measured.
_ALLOC_SPANS = frozenset({"tc.closed", "oracle.series"})


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    peak_alloc_bytes: int | None = None


class Recorder:
    """Collects spans in memory; ``install``/``uninstall`` add and remove
    the wrappers listed in ``TARGETS``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self.measure_alloc = False
        self._originals: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self._op))
        self._stack.append(index)
        measure = self.measure_alloc and name in _ALLOC_SPANS and not tracemalloc.is_tracing()
        if measure:
            tracemalloc.start()
        try:
            yield
        finally:
            span = self.spans[index]
            span.end = perf_counter()
            if measure:
                span.peak_alloc_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()

    @contextmanager
    def op(self, op_id: int, kind: str):
        """Root span of one operation; spans opened inside carry ``op_id``."""
        self._op = op_id
        try:
            with self.span(f"op.{kind}"):
                yield
        finally:
            self._op = None

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own
