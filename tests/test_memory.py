"""Working memory of the long-grid layers.

Each layer keeps an output that grows with the grid: the closed form its
zeta array (on the general route and on preset 1's jc route), the reader its
two columns, ``tcsim figure`` the times and values of its series.  The CSV
writer keeps none: it writes each block of text as it is formatted, with the
oracle's two columns too, whose ``abs_err`` it forms a block at a time.  What a
layer allocates beyond its output must stay under one bound of a few MB at
25,001 and at 250,001 points, and grow by less than one grid-sized array of
doubles between the two: the layers walk the grid in chunks and blocks, and
beyond their output keep at most a few one-byte masks per point.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from tcsim import jc, tc
from tcsim.cli import _load_csv, closed_series, csv_lines, main, oracle_series, write_text
from tcsim.scenario import preset

_BOUND = 3 * 2**20
_SIZES = (25_001, 250_001)


def _working_bytes(call, output_bytes) -> int:
    """Peak bytes that ``call()`` allocates beyond ``output_bytes(result)``."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - output_bytes(result)


def _layers(points: int, tmp_path) -> dict[str, int]:
    # figure 3's |1> at its 100 samples per unit time
    t_end = (points - 1) / 100
    sc = preset("3", t_end=t_end, points=points)
    config = sc.config
    t = config.grid.times()
    closed = closed_series(sc)
    checked = oracle_series(sc)
    # preset 1, the vacuum/one-photon mixture that closed_series routes to jc,
    # on the same grid
    mixture = preset("1", t_end=t_end, points=points)
    path = tmp_path / f"{points}.csv"
    figure = ["figure", "3", "--t-end", str(t_end), "--points", str(points), "--out-dir", str(tmp_path)]
    series_bytes = 2 * t.nbytes  # the times and values of the series the command writes

    return {
        "closed form": _working_bytes(lambda: tc.mixture_entropy_arrays(config, t),
                                      lambda zeta: zeta.nbytes),
        "jc closed form": _working_bytes(
            lambda: jc.jc_mixture_entropy(dict(mixture.params)["f"], mixture.couplings.lambda1, t),
            lambda zeta: zeta.nbytes),
        "CSV write": _working_bytes(lambda: write_text(path, csv_lines(sc, closed, None)), lambda _: 0),
        "CSV write with the oracle": _working_bytes(
            lambda: write_text(tmp_path / f"{points}-oracle.csv", csv_lines(sc, closed, checked)), lambda _: 0),
        "CSV read": _working_bytes(lambda: _load_csv(path),
                                   lambda series: series.times.nbytes + series.values.nbytes),
        "figure": _working_bytes(lambda: main(figure), lambda _: series_bytes),
    }


def test_long_grid_layers_hold_bounded_working_memory(tmp_path):
    small, large = (_layers(points, tmp_path) for points in _SIZES)
    one_array = np.dtype(float).itemsize * (_SIZES[1] - _SIZES[0])
    for layer in small:
        assert small[layer] < _BOUND and large[layer] < _BOUND, (layer, small[layer], large[layer])
        assert large[layer] - small[layer] < one_array, (layer, small[layer], large[layer])
