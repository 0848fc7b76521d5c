"""Time one set-up of the benchmark in a fresh process and print the seconds:
imports, scenario parsing, state construction and one warm-up.

    PYTHONPATH=src python3 perfbench/setup_probe.py <workload> <seed> <size>
"""

from time import perf_counter

T0 = perf_counter()

import sys  # noqa: E402

import harness  # noqa: E402  (imports numpy and tcsim, so it is timed)


def main() -> None:
    workload, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    params = harness.draw_params(workload, seed, size)
    refs = harness.load_refs()
    for label in harness.item_labels(workload, params):
        harness.build_item(workload, params, label, refs)
    harness.warm_up()
    print(perf_counter() - T0)


if __name__ == "__main__":
    main()
