"""Run one workload of the tcsim benchmark and print its metrics.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 30 --trace 0

tcsim is imported from the ``src`` directory of the checkout this file sits
in.  Each metric is printed on its own line with its unit; the last line of
standard output is the result as one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  A detail file with the
run environment, the drawn parameters, every operation and every span is
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description="tcsim benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small grids and two presets, for the smoke test")
    return parser, parser.parse_args(argv)


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def report(result, harness, detail_path: Path) -> None:
    print(f"tcsim benchmark: workload={result.workload} seed={result.seed} "
          f"trace={int(result.trace)}")
    print(f"environment: {json.dumps(result.env)}")
    print(f"params: {json.dumps(result.params)}")
    host = result.tails.get("host")
    if host:
        print(f"host speed: probe median {_fmt(host['probe_median_s'])} s over {host['n']} calls, "
              f"reference {_fmt(host['probe_ref_s'])} s; times below are scaled by "
              f"{_fmt(host['scale'])}")
    for name, value in result.metrics.items():
        note = ""
        if name in harness.COMPUTED:
            note = "  (computed)"
        elif name in result.tails:
            tail = result.tails[name]
            note = f"  (unscaled {_fmt(tail['raw'])} s, n={tail['n']}"
            if "median" in tail:
                note += f", pooled median {_fmt(tail['median'])} s"
            if "percentile" in tail:
                note += f", p{tail['percentile']:.1f} {_fmt(tail['value'])} s"
            note += ")"
        print(f"{name} = {_fmt(value)} {result.units[name]}{note}")
    if result.trace:
        for kind in harness.TRACED_KINDS:
            m = {what: result.metrics[f"trace.{kind}_{what}_s"]
                 for what in ("untraced", "layers", "overhead")}
            if None not in m.values():
                print(f"accounting {kind}: untraced {_fmt(m['untraced'])} s, layer self times "
                      f"{_fmt(m['layers'])} s, difference {_fmt(m['untraced'] - m['layers'])} s, "
                      f"tracing overhead {_fmt(m['overhead'])} s")
    print(f"error_rate = {result.failed}/{result.attempted} = "
          f"{result.failed / result.attempted:.6g} 1")
    for op in result.ops:
        if op.error is not None:
            print(f"FAILED cycle {op.cycle} item {op.label} {op.kind}: {op.error}")
    print(f"detail: {detail_path}")


def main(argv=None) -> int:
    parser, args = parse_args(argv)
    if not (ROOT / "src" / "tcsim" / "__init__.py").is_file():
        print(f"error: no tcsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; valid: {', '.join(harness.WORKLOADS)}")
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    detail_path = harness.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(result.detail()), encoding="utf-8")
    report(result, harness, detail_path.relative_to(ROOT))
    print(json.dumps(result.summary()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
