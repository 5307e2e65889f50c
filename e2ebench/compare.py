"""Compare run records of two commits, refusing unlike environments.

Usage::

    python3 e2ebench/compare.py --base a1.json a2.json --head b1.json b2.json

Each file is a record written by ``run.py --record``.  Records compare
only when their environment fingerprints agree (every field except
``calibrated_this_run``, which says only whether this run paid for the
batch-threshold calibration) and they ran the same workload in the same
trace mode.  Prints each metric's median on both sides, the change, and
the end-to-end bound from ``BENCHMARK.json`` when there is one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: fingerprint fields that do not make two environments different
VOLATILE = {"calibrated_this_run"}


def comparable(record: dict) -> tuple:
    fp = {k: v for k, v in record["fingerprint"].items() if k not in VOLATILE}
    return record["workload"], record["trace"], json.dumps(fp, sort_keys=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--head", nargs="+", required=True)
    args = ap.parse_args(argv)
    base = [json.loads(Path(p).read_text()) for p in args.base]
    head = [json.loads(Path(p).read_text()) for p in args.head]
    kinds = {comparable(r) for r in base + head}
    if len(kinds) != 1:
        print("error: records differ in workload, trace mode or environment fingerprint:",
              file=sys.stderr)
        for workload, trace, fp in sorted(kinds):
            print(f"  {workload} trace={trace} {fp}", file=sys.stderr)
        return 2
    bounds = {}
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        bounds = {m["name"]: m for m in json.loads(bench.read_text())["end_to_end"]}
    print(f"{'metric':<28} {'base':>12} {'head':>12} {'change':>8}  bound")
    for name in base[0]["metrics"]:
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        h = statistics.median(r["metrics"][name]["value"] for r in head)
        change = (h - b) / b if b else float("nan")
        spec = bounds.get(name)
        note = f"{spec['bound']:.0%} ({spec['better']} is better)" if spec else ""
        print(f"{name:<28} {b:>12.6g} {h:>12.6g} {change:>+8.1%}  {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
