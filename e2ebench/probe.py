"""Set-up probe: import plus workload construction in a fresh interpreter.

``run.py`` starts this after every timed round, scales each set-up
time by the import reference of ``hostspeed.py`` timed around it, and
reports the median as ``setup_s``; for the pooled workload construction includes spinning up
the worker pool and sharing the film block with it.  Prints one JSON
line: ``{"import_s": ..., "setup_s": ...}``.
"""

import time

t0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from suite import WORKLOADS  # noqa: E402

import_s = time.perf_counter() - t0


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - t0
    workload.close()
    print(json.dumps({"import_s": import_s, "setup_s": setup_s}))


if __name__ == "__main__":
    main()
