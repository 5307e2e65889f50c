"""Record the expected simulated-output digests in ``expected.json``.

Usage, from the root of a checkout::

    python3 e2ebench/record_expected.py

Runs one round of every workload at the default seed and at one
held-out seed and stores each unit group's digest.  ``run.py`` counts
every unit whose digest differs as failed, so re-record only for a
change that is meant to alter simulated outputs; a pure speed-up must
leave them bit-identical.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import DEFAULT_SEED, EXPECTED, prepare_environment  # noqa: E402

#: a seed no workload was tuned on
HELD_OUT_SEED = 7


def main() -> None:
    prepare_environment()
    from suite import WORKLOADS

    out = {}
    for name, cls in WORKLOADS.items():
        out[name] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            workload = cls(seed)
            try:
                out[name][str(seed)] = workload.run_round().digests
            finally:
                workload.close()
            print(f"{name} seed {seed}: {len(out[name][str(seed)])} unit groups", flush=True)
    EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
