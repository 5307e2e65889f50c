"""The repo benchmark: one workload at one seed, timed end to end.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload rebuild-offline --seed 2012 --seconds 15 --trace 0

With ``--trace 0`` the run measures the simulator's host time with
tracing off: whole rounds of the workload until ``--seconds`` have
passed, each followed by a set-up probe in a fresh interpreter,
reporting medians.  Host times are reported at a reference speed: each
slice of measured work is scaled by the host-speed reference timed
around it (see ``hostspeed.py``); the raw times go into the record.  With
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer table of the traced ones (see ``spans.py``).  Every round's simulated outputs are digested and checked
against the previous rounds and, for the seeds in ``expected.json``,
against the recorded digests.  The last line of standard output is the
result as one JSON object; ``--record FILE`` also writes the full run
record, with the environment fingerprint that ``compare.py`` checks.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".e2ebench_cache"
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 2012

#: end-to-end metrics, printed with ``--trace 0``: name -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "units_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics, printed with ``--trace 1``: name -> unit
PER_LAYER = {
    "import.repro_s": "s",
    "trace.wall_s": "s",
    "core.plan_calls": "count",
    "core.plan_s": "s",
    "core.plancache_hits": "count",
    "core.plancache_misses": "count",
    "core.plancache_hit_ratio": "ratio",
    "codes.encode_calls": "count",
    "codes.encode_s": "s",
    "codes.decode_calls": "count",
    "codes.decode_s": "s",
    "raidsim.ctrl_init_calls": "count",
    "raidsim.ctrl_init_s": "s",
    "raidsim.rebuild_s": "s",
    "raidsim.online_s": "s",
    "raidsim.write_s": "s",
    "raidsim.verify_s": "s",
    "raidsim.read_retries": "count",
    "raidsim.rerouted_reads": "count",
    "raidsim.read_timeouts": "count",
    "raidsim.read_useful_ratio": "ratio",
    "disksim.submit_batch_calls": "count",
    "disksim.submit_batch_s": "s",
    "disksim.batch_ops": "count",
    "disksim.coalesce_ratio": "ratio",
    "disksim.numpy_batches": "count",
    "disksim.scalar_batches": "count",
    "disksim.numpy_batch_share": "ratio",
    "disksim.run_s": "s",
    "disksim.events": "count",
    "disksim.requests": "count",
    "disksim.host_us_per_event": "us",
    "disksim.drain_fast_calls": "count",
    "disksim.faults_injected": "count",
    "workloads.arrivals": "count",
    "workloads.arrivals_s": "s",
    "workloads.user_stream_s": "s",
    "workloads.film_calls": "count",
    "workloads.film_s": "s",
    "workloads.write_ops_s": "s",
    "obs.slo_record_calls": "count",
    "obs.slo_record_s": "s",
    "obs.recorder_s": "s",
    "obs.registry_merge_s": "s",
    "obs.trace_overhead": "ratio",
    "parallel.spinup_s": "s",
    "parallel.map_s": "s",
    "parallel.items": "count",
    "parallel.busy_frac": "ratio",
    "parallel.pickle_bytes": "bytes",
    "other_s": "s",
}

#: per-layer self times that together with ``other_s`` make up the
#: traced wall time of a round
ROUND_LAYERS_S = (
    "core.plan", "codes.encode", "codes.decode", "raidsim.ctrl_init",
    "raidsim.rebuild", "raidsim.online", "raidsim.write", "raidsim.verify",
    "disksim.submit_batch", "disksim.run", "workloads.arrivals",
    "workloads.user_stream", "workloads.film", "workloads.write_ops",
    "obs.slo_record", "obs.recorder", "obs.registry_merge", "parallel.map",
)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="also write the full run record here")
    ap.add_argument("--spans", help="with --trace 1, write the traced pass's spans here")
    return ap.parse_args(argv)


def prepare_environment() -> list[str]:
    """Default program settings, and a batch-threshold cache in the checkout.

    Every ``REPRO_*`` variable is removed so the program keeps its
    defaults; ``XDG_CACHE_HOME`` points the batch-threshold calibration
    cache into the checkout (the program writes it on first use).
    Returns the removed variable names.
    """
    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for k in removed:
        del os.environ[k]
    CACHE.mkdir(exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = str(CACHE)
    return removed


def threshold_cached() -> bool:
    """Whether a batch-threshold calibration for this machine is cached."""
    from repro.disksim.autotune import machine_key

    try:
        data = json.loads((CACHE / "repro" / "batch_threshold.json").read_text())
    except (OSError, ValueError):
        return False
    return data.get("key") == machine_key()


def fingerprint(removed: list[str], calibrated: bool) -> dict:
    import numpy as np

    from repro.disksim.autotune import batch_threshold
    from repro.disksim.events import Simulation
    from repro.obs.metrics import obs_enabled

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "calendar": Simulation(1).calendar_kind,
        "obs_enabled": obs_enabled(),
        "batch_threshold": batch_threshold(),
        "calibrated_this_run": calibrated,
        "repro_env_removed": removed,
    }


class SetupProbe:
    """Set-up probes, each scaled by the import reference timed around it."""

    def __init__(self, workload: str, seed: int) -> None:
        from hostspeed import time_import_reference

        self.workload, self.seed = workload, seed
        self.time_ref = time_import_reference
        self.ref = self.time_ref()

    def __call__(self) -> dict:
        from hostspeed import IMPORT_REF_S, scale

        p = run_probe(self.workload, self.seed)
        before, self.ref = self.ref, self.time_ref()
        p["scaled_setup_s"] = scale(before, self.ref, IMPORT_REF_S) * p["setup_s"]
        p["import_ref_s"] = self.ref
        return p


def run_probe(workload: str, seed: int) -> dict:
    """Set-up time in a fresh interpreter: import plus construction."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), "--workload", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _proc_stat_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def cpu_now() -> float:
    """CPU seconds of this process plus its live pool workers."""
    total = time.process_time()
    for child in multiprocessing.active_children():
        try:
            total += _proc_stat_cpu_s(child.pid)
        except OSError:
            pass
    return total


def peak_rss_mb() -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            kb += _proc_peak_rss_kb(child.pid)
        except OSError:
            pass
    return kb / 1024.0


class Checker:
    """Checks every round's digests; counts attempted and failed units."""

    def __init__(self, expected: dict | None) -> None:
        self.reference = expected
        self.attempted = 0
        self.failed = 0
        self.mismatched: set = set()

    def check(self, rnd) -> None:
        """Count a round's failed units: reported failures and digest mismatches.

        The reference is the recorded digests when this seed has them,
        else the first round's, so every later round must reproduce it.
        """
        if self.reference is None:
            self.reference = rnd.digests
        failed = dict(rnd.failures)
        for group in set(self.reference) | set(rnd.digests):
            if self.reference.get(group) != rnd.digests.get(group):
                self.mismatched.add(group)
                failed[group] = max(rnd.group_units.get(group, 0), 1)
        self.attempted += max(rnd.units, 1)
        self.failed += sum(failed.values())


def median(xs) -> float:
    return float(statistics.median(xs))


def timed_rounds(workload, checker, seconds: float, probe):
    """Whole rounds until ``seconds`` have passed, at least three.

    Each round is timed in slices with the host-speed reference between
    them.  A set-up probe follows every round, so set-up is sampled
    across the run as the rounds are.  Returns each round's raw and
    scaled times (``Pacer.end_round``) and the probes.
    """
    from hostspeed import Pacer

    pacer = Pacer(cpu_now)
    workload.tick = pacer.tick
    rounds, probes = [], []
    start = time.perf_counter()
    try:
        while len(rounds) < 3 or time.perf_counter() - start < seconds:
            pacer.start_round()
            rnd = workload.run_round()
            rounds.append(pacer.end_round())
            checker.check(rnd)
            probes.append(probe())
    finally:
        del workload.tick
    return rounds, probes


def trace_rounds(workload, checker, seconds: float, keep_spans: bool):
    """Untraced and traced rounds, alternating, and the per-layer table.

    Alternating keeps slow drift of the host out of the tracing
    overhead.  A pooled workload gets a second pool, forked while the
    wrappers are installed, for its traced rounds; its untraced rounds
    keep the pool forked before.  The table is averaged over the traced
    rounds.
    """
    from repro.obs.metrics import scoped_registry

    from spans import SpanRecorder

    rec = SpanRecorder(keep_spans=keep_spans)
    pools = {False: workload.pool, True: workload.pool}
    spinup_s = 0.0
    if workload.pooled:
        rec.install()
        t0 = time.perf_counter()
        pools[True] = workload.new_pool()
        spinup_s = time.perf_counter() - t0
        rec.restore()
    walls = {False: [], True: []}
    tables, spans = [], []
    start = time.perf_counter()
    try:
        while len(walls[True]) < 2 or time.perf_counter() - start < seconds:
            traced = len(walls[True]) < len(walls[False])
            workload.pool = pools[traced]
            if traced:
                rec.install()
                rec.reset()
            try:
                with scoped_registry() as reg:
                    t0 = time.perf_counter()
                    rnd = workload.run_round()
                    wall = time.perf_counter() - t0
                    if traced:
                        rec.count_faults()
                        tables.append(layer_table(rec, reg, wall))
                        spans.extend(rec.spans)
            finally:
                if traced:
                    rec.restore()
            walls[traced].append(wall)
            checker.check(rnd)
    finally:
        workload.pool = pools[False]
        if workload.pooled:
            pools[True].close()
    table = {k: statistics.fmean(t[k] for t in tables) for k in tables[0]}
    table["parallel.spinup_s"] = spinup_s
    return table, walls[False], walls[True], spans


def layer_table(rec, reg, wall: float) -> dict:
    """One traced round's per-layer metrics."""

    def ctr(name, **labels):
        c = reg.counter(name)
        return c.value(**labels) if labels else c.total()

    def ratio(num, den):
        return num / den if den else 0.0

    s, calls, counts = rec.self_s, rec.calls, rec.counts
    hits, misses = ctr("plancache.hits"), ctr("plancache.misses")
    numpy_b, scalar_b = ctr("array.batch_path", path="numpy"), ctr("array.batch_path", path="scalar")
    reads = ctr("sim.requests", kind="read")
    events = ctr("sim.events_dispatched")
    wasted = ctr("sim.request_errors") + ctr("rebuild.timeouts")
    t = {
        "trace.wall_s": wall,
        "core.plan_calls": calls["core.plan"],
        "core.plancache_hits": hits,
        "core.plancache_misses": misses,
        "core.plancache_hit_ratio": ratio(hits, hits + misses),
        "codes.encode_calls": calls["codes.encode"],
        "codes.decode_calls": calls["codes.decode"],
        "raidsim.ctrl_init_calls": calls["raidsim.ctrl_init"],
        "raidsim.read_retries": ctr("rebuild.retries"),
        "raidsim.rerouted_reads": ctr("rebuild.rerouted_reads"),
        "raidsim.read_timeouts": ctr("rebuild.timeouts"),
        "raidsim.read_useful_ratio": ratio(reads - wasted, reads),
        "disksim.submit_batch_calls": calls["disksim.submit_batch"],
        "disksim.batch_ops": counts["disksim.batch_ops"],
        "disksim.coalesce_ratio": ratio(counts["disksim.batch_ops"], counts["disksim.batch_requests"]),
        "disksim.numpy_batches": numpy_b,
        "disksim.scalar_batches": scalar_b,
        "disksim.numpy_batch_share": ratio(numpy_b, numpy_b + scalar_b),
        "disksim.events": events,
        "disksim.requests": ctr("sim.requests"),
        "disksim.host_us_per_event": ratio(rec.incl_s["disksim.run"] * 1e6, events),
        "disksim.drain_fast_calls": calls["disksim.drain_fast"],
        "disksim.faults_injected": counts["disksim.faults_injected"],
        "workloads.arrivals": counts["workloads.arrivals"],
        "workloads.film_calls": calls["workloads.film"],
        "obs.slo_record_calls": calls["obs.slo_record"],
        "parallel.items": counts["parallel.items"],
        "parallel.busy_frac": ratio(rec.worker_busy_s, counts["parallel.capacity_s"]),
        "parallel.pickle_bytes": counts["parallel.pickle_bytes"],
    }
    for name in ROUND_LAYERS_S:
        t[name + "_s"] = s[name]
    t["other_s"] = wall - sum(s[name] for name in ROUND_LAYERS_S)
    return t


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    removed = prepare_environment()
    sys.path.insert(0, str(SRC))
    from suite import PAPER_FIG9_BAND, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (one of {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    calibrated = not threshold_cached()
    expected = json.loads(EXPECTED.read_text()).get(args.workload, {}).get(str(args.seed))
    workload = WORKLOADS[args.workload](args.seed)
    checker = Checker(expected)
    try:
        warm = workload.run_round()  # fills caches, resolves the batch threshold
        checker.check(warm)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "fingerprint": fingerprint(removed, calibrated),
            "unit": workload.unit,
            "units_per_round": warm.units,
            "sim": {k: {"value": v, "unit": u} for k, (v, u) in warm.sim.items()},
            "digests": warm.digests,
            "expected_digests": "checked" if expected is not None else "not recorded for this seed",
        }
        if args.trace:
            table, walls, traced_walls, spans = trace_rounds(
                workload, checker, args.seconds, keep_spans=bool(args.spans)
            )
            probes = [run_probe(args.workload, args.seed) for _ in range(3)]
            table["import.repro_s"] = median(p["import_s"] for p in probes)
            table["obs.trace_overhead"] = median(traced_walls) / median(walls) - 1.0
            metrics = {k: (table[k], PER_LAYER[k]) for k in PER_LAYER}
            record["untraced_walls_s"] = walls
            record["traced_walls_s"] = traced_walls
            if args.spans:
                Path(args.spans).write_text(json.dumps(spans))
        else:
            rounds, probes = timed_rounds(
                workload, checker, args.seconds, SetupProbe(args.workload, args.seed)
            )
            walls = [r["scaled_wall_s"] for r in rounds]
            wall = median(walls)
            values = {
                "setup_s": median(p["scaled_setup_s"] for p in probes),
                "wall_s": wall,
                "cpu_s": median(r["scaled_cpu_s"] for r in rounds),
                "units_per_s": warm.units / wall,
                "peak_rss_mb": peak_rss_mb(),
            }
            metrics = {k: (values[k], END_TO_END[k]) for k in END_TO_END}
            record["rounds"] = rounds
            record["raw_median"] = {
                "setup_s": median(p["setup_s"] for p in probes),
                "wall_s": median(r["wall_s"] for r in rounds),
                "cpu_s": median(r["cpu_s"] for r in rounds),
            }
    finally:
        workload.close()

    correct = checker.failed == 0
    record.update(
        attempted=checker.attempted,
        failed=checker.failed,
        failed_frac=checker.failed / checker.attempted,
        mismatched_groups=sorted(checker.mismatched),
        probes=probes,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{warm.units} {workload.unit} per round, {len(walls)} timed rounds")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    for name, value in record.get("raw_median", {}).items():
        print(f"  {'raw ' + name:<28} {value:>14.6g} s   (unscaled by host speed)")
    for name, (value, unit) in warm.sim.items():
        note = ""
        if name == "sim_rebuild_speedup" and args.workload == "rebuild-offline":
            note = (f"   paper Fig. 9 band {PAPER_FIG9_BAND[0]}-{PAPER_FIG9_BAND[1]}x"
                    " (model unvalidated against hardware)")
        print(f"  {name:<28} {value:>14.6g} {unit}{note}")
    print(f"  failed_frac {record['failed_frac']:.4g} ({checker.failed} of {checker.attempted} units);"
          f" digests {record['expected_digests']}")
    if checker.mismatched:
        print(f"  digest mismatch in: {', '.join(sorted(checker.mismatched))}")
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
