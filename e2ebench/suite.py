"""The benchmark's workloads: seeded inputs, one timed round, checked outputs.

Each workload turns a seed into a fixed list of inputs at construction
and replays the whole list in every :meth:`Workload.run_round`, so the
rounds of one run do identical simulated work and their host times are
comparable.  A round returns a :class:`Round`: how many units it did,
which units failed, a digest per group of units over simulated values
only (never host timings), and the workload's simulated metrics.

The program is driven only through its public functions:
``raidsim.availability.measure_case``, ``raidsim.writes.
measure_write_throughput``, ``raidsim.serve.compare_serve`` and
``raidsim.campaign.compare_sweep`` on a ``parallel.WorkerPool``.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import traceback
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from repro.core.registry import build_layout, comparison_pair
from repro.parallel import WorkerPool
from repro.raidsim.availability import measure_case
from repro.raidsim.campaign import clean_rebuild_makespan, compare_sweep
from repro.raidsim.serve import ServeConfig, compare_serve
from repro.raidsim.writes import measure_write_throughput
from repro.workloads.openloop import TenantSpec

#: the paper's measured Fig. 9 improvement band (shifted over
#: traditional reconstruction read throughput), printed beside the
#: simulated speed-up; the model is unvalidated against hardware
PAPER_FIG9_BAND = (1.54, 4.55)

#: worker processes of the pooled workload (nproc of the 2-core reference host)
POOL_WORKERS = 2


def digest(value) -> str:
    """Short SHA-256 of simulated values; floats hash by their exact bits."""

    def canon(x):
        if isinstance(x, float):
            return x.hex()
        if isinstance(x, (list, tuple)):
            return [canon(v) for v in x]
        if isinstance(x, dict):
            return {str(k): canon(v) for k, v in x.items()}
        if isinstance(x, np.generic):
            return canon(x.item())
        return x

    blob = json.dumps(canon(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class Round:
    """What one round did: units, failures, digests, simulated metrics."""

    units: int = 0
    #: ``(unit group, units lost)`` for every failed unit group
    failures: list = field(default_factory=list)
    #: digest of the simulated outcome per unit group
    digests: dict = field(default_factory=dict)
    #: units per unit group, so a digest mismatch fails the right count
    group_units: dict = field(default_factory=dict)
    #: simulated metrics, ``name -> (value, unit)``
    sim: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(n for _, n in self.failures)

    def add(self, group: str, units: int, outcome, failed: int = 0) -> None:
        """Record ``units`` of work whose simulated outcome is ``outcome``."""
        self.units += units
        self.group_units[group] = self.group_units.get(group, 0) + units
        self.digests[group] = digest([self.digests.get(group, ""), outcome])
        if failed:
            self.failures.append((group, failed))

    def crashed(self, group: str, units: int) -> None:
        traceback.print_exc(file=sys.stderr)
        self.add(group, units, "raised", failed=max(units, 1))


def _mean(xs) -> float:
    return float(np.mean(xs)) if len(xs) else math.nan


class Workload:
    """A seeded workload; subclasses set the class attributes below."""

    name = ""
    #: what one unit of work is (``units_per_s`` counts these)
    unit = ""
    #: whether rounds fan out over ``self.pool``, built by ``new_pool``
    pooled = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pool: WorkerPool | None = None

    def run_round(self) -> Round:
        raise NotImplementedError

    def tick(self) -> None:
        """Called between units of a round; a timed run paces its host-speed reference here."""

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None


class RebuildOffline(Workload):
    """Fig. 9 and ext-RAID-6 failure enumeration on fresh, fault-free arrays.

    Every single failure of traditional and shifted mirror and every
    double failure of traditional and shifted mirror+parity for
    ``n = 3..7``, plus every double failure of RDP RAID-6 for
    ``n = 3..5``: 736 byte-verified rebuilds per round.  The seed
    shuffles the case order and draws each failure case's stripe count
    (4..12), shared by both arrangements so their makespans compare.
    """

    name = "rebuild-offline"
    unit = "cases"
    MIRROR_N = range(3, 8)
    RAID6_N = range(3, 6)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 9]))
        groups = [
            (fam, n, k)
            for n in self.MIRROR_N
            for fam, k in (("mirror", 1), ("mirror-parity", 2))
        ] + [("raid6-rdp", n, 2) for n in self.RAID6_N]
        cases = []
        for fam, n, k in groups:
            names = (fam,) if fam == "raid6-rdp" else comparison_pair(fam)
            n_disks = build_layout(names[0], n).n_disks
            for failed in combinations(range(n_disks), k):
                stripes = int(rng.integers(4, 13))
                cases.extend((name, n, failed, stripes) for name in names)
        order = rng.permutation(len(cases))
        self.cases = [cases[i] for i in order]

    def run_round(self) -> Round:
        rnd = Round()
        makespans: dict = {}
        shifted_mbps = []
        all_makespans = []
        for name, n, failed, stripes in self.cases:
            group = f"{name}/n={n}"
            try:
                res = measure_case(build_layout(name, n), failed, n_stripes=stripes)
            except Exception:
                rnd.crashed(group, 1)
                continue
            outcome = [
                list(failed), stripes, res.makespan_s, res.bytes_read,
                res.bytes_written, res.recovered_bytes, res.verified,
                res.max_read_accesses_per_stripe,
            ]
            rnd.add(group, 1, outcome, failed=int(not res.verified))
            self.tick()
            makespans[(name, n, failed)] = res.makespan_s
            all_makespans.append(res.makespan_s)
            if name.startswith("shifted-"):
                shifted_mbps.append(res.read_throughput_mbps)
        trad = shif = 0.0
        for (name, n, failed), t in makespans.items():
            if name.startswith("shifted-"):
                continue
            s = makespans.get(("shifted-" + name, n, failed))
            if s is not None and name != "raid6-rdp":
                trad += t
                shif += s
        rnd.sim = {
            "sim_rebuild_s": (_mean(all_makespans), "s"),
            "sim_rebuild_speedup": (trad / shif if shif > 0 else math.nan, "x"),
            "sim_recon_read_mbps": (_mean(shifted_mbps), "MB/s"),
        }
        return rnd


class WriteMix(Workload):
    """Fig. 10 random large writes on the four mirror layouts.

    Traditional and shifted mirror and mirror+parity for ``n = 3..6``
    under both ``rmw`` and ``reconstruct`` parity updates: 32 points of
    250 writes, each between one element and a whole stripe, with
    ``verify_redundancy`` after every point.  The seed draws one op
    sequence per ``n``, shared by all four layouts and both strategies.
    """

    name = "write-mix"
    unit = "write ops"
    LAYOUTS = ("mirror", "shifted-mirror", "mirror-parity", "shifted-mirror-parity")
    N_VALUES = range(3, 7)
    STRATEGIES = ("rmw", "reconstruct")
    N_OPS = 250

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.op_seeds = {
            n: int(np.random.SeedSequence([seed, n]).generate_state(1)[0])
            for n in self.N_VALUES
        }

    def run_round(self) -> Round:
        rnd = Round()
        mbps = []
        for n in self.N_VALUES:
            for strategy in self.STRATEGIES:
                for name in self.LAYOUTS:
                    group = f"{name}/n={n}/{strategy}"
                    try:
                        p = measure_write_throughput(
                            build_layout(name, n),
                            n_ops=self.N_OPS,
                            strategy=strategy,
                            seed=self.op_seeds[n],
                        )
                    except Exception:
                        rnd.crashed(group, self.N_OPS)
                        continue
                    outcome = [p.n_ops, p.write_throughput_mbps, p.redundancy_intact]
                    rnd.add(group, p.n_ops, outcome, failed=0 if p.redundancy_intact else p.n_ops)
                    mbps.append(p.write_throughput_mbps)
                    self.tick()
        rnd.sim = {"sim_write_mbps": (_mean(mbps), "MB/s")}
        return rnd


class ServeOpen(Workload):
    """Open-loop multi-tenant reads served during a mirror rebuild.

    Four serve runs per round, each ``compare_serve`` on the mirror
    family at ``n = 5`` over 384 stripes, with a Poisson tenant and a
    bursty (MMPP) tenant, both zipf-skewed, at 20 reads/s in total: the
    shifted array keeps up without a growing backlog at this rate (its
    p99 stays near 1.1 s from 64 to 1024 stripes).  Latency runs from
    each read's scheduled arrival on the simulated clock.  The seed
    derives the eight arrival-stream seeds.
    """

    name = "serve-open"
    unit = "served reads"
    RUNS = 4
    STRIPES = 384
    RATE_PER_S = 20.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        tenants = (
            TenantSpec("viewers", 0.6 * self.RATE_PER_S, "poisson", zipf_s=0.8),
            TenantSpec(
                "batch", 0.4 * self.RATE_PER_S, "bursty", zipf_s=1.1,
                burst_on_s=0.5, burst_off_s=1.5,
            ),
        )
        seeds = np.random.SeedSequence([seed, 5]).generate_state(self.RUNS)
        self.configs = [
            ServeConfig(
                family="mirror", n=5, n_stripes=self.STRIPES, seed=int(s), tenants=tenants
            )
            for s in seeds
        ]

    def run_round(self) -> Round:
        rnd = Round()
        p50, p99, makespans, trad_makespans = [], [], [], []
        for idx, cfg in enumerate(self.configs):
            try:
                cmp_ = compare_serve(cfg)
            except Exception:
                rnd.crashed(f"run{idx}", 0)
                continue
            for side in (cmp_.traditional, cmp_.shifted):
                slo = side.slo
                outcome = [
                    side.layout_name, side.n_arrivals, side.rebuild_makespan_s,
                    side.rebuild_verified, side.degraded_reads, side.failed_reads,
                    side.availability, slo.served, slo.failed, slo.deadline_misses,
                    slo.p50_s, slo.p99_s, slo.p999_s, slo.mean_s, slo.max_s,
                    slo.goodput_rps, [list(t) for t in slo.per_tenant_served],
                ]
                # a read that failed is lost; an unverified rebuild
                # fails every read served during it
                lost = side.failed_reads if side.rebuild_verified else slo.served
                rnd.add(f"run{idx}/{side.layout_name}", slo.served, outcome, failed=lost)
            p50.append(cmp_.shifted.slo.p50_s * 1e3)
            p99.append(cmp_.shifted.slo.p99_s * 1e3)
            makespans.append(cmp_.shifted.rebuild_makespan_s)
            trad_makespans.append(cmp_.traditional.rebuild_makespan_s)
            self.tick()
        rnd.sim = {
            "sim_read_p50_ms": (_mean(p50), "ms"),
            "sim_read_p99_ms": (_mean(p99), "ms"),
            "sim_rebuild_s": (_mean(makespans), "s"),
            "sim_rebuild_speedup": (
                sum(trad_makespans) / sum(makespans) if makespans else math.nan, "x"
            ),
        }
        return rnd


class FaultSweep(Workload):
    """Seeded fault storms on mirror+parity, fanned over a 2-worker pool.

    Each round is one ``compare_sweep`` of 48 storms at ``n = 4`` over 12
    stripes.  A storm combines transient read errors, an LSE burst, a
    fail-slow disk and a second whole-disk failure halfway through the
    clean rebuild, under 30 user reads/s.  The pool is persistent and
    shares the film block with its workers.  The seed is the sweep's
    root seed.
    """

    name = "fault-sweep"
    unit = "sweep points"
    pooled = True
    FAMILY = "mirror-parity"
    N = 4
    STRIPES = 12
    POINTS = 48
    FILM_SEED = 2012
    PAYLOAD_BYTES = 16

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.layouts = [build_layout(name, self.N) for name in comparison_pair(self.FAMILY)]
        half = 0.5 * clean_rebuild_makespan(self.layouts[0], (0,), n_stripes=self.STRIPES)
        self.plan_kwargs = dict(
            lse_burst=4,
            transient_rate=0.05,
            fail_slow_multiplier=4.0,
            second_failure_time_s=half,
        )
        self.pool = self.new_pool()

    def new_pool(self) -> WorkerPool:
        """A spun-up pool whose workers map the shared film block."""
        pool = WorkerPool(POOL_WORKERS)
        n_i = max(lay.n for lay in self.layouts)
        n_j = max(getattr(lay, "data_rows", lay.rows) for lay in self.layouts)
        pool.share_film(self.FILM_SEED, self.PAYLOAD_BYTES, self.STRIPES, n_i, n_j)
        # the executor forks lazily: one tiny map starts every worker
        pool.map(abs, range(POOL_WORKERS))
        return pool

    def run_round(self) -> Round:
        rnd = Round()
        try:
            sweep = compare_sweep(
                self.FAMILY,
                self.N,
                n_seeds=self.POINTS,
                root_seed=self.seed,
                pool=self.pool,
                plan_kwargs=self.plan_kwargs,
                failed_disks=(0,),
                n_stripes=self.STRIPES,
                payload_bytes=self.PAYLOAD_BYTES,
                user_read_rate_per_s=30.0,
            )
        except Exception:
            rnd.crashed("sweep", self.POINTS)
            return rnd
        avail, makespans, trad_ok, shif_ok = [], [], [], []
        for p in sweep.points:
            outcome = [p.fault_seed, p.user_read_seed]
            ok = True
            for side in (p.comparison.traditional, p.comparison.shifted):
                r, on, fs = side.rebuild, side.online, side.fault_stats
                outcome.append([
                    side.layout_name, r.makespan_s, r.bytes_read, r.verified,
                    r.aborted, on.n_user_reads, on.failed_user_reads,
                    on.degraded_reads, on.mean_user_latency_s, side.availability,
                    side.data_survival, fs.retries, fs.rerouted_reads, fs.timeouts,
                    fs.transient_errors, fs.healed_lses, len(fs.lost_columns),
                    list(fs.mid_rebuild_failures),
                ])
                # a rebuild that lost no column must be byte-verified;
                # one that lost columns reports the loss, which is a
                # simulated outcome of the storm, not a failure
                ok &= r.verified or r.aborted
            rnd.add(f"point{p.seed_index}", 1, outcome, failed=int(not ok))
            tr, sh = p.comparison.traditional, p.comparison.shifted
            avail.append(sh.availability)
            makespans.append(sh.rebuild.makespan_s)
            if not (tr.rebuild.aborted or sh.rebuild.aborted):
                trad_ok.append(tr.rebuild.makespan_s)
                shif_ok.append(sh.rebuild.makespan_s)
        speedup = sum(trad_ok) / sum(shif_ok) if shif_ok else math.nan
        rnd.sim = {
            "sim_availability": (_mean(avail), "ratio"),
            "sim_rebuild_s": (_mean(makespans), "s"),
            "sim_rebuild_speedup": (speedup, "x"),
        }
        return rnd


WORKLOADS = {w.name: w for w in (RebuildOffline, WriteMix, ServeOpen, FaultSweep)}
