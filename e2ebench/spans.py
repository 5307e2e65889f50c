"""Span recorder for the traced pass: per-layer host time of the program.

:class:`SpanRecorder` wraps public functions of the program at class or
module level (see :data:`TARGETS`), times every call into them, and
derives each layer's *self* time: a span's duration minus the time its
child spans cover.  The program itself is not modified; the wrappers
are installed for each traced round and restored after it.

Spans of a pooled map run in the pool's workers.  The recorder wraps
``WorkerPool.map`` too: every item is sent as an :class:`_InWorker`
call that traces it in the worker (the workers are forked after the
wrappers are installed, so they inherit them) and returns the worker's
per-layer totals with the result.  Worker self time is folded into the
parent's table as its share of the pool's capacity (divided by the
worker count), and the rest of the map's wall time stays with
``parallel.map``, so the table still sums to the parent's wall time.
"""

from __future__ import annotations

import importlib
import pickle
import sys
import time
from collections import defaultdict

perf = time.perf_counter

#: ``span name -> [(module, attribute path), ...]`` of the wrapped
#: public functions; a span name is the per-layer metric stem
TARGETS = {
    "core.plan": [
        ("repro.core.plancache", "PlanCache.plan"),
        ("repro.core.plancache", "PlanCache.phases"),
        ("repro.core.plancache", "PlanCache.read_rounds"),
    ],
    "codes.encode": [
        ("repro.codes.rdp", "RDP.encode"),
        ("repro.codes.evenodd", "EvenOdd.encode"),
        ("repro.codes.xcode", "XCode.encode"),
    ],
    "codes.decode": [
        ("repro.codes.rdp", "RDP.decode"),
        ("repro.codes.evenodd", "EvenOdd.decode"),
        ("repro.codes.xcode", "XCode.decode"),
    ],
    "raidsim.ctrl_init": [("repro.raidsim.controller", "RaidController.__init__")],
    "raidsim.rebuild": [("repro.raidsim.controller", "RaidController.rebuild")],
    "raidsim.online": [("repro.raidsim.reconstruction", "OnlineReconstruction.run")],
    "raidsim.write": [("repro.raidsim.controller", "RaidController.run_write_workload")],
    "raidsim.verify": [("repro.raidsim.controller", "RaidController.verify_redundancy")],
    "disksim.submit_batch": [("repro.disksim.array", "ElementArray.submit_batch")],
    "disksim.run": [("repro.disksim.events", "Simulation.run")],
    "disksim.drain_fast": [("repro.disksim.calendar", "TypedCalendar.drain_completions")],
    "disksim.fault_activate": [("repro.disksim.faultplan", "FaultPlan.activate")],
    "workloads.arrivals": [("repro.workloads.openloop", "open_arrivals")],
    "workloads.user_stream": [("repro.workloads.generator", "user_read_stream")],
    "workloads.film": [("repro.workloads.film", "FilmSource.element")],
    "workloads.write_ops": [("repro.workloads.generator", "random_large_writes")],
    "obs.slo_record": [("repro.workloads.openloop", "SLOAccountant.record")],
    "obs.recorder": [
        ("repro.obs.timeseries", "TimeSeries.observe"),
        ("repro.obs.timeseries", "TimelineRecorder.advance_to"),
        ("repro.obs.timeseries", "TimelineRecorder.snapshot"),
        ("repro.obs.timeseries", "TimelineRecorder.merge"),
    ],
    "obs.registry_merge": [("repro.obs.metrics", "MetricsRegistry.merge")],
}

#: the recorder installed in this process; pool workers forked while it
#: is installed find their inherited copy here
_installed: "SpanRecorder | None" = None


def _count_result(rec: "SpanRecorder", name: str, args, out) -> None:
    """Extra counts taken where the work happens."""
    if name == "disksim.submit_batch":
        rec.counts["disksim.batch_ops"] += len(args[1])
        rec.counts["disksim.batch_requests"] += len(out)
    elif name == "workloads.arrivals":
        rec.counts["workloads.arrivals"] += len(out)
    elif name == "disksim.fault_activate":
        rec.active_faults.append(out)


_COUNTED = {"disksim.submit_batch", "workloads.arrivals", "disksim.fault_activate"}


class SpanRecorder:
    """In-memory spans with per-name self time, call counts and counts."""

    def __init__(self, keep_spans: bool = False) -> None:
        self.keep_spans = keep_spans
        self._saved: list = []
        self.reset()

    def reset(self) -> None:
        #: open spans: ``[name, start, child seconds]``
        self.stack: list = []
        self.self_s: dict = defaultdict(float)
        self.incl_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(float)
        #: ``(name, start, duration, depth)`` when ``keep_spans``
        self.spans: list = []
        #: ``ActiveFaults`` built during the pass (their injection
        #: counters are read when the pass ends)
        self.active_faults: list = []
        self.worker_busy_s = 0.0

    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn):
        rec = self
        counted = name in _COUNTED

        def wrapper(*args, **kwargs):
            stack = rec.stack
            frame = [name, perf(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - frame[1]
                stack.pop()
                rec.self_s[name] += dt - frame[2]
                rec.incl_s[name] += dt
                rec.calls[name] += 1
                if stack:
                    stack[-1][2] += dt
                if rec.keep_spans:
                    rec.spans.append((name, frame[1], dt, len(stack)))
            if counted:
                _count_result(rec, name, args, out)
            return out

        wrapper.__wrapped__ = fn
        for attr in ("__name__", "__qualname__", "__module__", "__doc__"):
            setattr(wrapper, attr, getattr(fn, attr, None))
        return wrapper

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self._wrap(name, fn)(*args, **kwargs)

    def install(self) -> None:
        """Wrap every target, where it is defined and where it is imported."""
        global _installed
        for name, targets in TARGETS.items():
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                orig = owner.__dict__[attr]
                wrapped = self._wrap(name, orig)
                self._patch(owner, attr, orig, wrapped)
                if not outer:
                    # a module-level function is also bound by name in
                    # every module that imported it
                    for mod in list(sys.modules.values()):
                        if (
                            getattr(mod, "__name__", "").startswith("repro")
                            and mod is not owner
                            and getattr(mod, attr, None) is orig
                        ):
                            self._patch(mod, attr, orig, wrapped)
        from repro.parallel import WorkerPool

        self._patch(WorkerPool, "map", WorkerPool.map, self._wrap_pool_map(WorkerPool.map))
        _installed = self

    def restore(self) -> None:
        global _installed
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        _installed = None

    def _patch(self, owner, attr, orig, wrapped) -> None:
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrapped)

    # ------------------------------------------------------------------
    def _wrap_pool_map(self, orig_map):
        rec = self

        def traced_map(pool, fn, items, chunksize=1, on_result=None):
            work = list(items)
            if pool.n_workers <= 1 or len(work) <= 1:
                return rec.span("parallel.map", orig_map, pool, fn, work, chunksize, on_result)
            rec.counts["parallel.items"] += len(work)
            rec.counts["parallel.pickle_bytes"] += sum(len(pickle.dumps(x)) for x in work)

            def unpack(res):
                out, worker, busy_s, out_bytes = res
                rec.merge_worker(worker, busy_s, pool.n_workers)
                rec.counts["parallel.pickle_bytes"] += out_bytes
                if on_result is not None:
                    on_result(out)

            t0 = perf()
            results = rec.span(
                "parallel.map", orig_map, pool, _InWorker(fn), work, chunksize, unpack
            )
            rec.counts["parallel.capacity_s"] += (perf() - t0) * pool.n_workers
            return [r[0] for r in results]

        return traced_map

    def worker_totals(self) -> dict:
        self.count_faults()
        return {
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def merge_worker(self, worker: dict, busy_s: float, n_workers: int) -> None:
        """Fold one worker item's totals in as a share of pool capacity."""
        share = 1.0 / n_workers
        for name, s in worker["self_s"].items():
            self.self_s[name] += s * share
        # inclusive time stays in host seconds summed over processes
        for name, s in worker["incl_s"].items():
            self.incl_s[name] += s
        for name, c in worker["calls"].items():
            self.calls[name] += c
        for name, c in worker["counts"].items():
            self.counts[name] += c
        self.worker_busy_s += busy_s
        # the capacity share the worker spent on this item is no longer
        # unexplained map time
        self.self_s["parallel.map"] -= busy_s * share

    def count_faults(self) -> None:
        for faults in self.active_faults:
            c = faults.counters
            self.counts["disksim.faults_injected"] += (
                c.transient_errors + c.lse_read_errors + c.dead_disk_errors + c.slowed_requests
            )
        self.active_faults.clear()


class _InWorker:
    """One pool item, traced inside the worker that runs it."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def __call__(self, item):
        rec = _installed
        rec.reset()
        t0 = perf()
        out = self.fn(item)
        busy_s = perf() - t0
        return out, rec.worker_totals(), busy_s, len(pickle.dumps(out))
