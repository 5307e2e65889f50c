"""Discrete-event engine driving a set of independent disk servers.

Each disk is a single server with its own scheduler queue.  The engine
advances a global clock through request-completion events; completion
callbacks may submit further requests (this is how the RAID layer
implements read-before-write dependencies and windowed reconstruction
pipelines).

The engine is deterministic: ties are broken by event sequence number.

The clock is driven by the opcode calendar of
:mod:`repro.disksim.calendar`: completions are integer-payload events
dispatched through a two-entry opcode table, deferred calls
(``schedule_call``, ``submit_at``) ride the ``OP_CALL`` side table, and
the run loop pops whole same-timestamp batches.  A ``(time, seq,
action, args)`` tuple-heap engine is kept in the test suite as the
reference oracle; ``tests/disksim/test_calendar_property.py`` pins the
two to bit-identical completion order, clocks, busy times and traces.
"""

from __future__ import annotations

from typing import Callable

from ..obs import default_recorder, default_registry, default_tracer, obs_enabled
from ..obs.tracing import Tracer
from .calendar import OP_COMPLETE, TypedCalendar
from .disk import DiskModel, DiskParameters, capacity_error
from .request import IOKind, IORequest
from .scheduler import ElevatorScheduler, Scheduler

__all__ = ["Simulation"]

Callback = Callable[[IORequest], None]


class _SimObs:
    """One simulation's observability hooks.

    Instantiated only when observability is on (or a tracer is
    attached); the engine otherwise carries ``_obs = None`` and its hot
    path pays a single ``is not None`` check per completion — the
    null-sink contract gated by ``perfbench --obs-overhead``.

    A completion bumps plain per-run counts (``n_*`` and its disk's
    queue depth) that :meth:`publish` moves into the ``sim.*`` counters
    and gauges once per :meth:`Simulation.run`, leaving the registry as
    per-completion updates would have.  The latency histogram, the
    flight-recorder series and the spans are fed per completion.
    """

    __slots__ = (
        "group", "qd", "reads", "writes", "bytes_read", "bytes_written", "errors",
        "retries", "latency", "dispatched", "ts_latency",
        "n_reads", "n_writes", "n_bytes_read", "n_bytes_written", "n_errors",
        "n_retries", "depths",
    )

    def __init__(self, sim: "Simulation", trace) -> None:
        reg = default_registry()
        requests = reg.counter("sim.requests", "completed I/O requests by kind")
        self.reads = requests.labels(kind="read")
        self.writes = requests.labels(kind="write")
        moved = reg.counter("sim.bytes", "bytes moved by completed requests")
        self.bytes_read = moved.labels(kind="read")
        self.bytes_written = moved.labels(kind="write")
        self.errors = reg.counter(
            "sim.request_errors", "requests completed carrying an error flag"
        ).labels()
        self.retries = reg.counter(
            "sim.request_retries", "completed requests that were retries (attempt > 0)"
        ).labels()
        self.latency = reg.histogram(
            "sim.request_latency_s", "submit-to-finish latency of completed requests"
        ).labels()
        self.dispatched = reg.counter(
            "sim.events_dispatched", "calendar events popped by the run loop"
        ).labels()
        qd = reg.gauge(
            "sim.queue_depth", "per-disk scheduler queue depth at last completion"
        )
        self.qd = [qd.labels(disk=str(d)) for d in range(len(sim.disks))]
        self.n_reads = self.n_writes = self.n_bytes_read = self.n_bytes_written = 0
        self.n_errors = self.n_retries = 0
        self.depths: dict[int, int] = {}  # disk -> depth at its last completion
        # flight-recorder series: windowed latency over the simulated
        # clock (None when no recorder is installed — one `is not None`
        # per completion, same contract as `_obs` itself)
        rec = sim.recorder
        self.ts_latency = (
            rec.series("sim.latency_s", "request latency over simulated time")
            if rec is not None
            else None
        )
        # a bare Tracer gets its own track group; a TraceGroup (handed
        # down by the RAID controller, already labelled) is used as-is
        group = trace.group("array") if isinstance(trace, Tracer) else trace
        if group is not None:
            for d in range(len(sim.disks)):
                group.name_track(d, f"disk {d}")
        self.group = group

    def on_complete(self, request: IORequest, server: "_DiskServer") -> None:
        """Per-completion counts plus the request's span (if tracing)."""
        if request.kind is IOKind.READ:
            self.n_reads += 1
            self.n_bytes_read += request.size
        else:
            self.n_writes += 1
            self.n_bytes_written += request.size
        if request.error:
            self.n_errors += 1
        if request.attempt:
            self.n_retries += 1
        latency = request.finish_time - request.submit_time
        self.latency.observe(latency)
        ts = self.ts_latency
        if ts is not None:
            ts.observe(request.finish_time, latency)
        self.depths[request.disk] = len(server.scheduler)
        group = self.group
        if group is not None:
            args = {
                "kind": request.kind.value,
                "tag": request.tag,
                "attempt": request.attempt,
                "priority": request.priority,
                "bytes": request.size,
            }
            if request.error:
                args["error"] = request.error_kind
            group.complete(
                request.tag or request.kind.value,
                request.start_time,
                request.finish_time - request.start_time,
                pid=request.disk,
                cat="io",
                **args,
            )

    def publish(self, dispatched: int) -> None:
        """Move one run's counts into the registry."""
        for bound, n in (
            (self.dispatched, dispatched),
            (self.reads, self.n_reads),
            (self.bytes_read, self.n_bytes_read),
            (self.writes, self.n_writes),
            (self.bytes_written, self.n_bytes_written),
            (self.errors, self.n_errors),
            (self.retries, self.n_retries),
        ):
            if n:
                bound.inc(n)
        self.n_reads = self.n_writes = self.n_bytes_read = self.n_bytes_written = 0
        self.n_errors = self.n_retries = 0
        for disk, depth in self.depths.items():
            self.qd[disk].set(depth)
        self.depths.clear()


class _DiskServer:
    """One disk plus its queue and busy state."""

    __slots__ = ("model", "scheduler", "busy", "current")

    def __init__(self, model: DiskModel, scheduler: Scheduler) -> None:
        self.model = model
        self.scheduler = scheduler
        self.busy = False
        self.current: IORequest | None = None


class Simulation:
    """Event-driven simulation of an array of disks.

    Parameters
    ----------
    n_disks:
        Number of disks, ids ``0 .. n_disks - 1``.
    params:
        Disk parameters shared by all disks (homogeneous array, as in
        the paper's testbed).
    scheduler_factory:
        Zero-argument callable producing a fresh scheduler per disk;
        defaults to the elevator.
    """

    #: the event calendar driving the engine — a constant since the
    #: engine has a single calendar; benchmark run fingerprints still
    #: record it, so records from before and after compare as like
    calendar_kind = "typed"

    def __init__(
        self,
        n_disks: int,
        params: DiskParameters | None = None,
        scheduler_factory: Callable[[], Scheduler] = ElevatorScheduler,
        faults=None,
        tracer=None,
        recorder=None,
    ) -> None:
        if n_disks < 1:
            raise ValueError(f"need at least one disk, got {n_disks}")
        self.params = params if params is not None else DiskParameters.savvio_10k3()
        #: optional fault model: a
        #: :class:`repro.disksim.faults.LatentSectorErrors` or the
        #: richer :class:`repro.disksim.faultplan.ActiveFaults` (duck
        #: typed — ``on_completion`` is required, ``service_factor``
        #: consulted when present)
        self.faults = faults
        #: hoisted fail-slow hook — resolving the attribute once instead
        #: of a ``getattr`` per request start
        self._service_factor = getattr(faults, "service_factor", None)
        self.disks = [
            _DiskServer(DiskModel(d, self.params), scheduler_factory())
            for d in range(n_disks)
        ]
        self._capacity = self.params.capacity_bytes
        #: requests submitted and not yet completed (queued or in service)
        self._pending = 0
        self.now: float = 0.0
        self._cal = TypedCalendar()
        self._seq = 0
        self.completed: list[IORequest] = []
        self._callbacks: dict[int, Callback] = {}
        #: observability hooks: a ``_SimObs`` when metrics/tracing are
        #: on, else ``None`` — the null-sink fast path.  ``tracer`` may
        #: be a :class:`~repro.obs.tracing.Tracer` or an
        #: already-labelled :class:`~repro.obs.tracing.TraceGroup`;
        #: with no explicit tracer the process default tracer applies,
        #: and ``tracer=False`` opts this simulation out of tracing
        #: even when a default tracer is installed.
        if tracer is False:
            trace = None
        elif tracer is not None:
            trace = tracer
        else:
            trace = default_tracer()
        #: flight recorder for simulated-time windowed timeseries.
        #: ``recorder=False`` opts out; with no explicit recorder the
        #: process default applies — which is ``None`` under
        #: ``REPRO_OBS=0``, so recording is skipped entirely.  The
        #: engine advances the recorder's windows once per ``run()``
        #: call, in the run loop's finally block.
        if recorder is False:
            self.recorder = None
        elif recorder is not None:
            self.recorder = recorder
        else:
            self.recorder = default_recorder()
        self._obs = (
            _SimObs(self, trace) if (trace is not None or obs_enabled()) else None
        )

    # ------------------------------------------------------------------
    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` ``delay`` seconds from now."""
        self.schedule_call(delay, action)

    def schedule_call(self, delay: float, action: Callable[..., None], *args) -> None:
        """Run ``action(*args)`` ``delay`` seconds from now.

        Passing the arguments through the event instead of a closure
        keeps hot paths allocation-light.  This is the calendar's fully
        general ``OP_CALL`` escape hatch (the callable lives in a side
        table); completions scheduled by the engine itself take the
        integer-payload fast path.
        """
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self._seq += 1
        self._cal.push_call(self.now + delay, self._seq, action, args)

    def submit(self, request: IORequest, callback: Callback | None = None) -> None:
        """Enqueue a request on its disk, starting service if idle."""
        self.submit_many((request,), callback)

    def submit_many(self, requests, callback: Callback | None = None) -> None:
        """Enqueue a sequence of requests in one engine call, in order.

        Idle disks start serving as soon as their first request lands,
        so scheduler decisions equal those of one submit per request.
        A request for an unknown disk, or one ending past the disk's
        capacity, raises ``ValueError`` before any request is enqueued.
        """
        disks = self.disks
        n = len(disks)
        capacity = self._capacity
        for request in requests:
            if not 0 <= request.disk < n:
                raise ValueError(f"request targets unknown disk {request.disk}")
            if request.offset + request.size > capacity:
                raise capacity_error(request, capacity)
        callbacks = self._callbacks
        now = self.now
        self._pending += len(requests)
        for request in requests:
            request.submit_time = now
            if callback is not None:
                callbacks[request.req_id] = callback
            server = disks[request.disk]
            server.scheduler.add(request)
            if not server.busy:
                self._start_next(server)

    def submit_at(self, time: float, request: IORequest, callback: Callback | None = None) -> None:
        """Submit a request at an absolute future simulation time."""
        if time < self.now:
            raise ValueError(f"cannot submit in the past ({time} < {self.now})")
        self.schedule_call(time - self.now, self.submit, request, callback)

    def submit_many_at(
        self, time: float, requests, callback: Callback | None = None
    ) -> None:
        """Submit a pre-built batch at an absolute future simulation time.

        The open-loop arrival primitive: the batch lands on the disks at
        its arrival instant regardless of what is still in flight — no
        completion backpressure — and drains through
        :meth:`submit_many`.  Arrival scheduling rides the calendar's
        ``OP_CALL`` path, so interleaved completions keep their
        deterministic (time, seq) order.
        """
        if time < self.now:
            raise ValueError(f"cannot submit in the past ({time} < {self.now})")
        self.schedule_call(time - self.now, self.submit_many, requests, callback)

    # ------------------------------------------------------------------
    def _start_next(self, server: _DiskServer) -> None:
        if server.busy or not server.scheduler:
            return
        request = server.scheduler.pop(server.model.head_position)
        duration = server.model.serve(request)
        if self._service_factor is not None:
            factor = self._service_factor(request.disk, self.now)
            if factor != 1.0:
                # fail-slow inflation counts as busy time too
                server.model.busy_time += duration * (factor - 1.0)
                duration *= factor
        request.start_time = self.now
        finish = self.now + duration
        request.finish_time = finish
        server.busy = True
        server.current = request
        self._seq += 1
        self._cal.push(finish, self._seq, OP_COMPLETE, request.disk)

    def _complete(self, server: _DiskServer, request: IORequest) -> None:
        self._pending -= 1
        server.busy = False
        server.current = None
        if self.faults is not None:
            self.faults.on_completion(request)
        self.completed.append(request)
        if self._obs is not None:
            self._obs.on_complete(request, server)
        cb = self._callbacks.pop(request.req_id, None)
        if cb is not None:
            cb(request)
        self._start_next(server)

    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> float:
        """Process events until quiescence (or ``until``); returns the clock.

        The clock is monotone: ``until`` earlier than ``now`` is a no-op
        (time never moves backwards), and an idle engine still advances
        to ``until`` — ``run(until=t)`` on an empty calendar models
        waiting out wall-clock time with no I/O in flight.  Each step
        pops the whole earliest-timestamp batch and dispatches it by
        opcode in ``seq`` order.
        """
        if until is not None and until <= self.now:
            return self.now
        cal = self._cal
        obs = self._obs
        disks = self.disks
        take_call = cal.take_call
        pop_batch = cal.pop_batch
        heap = cal._heap
        dispatched = 0
        try:
            while heap:
                t = heap[0][0]
                if until is not None and t > until:
                    self.now = until
                    return self.now
                self.now = t
                for _t, seq, opcode, arg0 in pop_batch():
                    dispatched += 1
                    if opcode == OP_COMPLETE:
                        server = disks[arg0]
                        self._complete(server, server.current)
                    else:
                        action, args = take_call(seq)
                        action(*args)
            if until is not None and until > self.now:
                self.now = until
            return self.now
        finally:
            # metrics reach the registry once per run() call, not per event
            if obs is not None:
                obs.publish(dispatched)
            rec = self.recorder
            if rec is not None:
                rec.advance_to(self.now)

    def max_finish_time_since(self, index: int, default: float = 0.0) -> float:
        """Latest completion time among ``completed[index:]`` — O(1).

        ``completed`` is append-only in event-pop order and the clock
        is monotone, so finish times are non-decreasing along the log:
        the tail's maximum is simply its last entry.  The rebuild loop
        asks this after every pass; the old linear re-scan of the tail
        made that aggregation quadratic in the number of requests.
        """
        completed = self.completed
        if len(completed) > index:
            latest = completed[-1].finish_time
            if latest > default:
                return latest
        return default

    # ------------------------------------------------------------------
    @property
    def n_disks(self) -> int:
        return len(self.disks)

    def disk(self, disk_id: int) -> DiskModel:
        return self.disks[disk_id].model

    @property
    def total_bytes_read(self) -> int:
        return sum(s.model.bytes_read for s in self.disks)

    @property
    def total_bytes_written(self) -> int:
        return sum(s.model.bytes_written for s in self.disks)

    def pending_count(self) -> int:
        """Requests submitted and not yet completed: queued or in service."""
        return self._pending
