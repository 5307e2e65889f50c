"""Element-granular disk array on top of the event engine.

:class:`ElementArray` is the substrate the RAID layer drives: an array
of identical disks addressed in fixed-size *elements* (the paper uses
4 MB).  It provides batch submission, dependency-free barriers and the
strict parallel-round execution mode that realises the paper's
"one element per disk per access" model.

Batch submission contract
-------------------------
Both :meth:`ElementArray.submit_elements` and the vectorized
:meth:`ElementArray.submit_batch` **coalesce**: repeated ``(disk,
slot)`` operations deduplicate and contiguous slots on one disk merge
into a single larger request, exactly like the I/O merging real block
layers perform.  Consequences callers must honour:

* the returned :class:`BatchSubmission` (a list of the actual
  :class:`~repro.disksim.request.IORequest` objects) is the
  *authoritative* batch — its length may be smaller than the number of
  submitted operations;
* the per-request ``callback`` fires once per **coalesced request**,
  never once per operation — counting callback firings against the
  operation count miscounts;
* ``on_complete`` fires exactly once when the whole batch settled
  (immediately for an empty batch) and is the right completion hook;
* :meth:`BatchSubmission.op_requests` maps every submitted operation
  (in input order) to the request that covers it, for callers that do
  need per-operation attribution.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..obs import default_registry, obs_enabled
from .disk import DiskParameters
from .events import Simulation
from .request import IOKind, IORequest
from .scheduler import ElevatorScheduler, Scheduler
from .trace import TraceStats, summarize

__all__ = [
    "ElementArray",
    "BatchSubmission",
    "DEFAULT_ELEMENT_SIZE",
]

_MB = 1024 * 1024

#: 4 MB, "a typical choice in storage systems" (§VII citing Atropos).
DEFAULT_ELEMENT_SIZE = 4 * _MB

#: below this many ops the tuned scalar coalescer beats numpy's fixed
#: per-call overhead (asarray/lexsort on tiny inputs).  Calibrated per
#: machine by :mod:`repro.disksim.autotune` at the first batch that has
#: to make the choice; ``REPRO_BATCH_THRESHOLD`` pins it explicitly.
_numpy_min_ops: int | None = None


def _resolve_numpy_min_ops() -> int:
    global _numpy_min_ops
    if _numpy_min_ops is None:
        from .autotune import batch_threshold

        _numpy_min_ops = batch_threshold()
    return _numpy_min_ops


class BatchSubmission(list):
    """The coalesced requests of one batch submission.

    A plain ``list`` of :class:`~repro.disksim.request.IORequest` (the
    authoritative batch — see the module docstring for the coalescing
    contract) plus the operation→request mapping.
    """

    __slots__ = ("_op_req_index",)

    def __init__(self, requests=(), op_req_index=None) -> None:
        super().__init__(requests)
        #: request index (into ``self``) covering each input op, in
        #: input order; ``None`` when the submission had no op list
        self._op_req_index = op_req_index

    def op_requests(self) -> list[IORequest]:
        """The request covering each submitted op, in input order.

        Repeated or contiguous ops map to the same request object, so
        ``len(op_requests()) >= len(self)`` in general — this is the
        mapping callers should use to attribute a completion back to
        the operations that asked for it.
        """
        if self._op_req_index is None:
            raise ValueError("this submission did not record an op mapping")
        return [self[k] for k in self._op_req_index]


class _BatchGroup:
    """Per-request callback that fires ``on_complete`` once at the end.

    One slotted object per batch instead of a closure cell — this
    callback runs once per request on the engine's hot path.
    """

    __slots__ = ("remaining", "user_cb", "on_complete")

    def __init__(self, remaining: int, user_cb, on_complete) -> None:
        self.remaining = remaining
        self.user_cb = user_cb
        self.on_complete = on_complete

    def __call__(self, req: IORequest) -> None:
        if self.user_cb is not None:
            self.user_cb(req)
        self.remaining -= 1
        if self.remaining == 0:
            self.on_complete()


class _ArrayObs:
    """Batch-path instruments; ``None`` on the array when obs is off."""

    __slots__ = ("coalesce_ratio", "scalar_path", "numpy_path", "batch_ops")

    #: dimensionless ops-per-request ratio buckets (1 = nothing merged)
    _RATIO_BUCKETS = (1.0, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0, 32.0, 64.0)

    def __init__(self) -> None:
        reg = default_registry()
        self.coalesce_ratio = reg.histogram(
            "array.coalesce_ratio",
            "submitted ops per coalesced request, per batch",
            buckets=self._RATIO_BUCKETS,
        ).labels()
        path = reg.counter(
            "array.batch_path", "batches coalesced by the scalar vs numpy path"
        )
        self.scalar_path = path.labels(path="scalar")
        self.numpy_path = path.labels(path="numpy")
        self.batch_ops = reg.counter(
            "array.batch_ops", "element operations submitted through batches"
        ).labels()

    def on_batch(self, n_ops: int, n_requests: int, used_numpy: bool) -> None:
        if used_numpy:
            self.numpy_path.inc()
        else:
            self.scalar_path.inc()
        self.batch_ops.inc(n_ops)
        if n_requests > 0:
            self.coalesce_ratio.observe(n_ops / n_requests)


class ElementArray:
    """An array of disks addressed by (disk, element slot).

    Parameters
    ----------
    n_disks:
        Disks in the array (the architecture's global disk count).
    element_size:
        Bytes per element; offset of slot ``k`` is ``k * element_size``.
    params, scheduler_factory, faults, tracer:
        Forwarded to the underlying :class:`Simulation`.
    """

    def __init__(
        self,
        n_disks: int,
        element_size: int = DEFAULT_ELEMENT_SIZE,
        params: DiskParameters | None = None,
        scheduler_factory: Callable[[], Scheduler] = ElevatorScheduler,
        faults=None,
        tracer=None,
    ) -> None:
        if element_size <= 0:
            raise ValueError(f"element size must be positive, got {element_size}")
        self.element_size = element_size
        self.sim = Simulation(
            n_disks,
            params=params,
            scheduler_factory=scheduler_factory,
            faults=faults,
            tracer=tracer,
        )
        self._obs = _ArrayObs() if obs_enabled() else None

    # ------------------------------------------------------------------
    @property
    def n_disks(self) -> int:
        return self.sim.n_disks

    @property
    def now(self) -> float:
        return self.sim.now

    def element_request(
        self,
        disk: int,
        slot: int,
        kind: IOKind,
        n_elements: int = 1,
        priority: int = 10,
        tag: str = "",
    ) -> IORequest:
        """Build a request covering ``n_elements`` contiguous slots."""
        if slot < 0 or n_elements < 1:
            raise ValueError(f"bad element range: slot={slot}, n={n_elements}")
        # positional call: the keyword form costs ~30% more per request
        # and this sits on the scalar submission hot path
        element_size = self.element_size
        return IORequest(
            disk, slot * element_size, n_elements * element_size, kind, priority, tag
        )

    # ------------------------------------------------------------------
    def submit(self, request: IORequest, callback=None) -> None:
        self.sim.submit(request, callback)

    def submit_elements(
        self,
        ops,
        kind: IOKind,
        priority: int = 10,
        tag: str = "",
        callback=None,
        on_complete=None,
    ) -> "BatchSubmission":
        """Submit a batch of single-element operations.

        ``ops`` is an iterable of ``(disk, slot)``.  Contiguous slots on
        the same disk are *coalesced* into one larger request — the I/O
        merging real block layers perform for adjacent element accesses
        — and repeated ``(disk, slot)`` pairs deduplicate into the same
        request (see the module docstring for the full contract).

        ``callback`` fires per coalesced request; ``on_complete`` fires
        once after the whole batch finished (immediately if the batch is
        empty).  The returned :class:`BatchSubmission` is the
        authoritative request list and carries the op→request mapping.
        """
        if not isinstance(ops, list):
            ops = list(ops)
        disks = [op[0] for op in ops]
        slots = [op[1] for op in ops]
        return self.submit_batch(
            disks,
            slots,
            kind,
            priority=priority,
            tag=tag,
            callback=callback,
            on_complete=on_complete,
        )

    def submit_batch(
        self,
        disks,
        slots,
        kind: IOKind,
        n_elements=None,
        priority: int = 10,
        tag: str = "",
        callback=None,
        on_complete=None,
    ) -> "BatchSubmission":
        """Vectorized batch submission from parallel disk/slot arrays.

        ``disks``/``slots`` (and optionally ``n_elements``, per-op run
        lengths defaulting to 1) are parallel sequences — lists or numpy
        arrays — describing one operation per position.  Overlapping and
        adjacent element ranges on the same disk coalesce into single
        requests, submitted in deterministic ``(disk asc, start slot
        asc)`` order — byte-identical to what the per-element loop
        produced, so scheduler decisions and timings are unchanged.

        Large batches coalesce with numpy array ops (lexsort + segmented
        running-max); small ones use a tuned scalar loop that beats
        numpy's fixed per-call overhead; both produce the same runs.
        """
        m = len(disks)
        if len(slots) != m or (n_elements is not None and len(n_elements) != m):
            raise ValueError("disks, slots and n_elements must be parallel")
        threshold = _numpy_min_ops
        if threshold is None:
            threshold = _resolve_numpy_min_ops()
        use_numpy = m >= threshold
        if use_numpy:
            runs, op_req = self._coalesce_numpy(disks, slots, n_elements)
        else:
            runs, op_req = self._coalesce_scalar(disks, slots, n_elements)
        if self._obs is not None:
            self._obs.on_batch(m, len(runs), use_numpy)
        esize = self.element_size
        requests = [
            IORequest(
                disk=d,
                offset=start * esize,
                size=(end - start) * esize,
                kind=kind,
                priority=priority,
                tag=tag,
            )
            for d, start, end in runs
        ]
        submission = BatchSubmission(requests, op_req)
        if on_complete is not None:
            if not requests:
                on_complete()
                return submission
            cb = _BatchGroup(len(requests), callback, on_complete)
        else:
            cb = callback
        self.sim.submit_many(requests, cb)
        return submission

    def _coalesce_scalar(self, disks, slots, n_elements):
        """Merge ops into (disk, start, end) runs with a Python loop."""
        m = len(disks)
        if n_elements is None:
            order = sorted(range(m), key=lambda k: (disks[k], slots[k]))
        else:
            order = sorted(range(m), key=lambda k: (disks[k], slots[k], n_elements[k]))
        runs: list[tuple[int, int, int]] = []
        op_req = [0] * m
        cur_disk = -1
        cur_start = cur_end = 0
        for k in order:
            d = disks[k]
            s = slots[k]
            e = s + (1 if n_elements is None else n_elements[k])
            if s < 0 or e <= s:
                raise ValueError(f"bad element range: slot={s}, n={e - s}")
            if d == cur_disk and s <= cur_end:
                if e > cur_end:
                    cur_end = e
            else:
                if cur_disk >= 0:
                    runs.append((cur_disk, cur_start, cur_end))
                cur_disk, cur_start, cur_end = d, s, e
            op_req[k] = len(runs)
        if cur_disk >= 0:
            runs.append((cur_disk, cur_start, cur_end))
        return runs, op_req

    def _coalesce_numpy(self, disks, slots, n_elements):
        """Merge ops into (disk, start, end) runs with array ops.

        Runs are found without a Python-level pass over the ops: lexsort
        by (disk, start), take a segmented running maximum of interval
        ends (the segment offset trick keeps one ``maximum.accumulate``
        global), and break a run wherever the disk changes or a start
        exceeds every prior end in its segment.
        """
        d = np.asarray(disks, dtype=np.int64)
        s = np.asarray(slots, dtype=np.int64)
        if n_elements is None:
            e = s + 1
        else:
            e = s + np.asarray(n_elements, dtype=np.int64)
        if s.min() < 0 or (e <= s).any():
            raise ValueError("bad element range in batch")
        order = np.lexsort((s, d))
        ds = d[order]
        ss = s[order]
        es = e[order]
        m = len(ds)
        disk_break = np.empty(m, dtype=bool)
        disk_break[0] = True
        np.not_equal(ds[1:], ds[:-1], out=disk_break[1:])
        # segmented running max of ends: offset each disk-segment into
        # its own value band so one global accumulate stays segmented
        seg = np.cumsum(disk_break)
        big = int(es.max()) + 1
        run_end = np.maximum.accumulate(es + seg * big) - seg * big
        new_run = disk_break.copy()
        np.logical_or(new_run[1:], ss[1:] > run_end[:-1], out=new_run[1:])
        run_id = np.cumsum(new_run) - 1
        first = np.flatnonzero(new_run)
        last = np.empty(len(first), dtype=np.int64)
        last[:-1] = first[1:] - 1
        last[-1] = m - 1
        run_disks = ds[first].tolist()
        run_starts = ss[first].tolist()
        run_ends = run_end[last].tolist()
        runs = list(zip(run_disks, run_starts, run_ends))
        op_req = np.empty(m, dtype=np.int64)
        op_req[order] = run_id
        return runs, op_req.tolist()

    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> float:
        """Advance the simulation; returns the clock."""
        return self.sim.run(until)

    def run_rounds(self, rounds, kind: IOKind, tag: str = "") -> float:
        """Strict parallel-round execution (the paper's access model).

        Each round is a list of ``(disk, slot)``; every operation of a
        round is submitted together and the next round starts only when
        all of them completed — one "access" per round.  Returns the
        total elapsed time.
        """
        start = self.sim.now
        for batch in rounds:
            if batch:
                self.submit_batch(
                    [d for d, _ in batch], [s for _, s in batch], kind, tag=tag
                )
            self.sim.run()
        return self.sim.now - start

    # ------------------------------------------------------------------
    def stats(self, tag: str | None = None) -> TraceStats:
        return summarize(self.sim, tag)

    def park_heads(self) -> None:
        """Reset every disk's head state (between experiment repetitions)."""
        for server in self.sim.disks:
            server.model.reset_position(0)

    @classmethod
    def for_paper_testbed(
        cls, n_disks: int, element_size: int = DEFAULT_ELEMENT_SIZE
    ) -> "ElementArray":
        """Array of Savvio 10K.3 disks, the paper's configuration."""
        return cls(n_disks, element_size, DiskParameters.savvio_10k3())
