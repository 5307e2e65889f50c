"""Typed event calendars for the discrete-event engine.

The engine's calendar holds *pending* events.  Historically each entry
was a ``(time, seq, action, args)`` tuple — a bound method plus an
argument tuple allocated per event.  The typed calendar replaces the
callable with an integer **opcode** indexing the engine's dispatch
table, and the argument tuple with one integer payload:

====== ============= ===========================================
opcode name          payload (``arg0``)
====== ============= ===========================================
``0``  ``OP_CALL``   unused — ``(action, args)`` lives in a side
                     table keyed by the event's ``seq``
``1``  ``OP_COMPLETE`` disk id whose in-flight request finishes
====== ============= ===========================================

``OP_COMPLETE`` is the hot path: one event per request completion,
carrying no Python objects at all (the request is recovered from the
disk server's ``current`` slot).  ``OP_CALL`` is the fully general
escape hatch behind :meth:`~repro.disksim.events.Simulation.schedule_call`.

Storage
-------
Pending events are kept in a binary heap of ``(time, seq, opcode,
arg0)`` scalar tuples.  The numpy structured form (:data:`EVENT_DTYPE`)
is the calendar's *bulk* representation: :meth:`TypedCalendar.records`
materialises the pending set as a sorted structured array for
diagnostics and tests.  The pending set itself stays a scalar heap
deliberately — the calendar is shallow (one ``OP_COMPLETE`` per busy
disk plus a handful of deferred calls), and per-event numpy element
ops on a ~10-entry array measure ~80x slower than ``heappush`` /
``heappop``.

Determinism: ``seq`` is globally unique and monotone, so heap
comparisons never reach the opcode and ties break exactly as a plain
``(time, seq, action, args)`` tuple heap breaks them.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

import numpy as np

__all__ = ["EVENT_DTYPE", "OP_CALL", "OP_COMPLETE", "TypedCalendar"]

#: Wire/bulk layout of one calendar event.  ``time``/``seq`` order the
#: calendar, ``opcode`` selects the dispatch-table entry, ``arg0`` and
#: ``arg1`` are integer payload slots (``arg1`` is reserved).
EVENT_DTYPE = np.dtype(
    [
        ("time", "<f8"),
        ("seq", "<u8"),
        ("opcode", "u1"),
        ("arg0", "<i8"),
        ("arg1", "<i8"),
    ]
)

#: Slow-path opcode: dispatch ``action(*args)`` from the call table.
OP_CALL = 0
#: Hot-path opcode: complete disk ``arg0``'s in-flight request.
OP_COMPLETE = 1


class TypedCalendar:
    """Pending-event set with opcode dispatch and batch extraction.

    The public surface the engine relies on:

    * :meth:`push` / :meth:`push_call` — schedule one event;
    * :meth:`peek_time` — earliest pending time (``None`` when empty);
    * :meth:`pop_batch` — remove and return *every* event sharing the
      earliest timestamp, in ``seq`` order;
    * :meth:`take_call` — claim the callable behind an ``OP_CALL``;
    * :meth:`records` — the pending set as a sorted
      :data:`EVENT_DTYPE` structured array (diagnostics/tests).
    """

    __slots__ = ("_heap", "_calls")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, int]] = []
        self._calls: dict[int, tuple[Callable[..., None], tuple]] = {}

    # ------------------------------------------------------------------
    def push(self, time: float, seq: int, opcode: int, arg0: int = 0) -> None:
        """Schedule one typed event (hot path — no object payload)."""
        heappush(self._heap, (time, seq, opcode, arg0))

    def push_call(
        self, time: float, seq: int, action: Callable[..., None], args: tuple
    ) -> None:
        """Schedule an arbitrary callable (the ``OP_CALL`` escape hatch)."""
        self._calls[seq] = (action, args)
        heappush(self._heap, (time, seq, OP_CALL, 0))

    def take_call(self, seq: int) -> tuple[Callable[..., None], tuple]:
        """Claim (and forget) the callable behind an ``OP_CALL`` event."""
        return self._calls.pop(seq)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._heap)

    def peek_time(self) -> float | None:
        """Earliest pending event time, or ``None`` when empty."""
        heap = self._heap
        return heap[0][0] if heap else None

    def pop_batch(self) -> list[tuple[float, int, int, int]]:
        """Remove and return the whole earliest-timestamp batch.

        Events sharing the minimum time come back in ``seq`` order —
        exactly the order a plain tuple heap pops them one by one.
        """
        heap = self._heap
        if not heap:
            return []
        first = heappop(heap)
        t = first[0]
        batch = [first]
        while heap and heap[0][0] == t:
            batch.append(heappop(heap))
        return batch

    # ------------------------------------------------------------------
    def drain_completions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Empty the calendar into ``(times, seqs, disks)`` seed arrays.

        Every pending event must be ``OP_COMPLETE``.  The returned
        arrays are sorted by ``(time, seq)`` — the order the events
        would have popped in.  The engine never calls this; it stays
        because the benchmark's per-layer span table wraps it by name
        (its ``disksim.drain_fast`` span), and that table would break
        without it.
        """
        events = sorted(self._heap)
        self._heap.clear()
        n = len(events)
        times = np.empty(n, dtype=np.float64)
        seqs = np.empty(n, dtype=np.int64)
        disks = np.empty(n, dtype=np.int64)
        for i, (t, s, _op, a0) in enumerate(events):
            times[i] = t
            seqs[i] = s
            disks[i] = a0
        return times, seqs, disks

    def records(self) -> np.ndarray:
        """Pending events as a sorted :data:`EVENT_DTYPE` array (a copy)."""
        events = sorted(self._heap)
        out = np.zeros(len(events), dtype=EVENT_DTYPE)
        for i, (t, s, op, a0) in enumerate(events):
            out[i] = (t, s, op, a0, 0)
        return out
