"""Reference event engine: a plain ``(time, seq, action, args)`` tuple heap.

The production engine (:class:`repro.disksim.events.Simulation`) runs
on the opcode calendar, popping whole same-timestamp batches and
dispatching completions by integer payload.  :class:`HeapqSimulation`
swaps in the simplest possible calendar — one ``heapq`` entry per
event, each carrying its bound method and argument tuple, popped one at
a time — and reuses everything else (disk models, schedulers, the
completion path and its observability hooks).  Any workload replayed on
both must give bit-identical completion order, clocks, busy times and
traces; ``test_calendar_property.py`` checks that.
"""

from __future__ import annotations

import heapq

from repro.disksim.array import ElementArray
from repro.disksim.events import Simulation


class HeapqSimulation(Simulation):
    """:class:`Simulation` driven by a tuple heap instead of the calendar."""

    calendar_kind = "heapq"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._cal = None
        self._events: list = []

    def schedule_call(self, delay, action, *args) -> None:
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self._seq += 1
        heapq.heappush(self._events, (self.now + delay, self._seq, action, args))

    def _start_next(self, server) -> None:
        if server.busy or not server.scheduler:
            return
        request = server.scheduler.pop(server.model.head_position)
        duration = server.model.serve(request)
        if self._service_factor is not None:
            factor = self._service_factor(request.disk, self.now)
            if factor != 1.0:
                server.model.busy_time += duration * (factor - 1.0)
                duration *= factor
        request.start_time = self.now
        finish = self.now + duration
        request.finish_time = finish
        server.busy = True
        server.current = request
        self._seq += 1
        heapq.heappush(self._events, (finish, self._seq, self._complete, (server, request)))

    def run(self, until=None) -> float:
        events = self._events
        if until is not None and until <= self.now:
            return self.now
        try:
            while events:
                t = events[0][0]
                if until is not None and t > until:
                    self.now = until
                    return self.now
                _, _, action, args = heapq.heappop(events)
                self.now = t
                action(*args)
            if until is not None and until > self.now:
                self.now = until
            return self.now
        finally:
            if self.recorder is not None:
                self.recorder.advance_to(self.now)


def element_array(engine: str, n_disks, element_size, params, scheduler_factory, tracer=None):
    """An :class:`ElementArray` on the production (``"typed"``) or the
    reference (``"heapq"``) engine; otherwise configured identically."""
    if engine == "typed":
        return ElementArray(n_disks, element_size, params, scheduler_factory, tracer=tracer)
    arr = ElementArray(n_disks, element_size, params, scheduler_factory, tracer=False)
    arr.sim = HeapqSimulation(
        n_disks, params=params, scheduler_factory=scheduler_factory, tracer=tracer
    )
    return arr
