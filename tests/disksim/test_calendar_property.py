"""Production engine vs the tuple-heap reference engine, property-based.

The engine's opcode calendar is a representation of the plain
``(time, seq, action, args)`` tuple heap in ``heapq_engine.py``: any
workload replayed on both must produce identical completed sequences,
clocks, per-disk busy times and exported traces — serially and across
the :class:`repro.parallel.WorkerPool` fork boundary (workers inherit
the module state of the parent at fork time, so this also guards
against calendar state leaking through ``fork``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disksim.disk import DiskParameters
from repro.disksim.request import IOKind
from repro.disksim.scheduler import (
    ElevatorScheduler,
    FIFOScheduler,
    PriorityScheduler,
)
from repro.parallel import WorkerPool
from tests.disksim.heapq_engine import element_array

_SCHEDULERS = {
    "fifo": FIFOScheduler,
    "elevator": ElevatorScheduler,
    "priority": PriorityScheduler,
}

_ELEMENT = 1 << 16


def _run_workload(spec):
    """Replay one workload spec; module-level so it crosses ``fork``.

    ``spec`` is ``(engine, n_disks, scheduler_name, ops, deferred)``
    with ``engine`` ``"typed"`` (production) or ``"heapq"`` (reference),
    ``ops`` a tuple of ``(disk, slot, is_write, priority)`` and
    ``deferred`` a tuple of ``(delay, disk, slot)`` submitted through
    ``submit_at`` (the calendar's ``OP_CALL`` escape hatch).
    """
    engine, n_disks, scheduler_name, ops, deferred = spec
    arr = element_array(
        engine,
        n_disks,
        _ELEMENT,
        DiskParameters.savvio_10k3(),
        _SCHEDULERS[scheduler_name],
    )
    for disk, slot, is_write, priority in ops:
        arr.submit(
            arr.element_request(
                disk,
                slot,
                IOKind.WRITE if is_write else IOKind.READ,
                priority=priority,
            )
        )
    sim = arr.sim
    for delay, disk, slot in deferred:
        sim.submit_at(delay, arr.element_request(disk, slot, IOKind.READ))
    arr.run()
    return (
        sim.now,
        tuple(
            (r.disk, r.offset, r.size, r.kind.value, r.start_time, r.finish_time)
            for r in sim.completed
        ),
        tuple(server.model.busy_time for server in sim.disks),
    )


@st.composite
def workload(draw):
    n_disks = draw(st.integers(2, 6))
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_disks - 1),
                st.integers(0, 24),
                st.booleans(),
                st.sampled_from([0, 10]),
            ),
            min_size=0,
            max_size=120,
        )
    )
    deferred = draw(
        st.lists(
            st.tuples(
                st.floats(0.0, 0.05, allow_nan=False),
                st.integers(0, n_disks - 1),
                st.integers(0, 24),
            ),
            min_size=0,
            max_size=8,
        )
    )
    scheduler = draw(st.sampled_from(sorted(_SCHEDULERS)))
    return n_disks, scheduler, tuple(ops), tuple(deferred)


@given(w=workload())
@settings(max_examples=60, deadline=None)
def test_heapq_and_typed_calendars_are_bit_identical(w):
    n_disks, scheduler, ops, deferred = w
    heapq_sig = _run_workload(("heapq", n_disks, scheduler, ops, deferred))
    typed_sig = _run_workload(("typed", n_disks, scheduler, ops, deferred))
    assert heapq_sig == typed_sig


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(jobs=2) as p:
        yield p


@given(w=workload())
@settings(max_examples=15, deadline=None)
def test_calendar_identity_survives_fork_boundary(w, pool):
    """Workers replay the same spec in forked processes; parent replays
    it inline — all four signatures (2 engines x 2 process modes)
    must agree."""
    n_disks, scheduler, ops, deferred = w
    specs = [
        ("heapq", n_disks, scheduler, ops, deferred),
        ("typed", n_disks, scheduler, ops, deferred),
    ]
    forked = pool.map(_run_workload, specs)
    inline = [_run_workload(spec) for spec in specs]
    assert forked[0] == forked[1] == inline[0] == inline[1]


def test_exported_traces_identical_across_calendars(tmp_path):
    """The chrome-trace export is part of the bit-identity contract."""
    from repro.obs import Tracer, chrome_trace

    exports = {}
    for engine in ("heapq", "typed"):
        rng = np.random.default_rng(11)
        tracer = Tracer()
        arr = element_array(
            engine,
            4,
            _ELEMENT,
            DiskParameters.savvio_10k3(),
            ElevatorScheduler,
            tracer=tracer.group("ab"),
        )
        for d, s in zip(rng.integers(0, 4, 300), rng.integers(0, 64, 300)):
            arr.submit(arr.element_request(int(d), int(s), IOKind.READ))
        arr.run()
        exports[engine] = chrome_trace(tracer)
    assert exports["heapq"] == exports["typed"]
