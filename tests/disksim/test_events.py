"""Event engine: clock, queueing, callbacks, determinism."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disksim.array import ElementArray
from repro.disksim.disk import DiskParameters
from repro.disksim.events import Simulation
from repro.disksim.faultplan import FaultPlan
from repro.disksim.request import IOKind, IORequest
from repro.disksim.scheduler import PriorityScheduler

_MB = 1024 * 1024


def _sim(n=2, params=None):
    return Simulation(n, params or DiskParameters.ideal())


def test_needs_at_least_one_disk():
    with pytest.raises(ValueError):
        Simulation(0)


def test_submit_to_unknown_disk_rejected():
    sim = _sim(1)
    with pytest.raises(ValueError, match="unknown disk"):
        sim.submit(IORequest(3, 0, 1, IOKind.READ))


def test_single_request_completes_with_timing():
    sim = _sim(1)
    req = IORequest(0, 0, 54 * _MB, IOKind.READ)
    sim.submit(req)
    sim.run()
    assert sim.completed == [req]
    assert req.finish_time > 0
    assert req.finish_time == pytest.approx(54 / 54.8, rel=0.01)


def test_requests_on_one_disk_serialize():
    sim = _sim(1)
    a = IORequest(0, 0, 10 * _MB, IOKind.READ)
    b = IORequest(0, 10 * _MB, 10 * _MB, IOKind.READ)
    sim.submit(a)
    sim.submit(b)
    sim.run()
    assert b.start_time >= a.finish_time


def test_requests_on_distinct_disks_overlap():
    sim = _sim(2)
    a = IORequest(0, 0, 10 * _MB, IOKind.READ)
    b = IORequest(1, 0, 10 * _MB, IOKind.READ)
    sim.submit(a)
    sim.submit(b)
    sim.run()
    assert a.start_time == b.start_time == 0.0
    assert a.finish_time == pytest.approx(b.finish_time)


def test_completion_callback_fires_once_with_request():
    sim = _sim(1)
    seen = []
    req = IORequest(0, 0, _MB, IOKind.READ)
    sim.submit(req, callback=seen.append)
    sim.run()
    assert seen == [req]


def test_callback_can_submit_more_work():
    sim = _sim(1)
    order = []

    def chain(req):
        order.append(req.offset)
        if req.offset < 2 * _MB:
            sim.submit(
                IORequest(0, req.offset + _MB, _MB, IOKind.READ), callback=chain
            )

    sim.submit(IORequest(0, 0, _MB, IOKind.READ), callback=chain)
    sim.run()
    assert order == [0, _MB, 2 * _MB]


def test_submit_at_future_time():
    sim = _sim(1)
    req = IORequest(0, 0, _MB, IOKind.READ)
    sim.submit_at(1.5, req)
    sim.run()
    assert req.submit_time == pytest.approx(1.5)
    with pytest.raises(ValueError, match="past"):
        sim.submit_at(0.5, IORequest(0, 0, _MB, IOKind.READ))


def test_schedule_negative_delay_rejected():
    sim = _sim(1)
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_run_until_pauses_clock():
    sim = _sim(1)
    sim.submit(IORequest(0, 0, 54 * _MB, IOKind.READ))  # ~1 s at 54.8 MB/s ideal? uses ideal params: 54/54.8 s
    t = sim.run(until=0.1)
    assert t == pytest.approx(0.1)
    assert not sim.completed
    sim.run()
    assert len(sim.completed) == 1


def test_run_until_never_moves_clock_backwards():
    """Regression: ``run(until=2.0)`` after the clock reached ~1 s used
    to rewind ``now`` — time must be monotone."""
    sim = _sim(1)
    sim.submit(IORequest(0, 0, 54 * _MB, IOKind.READ))
    t_done = sim.run()  # quiescent near 1 s
    assert t_done > 0.5
    assert sim.run(until=0.2) == t_done
    assert sim.now == t_done


def test_run_until_advances_idle_clock():
    """Regression: ``run(until=9.0)`` with no events left ``now`` at 0
    — an idle engine must still wait out the wall-clock."""
    sim = _sim(1)
    assert sim.run(until=9.0) == pytest.approx(9.0)
    assert sim.now == pytest.approx(9.0)
    # and a later submission is stamped at the advanced clock
    req = IORequest(0, 0, _MB, IOKind.READ)
    sim.submit(req)
    sim.run()
    assert req.submit_time == pytest.approx(9.0)


def test_submit_many_matches_sequential_submits():
    """The batch entry point is pure mechanics: identical schedules,
    service starts and completion order as one ``submit`` per request."""
    def build():
        return [
            IORequest(k % 2, (7 * k % 5) * _MB, _MB, IOKind.READ) for k in range(12)
        ]

    loop_sim, batch_sim = _sim(2), _sim(2)
    loop_reqs, batch_reqs = build(), build()
    for r in loop_reqs:
        loop_sim.submit(r)
    batch_sim.submit_many(batch_reqs)
    loop_sim.run()
    batch_sim.run()
    timings = lambda reqs: [(r.start_time, r.finish_time) for r in reqs]
    assert timings(loop_reqs) == timings(batch_reqs)


def test_submit_many_with_callback_matches_submit_loop():
    """``submit_many(reqs, cb)`` is a loop of ``submit(r, cb)``: same
    callback order, same follow-up work, same timings."""
    rng = np.random.default_rng(11)
    ops = [(int(d), int(s)) for d, s in zip(rng.integers(0, 3, 80), rng.integers(0, 25, 80))]

    def run(batched):
        sim = _sim(3)
        reqs = [IORequest(d, s * _MB, _MB, IOKind.READ) for d, s in ops]
        seen = []

        def cb(r):
            seen.append(r)
            if r.offset < 5 * _MB:  # completions may submit more work
                sim.submit(IORequest(r.disk, r.offset + 30 * _MB, _MB, IOKind.WRITE), cb)

        if batched:
            sim.submit_many(reqs, cb)
        else:
            for r in reqs:
                sim.submit(r, cb)
        sim.run()
        return sim.now, [
            (r.disk, r.offset, r.kind.value, r.start_time, r.finish_time) for r in seen
        ]

    assert run(True) == run(False)


def test_submit_many_rejects_unknown_disk_and_fires_callbacks():
    sim = _sim(1)
    with pytest.raises(ValueError, match="unknown disk"):
        sim.submit_many([IORequest(5, 0, _MB, IOKind.READ)])
    seen = []
    reqs = [IORequest(0, k * _MB, _MB, IOKind.READ) for k in range(3)]
    sim.submit_many(reqs, callback=seen.append)
    sim.run()
    assert sorted(r.offset for r in seen) == [0, _MB, 2 * _MB]


def test_pending_count_tracks_in_flight():
    sim = _sim(1)
    sim.submit(IORequest(0, 0, _MB, IOKind.READ))
    sim.submit(IORequest(0, 2 * _MB, _MB, IOKind.READ))
    assert sim.pending_count() == 2
    sim.run()
    assert sim.pending_count() == 0


def _scanned_pending(sim):
    """The pending count by its definition: busy servers plus queued requests."""
    busy = sum(1 for server in sim.disks if server.busy)
    return busy + sum(len(server.scheduler) for server in sim.disks)


_SLOTS = 16
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["submit", "many", "at"]),
        st.integers(0, 2),  # disk
        st.integers(0, _SLOTS - 1),  # slot
        st.sampled_from([0, 10]),  # priority
        st.integers(1, 3),  # batch size of a submit_many
        st.floats(0.0, 0.5),  # submit_at delay
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=40, deadline=None)
@given(ops=_OPS, seed=st.integers(0, 2**16), pause=st.floats(0.0, 0.3))
def test_pending_count_equals_scan_in_every_completion(ops, seed, pause):
    """The O(1) pending counter agrees with the scan over every disk's
    busy flag and queue, inside every completion callback, under priority
    queues, deferred submits and transient-error retries."""
    faults = (
        FaultPlan(seed=seed)
        .with_transients(rate=0.4, retry_success_rate=0.5, max_failures=2)
        .with_fail_slow(disk=1, multiplier=3.0)
        .activate(_MB, 3, _SLOTS)
    )
    sim = Simulation(
        3, DiskParameters.savvio_10k3(), PriorityScheduler, faults=faults
    )
    checked = []

    def on_done(req):
        assert sim.pending_count() == _scanned_pending(sim)
        checked.append(req)
        if req.error and req.attempt < 3:
            retry = IORequest(
                req.disk, req.offset, req.size, req.kind, req.priority,
                attempt=req.attempt + 1, root_id=req.chain_id,
            )
            sim.submit(retry, on_done)

    def request(disk, slot, priority):
        return IORequest(disk, slot * _MB, _MB, IOKind.READ, priority)

    for kind, disk, slot, priority, size, delay in ops:
        if kind == "submit":
            sim.submit(request(disk, slot, priority), on_done)
        elif kind == "many":
            batch = [request((disk + k) % 3, (slot + k) % _SLOTS, priority) for k in range(size)]
            sim.submit_many(batch, on_done)
        else:
            sim.submit_at(sim.now + delay, request(disk, slot, priority), on_done)
        assert sim.pending_count() == _scanned_pending(sim)
    sim.run(until=pause)
    assert sim.pending_count() == _scanned_pending(sim)
    sim.run()
    assert sim.pending_count() == _scanned_pending(sim) == 0
    assert len(checked) == len(sim.completed)


def _small_disks(capacity):
    return DiskParameters.ideal().with_overrides(capacity_bytes=capacity)


def _nothing_enqueued(sim):
    assert sim.pending_count() == 0
    assert _scanned_pending(sim) == 0
    assert not sim._callbacks
    assert sim.run() == 0.0
    assert sim.completed == []


def test_request_past_capacity_rejected_at_submit():
    sim = Simulation(2, _small_disks(10 * _MB))
    with pytest.raises(ValueError, match="beyond disk capacity"):
        sim.submit(IORequest(0, 9 * _MB, 2 * _MB, IOKind.READ), lambda r: None)
    _nothing_enqueued(sim)
    # a request ending exactly at the capacity is fine
    sim.submit(IORequest(0, 8 * _MB, 2 * _MB, IOKind.READ))
    sim.run()
    assert len(sim.completed) == 1


def test_request_past_capacity_rejects_whole_submit_many():
    sim = Simulation(2, _small_disks(10 * _MB))
    batch = [
        IORequest(0, 0, _MB, IOKind.READ),
        IORequest(1, 0, _MB, IOKind.READ),
        IORequest(1, 10 * _MB, _MB, IOKind.READ),
    ]
    with pytest.raises(ValueError, match="beyond disk capacity"):
        sim.submit_many(batch, lambda r: None)
    _nothing_enqueued(sim)


def test_element_past_capacity_rejected_at_submit_batch():
    array = ElementArray(2, element_size=_MB, params=_small_disks(4 * _MB))
    with pytest.raises(ValueError, match="beyond disk capacity"):
        array.submit_batch([0, 1], [3, 4], IOKind.READ, on_complete=lambda: None)
    _nothing_enqueued(array.sim)
    with pytest.raises(ValueError, match="beyond disk capacity"):
        array.submit_batch([1], [4], IOKind.WRITE)
    _nothing_enqueued(array.sim)


def test_total_byte_counters():
    sim = _sim(2)
    sim.submit(IORequest(0, 0, 3 * _MB, IOKind.READ))
    sim.submit(IORequest(1, 0, 2 * _MB, IOKind.WRITE))
    sim.run()
    assert sim.total_bytes_read == 3 * _MB
    assert sim.total_bytes_written == 2 * _MB


def test_deterministic_replay():
    def run_once():
        sim = Simulation(3, DiskParameters.savvio_10k3())
        import numpy as np

        rng = np.random.default_rng(5)
        for _ in range(50):
            sim.submit(
                IORequest(
                    int(rng.integers(0, 3)),
                    int(rng.integers(0, 1000)) * _MB,
                    _MB,
                    IOKind.READ,
                )
            )
        sim.run()
        return [(r.req_id - sim.completed[0].req_id, r.finish_time) for r in sim.completed]

    assert run_once() == run_once()
