"""Batched write content against the per-op reference loop.

A completed write op draws its payloads in one call and scatters them
onto its primaries; the stripe's replicas and parity are re-derived once
per run (and before a scheduled disk death takes its snapshot).  The
loop below is the method it replaced: one draw per element, then a
whole-stripe re-derive after every op.  It stays here as the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.registry import LAYOUTS, build_layout
from repro.disksim.faultplan import FaultPlan
from repro.raidsim.controller import RaidController
from repro.workloads.generator import random_large_writes

N = 5  # every registered layout is valid at n = 5 (xcode needs a prime)
STRIPES = 4
OPS = 20


class ReferenceController(RaidController):
    """The per-element draw and per-op ``_install`` write content."""

    def _apply_write_content(self, op, rng):
        for i, j in op.elements:
            pd, slot = self.place(op.stripe, self.layout.data_cell(i, j))
            self.content[pd, slot] = rng.integers(
                0, 256, self.payload_bytes, dtype=np.uint8
            )
        self._install(np.array([op.stripe]))


def _run(cls, name, strategy, window, payload, fault_plan=None):
    layout = build_layout(name, N)
    ctrl = cls(layout, n_stripes=STRIPES, payload_bytes=payload, fault_plan=fault_plan)
    rng = np.random.default_rng(11)
    ops = random_large_writes(
        N, STRIPES, n_ops=OPS, rng=rng, data_rows=layout.content_table.data_rows
    )
    result = ctrl.run_write_workload(ops, strategy=strategy, window=window, rng=rng)
    return ctrl, result


@pytest.mark.parametrize("payload", [4, 8, 16])
@pytest.mark.parametrize("window", [1, 4])
@pytest.mark.parametrize("strategy", ["rmw", "reconstruct"])
@pytest.mark.parametrize("name", list(LAYOUTS))
def test_batched_write_content_matches_reference(name, strategy, window, payload):
    ctrl, result = _run(RaidController, name, strategy, window, payload)
    ref, ref_result = _run(ReferenceController, name, strategy, window, payload)
    assert result == ref_result
    assert np.array_equal(ctrl.content, ref.content)
    assert ctrl.verify_redundancy() == ref.verify_redundancy() is True


@pytest.mark.parametrize(
    "name", ["mirror", "shifted-mirror-parity", "raid6-rdp", "xcode"]
)
def test_disk_death_mid_run_sees_derived_redundancy(name):
    # the death snapshot must hold the redundancy of every stripe written
    # before it, as the per-op re-derive left it
    makespan = _run(RaidController, name, "rmw", 4, 8)[1].makespan_s
    dead = build_layout(name, N).n_disks - 1
    plan = FaultPlan(seed=1).with_disk_failure(dead, makespan / 2)
    ctrl, result = _run(RaidController, name, "rmw", 4, 8, fault_plan=plan)
    ref, ref_result = _run(ReferenceController, name, "rmw", 4, 8, fault_plan=plan)
    assert ctrl._dead_disks == ref._dead_disks == [dead]
    assert np.array_equal(ctrl._death_snapshots[dead], ref._death_snapshots[dead])
    assert result == ref_result
    assert np.array_equal(ctrl.content, ref.content)
