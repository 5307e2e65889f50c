"""Recovery as the layout defines it: one resolver for every caller.

``Layout.recovery_step`` answers "which readable cells regenerate this
cell" from the layout's content table: another copy, then the row-XOR
group (unreadable primaries swapped for a copy), then, for coded
layouts, a stripe decode within the fault tolerance.  Scrubbing,
degraded reads and rebuild re-routing all ask it, so every registered
layout gets the recoveries its redundancy allows.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.core import layouts as layouts_module
from repro.core.errors import LayoutError, UnrecoverableFailureError
from repro.core.layouts import Layout, RAID6Layout, XCodeLayout, shifted_mirror_parity
from repro.core.reconstruction import RecoveryMethod
from repro.core.registry import REGISTRY, build_layout
from repro.disksim.faults import LatentSectorErrors
from repro.raidsim.campaign import (
    clean_rebuild_makespan,
    default_fault_plan,
    derive_sweep_seeds,
    run_campaign,
)
from repro.raidsim.controller import RaidController
from repro.raidsim.reconstruction import degraded_read_sources
from repro.raidsim.scrub import Scrubber

ELEM = 4 * 1024 * 1024


def _valid_layouts(name: str, ns=range(2, 8)):
    for n in ns:
        try:
            yield build_layout(name, n)
        except (LayoutError, ValueError):
            continue


def _ctrl(layout, lse=None, **kw):
    kw.setdefault("n_stripes", 4)
    kw.setdefault("payload_bytes", 8)
    return RaidController(layout, element_size=ELEM, lse=lse, tracer=False, **kw)


def _regenerate(ctrl: RaidController, stripe: int, step) -> np.ndarray:
    """The value ``step`` computes for its target, from the content store."""
    lay = ctrl.layout
    if step.method is RecoveryMethod.CODE:
        live = {d for d, _ in step.sources}
        columns = [
            np.stack([ctrl.element_content(stripe, (d, r)) for r in range(lay.rows)])
            if d in live
            else None
            for d in range(lay.n_disks)
        ]
        disk, row = step.target
        return lay.decode(columns)[disk][row]
    acc = np.zeros(ctrl.payload_bytes, dtype=np.uint8)
    for cell in step.sources:
        acc ^= ctrl.element_content(stripe, cell)
    return acc


# ----------------------------------------------------------------------
# the resolver itself
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_recovery_step_regenerates_every_cell(name):
    """Every cell alone unreadable, and with one seeded other cell: the
    source set avoids unreadable cells and computes the cell's value.
    A single unreadable cell always has one."""
    rng = np.random.default_rng(11)
    for layout in _valid_layouts(name):
        ctrl = _ctrl(layout, n_stripes=1)
        cells = [(d, r) for d in range(layout.n_disks) for r in range(layout.rows)]
        for target in cells:
            other = cells[int(rng.integers(len(cells)))]
            for unreadable in ({target}, {target, other}):
                step = layout.recovery_step(target, lambda c: c not in unreadable)
                if step is None:
                    assert len(unreadable) == 2, (layout.n, target)
                    continue
                assert step.target == target
                assert not set(step.sources) & unreadable
                want = ctrl.element_content(0, target)
                assert np.array_equal(_regenerate(ctrl, 0, step), want), (target, step)


def test_candidate_order_is_copy_then_row_then_decode():
    lay = shifted_mirror_parity(4)
    target = lay.data_cell(1, 2)
    (replica,) = lay.replica_cells(1, 2)
    step = lay.recovery_step(target, lambda c: c != target)
    assert (step.method, step.sources) == (RecoveryMethod.COPY, (replica,))
    step = lay.recovery_step(target, lambda c: c not in (target, replica))
    row = tuple(lay.data_cell(i, 2) for i in (0, 2, 3)) + (lay.parity_cell(2),)
    assert (step.method, step.sources) == (RecoveryMethod.XOR, row)
    # an unreadable row-mate is swapped for its replica, in place
    mate = lay.data_cell(2, 2)
    step = lay.recovery_step(target, lambda c: c not in (target, replica, mate))
    swapped = tuple(lay.replica_cells(2, 2)[0] if c == mate else c for c in row)
    assert step.sources == swapped


def test_raid6_row_path_comes_from_the_table():
    lay = RAID6Layout(4, "evenodd")
    assert lay.content_table.row_xor == {j: (lay.p_disk, j) for j in range(lay.rows)}
    step = lay.recovery_step((1, 0), lambda c: c[0] != 1)
    assert step.method is RecoveryMethod.XOR
    assert step.sources == ((0, 0), (2, 0), (3, 0), (lay.p_disk, 0))
    # the row is blocked too: decode with both disks erased
    step = lay.recovery_step((1, 0), lambda c: c[0] not in (1, 2))
    assert step.method is RecoveryMethod.CODE
    assert {d for d, _ in step.sources} == {0, 3, lay.p_disk, lay.q_disk}
    # three unreadable disks exceed the tolerance
    assert lay.recovery_step((1, 0), lambda c: c[0] not in (1, 2, 3)) is None


def test_xcode_degraded_read_decodes_within_tolerance():
    lay = XCodeLayout(5)
    sources = degraded_read_sources(lay, {0, 3}, 0, 1)
    assert set(sources) == {(d, r) for d in (1, 2, 4) for r in range(lay.rows)}
    with pytest.raises(UnrecoverableFailureError):
        degraded_read_sources(lay, {0, 1, 3}, 0, 1)


def test_layouts_without_coded_cells_cannot_decode():
    with pytest.raises(NotImplementedError, match="no coded cells"):
        build_layout("raid5", 3).decode([None] * 4)


# ----------------------------------------------------------------------
# callers: scrub and rebuild
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_scrub_repairs_one_lse_per_stripe(name):
    for layout in _valid_layouts(name):
        lse = LatentSectorErrors(ELEM)
        ctrl = _ctrl(layout, lse, rotate=True)
        rng = np.random.default_rng(layout.n)
        for stripe in range(ctrl.n_stripes):
            cell = (int(rng.integers(layout.n_disks)), int(rng.integers(layout.rows)))
            lse.inject(*ctrl.place(stripe, cell))
        report = Scrubber(ctrl).run()
        assert report.errors_found == ctrl.n_stripes
        assert report.unrepairable == (), (layout.name, layout.n)
        assert report.errors_repaired == ctrl.n_stripes


def _lse_on_a_source(layout, failed_disk: int, stripe: int = 1):
    """A controller whose rebuild of ``failed_disk`` reads one poisoned,
    unreadable source cell in ``stripe``."""
    lse = LatentSectorErrors(ELEM)
    ctrl = _ctrl(layout, lse)
    plan = layout.reconstruction_plan([failed_disk])
    disk = min(plan.reads)
    pd, slot = ctrl.place(stripe, (disk, plan.reads[disk][0]))
    lse.inject(pd, slot)
    ctrl.content[pd, slot] ^= 0xFF  # a copy of these bytes would fail verification
    return ctrl


@pytest.mark.parametrize(
    "name", sorted(n for n, s in REGISTRY.items() if build_layout(n, 5).fault_tolerance >= 2)
)
def test_two_tolerant_rebuild_survives_an_lse_on_a_source(name):
    for layout in _valid_layouts(name, ns=(4, 5)):
        for failed in range(layout.n_disks):
            ctrl = _lse_on_a_source(layout, failed)
            res = ctrl.rebuild([failed])
            assert res.verified, (layout.n, failed)


@pytest.mark.parametrize(
    "name", sorted(n for n, s in REGISTRY.items() if build_layout(n, 5).fault_tolerance == 1)
)
def test_single_tolerant_rebuild_loses_data_on_an_lse(name):
    layout = build_layout(name, 4)
    ctrl = _lse_on_a_source(layout, 0)
    with pytest.raises(UnrecoverableFailureError, match="latent sector"):
        ctrl.rebuild([0])


def test_disk_death_during_an_lse_fallback_defers_the_stripe():
    """Root seed 2012, storm 2 of the mirror-parity fault sweep: disk 7
    dies while stripe 5 waits on its LSE-fallback reads.  The phase must
    not copy the dead disk's bytes; the stripe is re-planned instead."""
    n, stripes = 4, 12
    trad = build_layout("mirror-parity", n)
    shifted = build_layout("shifted-mirror-parity", n)
    sizing = dict(n_stripes=stripes, payload_bytes=16)
    fault_seed, user_seed = derive_sweep_seeds(2012, 3)[2]
    plan = default_fault_plan(
        trad.n_disks,
        seed=fault_seed,
        lse_burst=4,
        transient_rate=0.05,
        fail_slow_multiplier=4.0,
        second_failure_time_s=0.5 * clean_rebuild_makespan(trad, (0,), n_stripes=stripes),
    )
    run = run_campaign(
        shifted,
        plan,
        failed_disks=(0,),
        user_read_rate_per_s=30.0,
        user_read_duration_s=1.5 * max(
            clean_rebuild_makespan(trad, (0,), **sizing),
            clean_rebuild_makespan(shifted, (0,), **sizing),
        ),
        user_read_seed=user_seed,
        **sizing,
    )
    rebuild = run.online.rebuild
    assert rebuild.fault_stats.mid_rebuild_failures == (7,)
    assert rebuild.fault_stats.rerouted_reads > 0
    assert not rebuild.aborted
    assert rebuild.verified


# ----------------------------------------------------------------------
# layering guard
# ----------------------------------------------------------------------


def test_raidsim_never_names_a_concrete_layout():
    """Layout-specific behaviour lives in the layout: the simulator
    layer asks it, and never tests or imports a concrete class."""
    concrete = [
        name
        for name, obj in vars(layouts_module).items()
        if isinstance(obj, type) and issubclass(obj, Layout) and obj is not Layout
    ]
    assert "MirrorLayout" in concrete and "XCodeLayout" in concrete
    raidsim = Path(layouts_module.__file__).resolve().parent.parent / "raidsim"
    offenders = [
        f"{path.name}: {name}"
        for path in sorted(raidsim.glob("*.py"))
        for name in concrete
        if re.search(rf"\b{name}\b", path.read_text(encoding="utf-8"))
    ]
    assert not offenders, offenders
