"""Stripe decode through the coded layouts' ``decode`` hook.

``Layout.decode`` takes one ``(rows, payload)`` column slot per disk,
``None`` for an erased disk, and returns every disk's column: the
column-list decode that RAID 6 (EVENODD or RDP, shortened) and X-code
recovery use.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.core.layouts import RAID6Layout, XCodeLayout
from repro.core.registry import build_layout


def _full_columns(layout, rng, payload=8):
    """Every disk's column for one random stripe, from the layout's encode."""
    t = layout.content_table
    block = rng.integers(0, 256, (1, t.data_rows, t.n, payload), dtype=np.uint8)
    cols = np.empty((layout.n_disks, layout.rows, payload), dtype=np.uint8)
    cols[t.cells[:, 0], t.cells[:, 1]] = layout.derive(block)[0]
    return list(cols)


DECODER_FACTORIES = [
    lambda: XCodeLayout(5),
    lambda: XCodeLayout(7),
    lambda: RAID6Layout(6, "rdp"),
    lambda: RAID6Layout(5, "evenodd"),
    lambda: RAID6Layout(5, "rdp"),
]


@pytest.mark.parametrize("factory", DECODER_FACTORIES)
def test_decode_every_max_erasure_pattern(factory, rng):
    layout = factory()
    columns = _full_columns(layout, rng)
    for lost in combinations(range(layout.n_disks), layout.fault_tolerance):
        got = layout.decode([None if d in lost else c for d, c in enumerate(columns)])
        assert len(got) == layout.n_disks
        for d in range(layout.n_disks):
            assert np.array_equal(got[d], columns[d]), (lost, d)


@pytest.mark.parametrize("factory", DECODER_FACTORIES)
def test_too_many_erasures_rejected(factory, rng):
    layout = factory()
    columns = _full_columns(layout, rng)
    k = layout.fault_tolerance + 1
    with pytest.raises(ValueError, match=r"erasures exceed .*tolerance of 2"):
        layout.decode([None] * k + columns[k:])


@pytest.mark.parametrize("factory", DECODER_FACTORIES)
def test_wrong_device_count_rejected(factory):
    layout = factory()
    with pytest.raises(ValueError, match="column slots"):
        layout.decode([None] * (layout.n_disks + 1))


def test_evenodd_decoder_picks_shorten_prime():
    assert [RAID6Layout(n, "evenodd").p for n in (5, 6, 8)] == [5, 7, 11]


def test_rdp_decoder_picks_shorten_prime():
    # RDP needs p >= n + 1 data-capable columns
    assert [RAID6Layout(n, "rdp").p for n in (4, 6, 7)] == [5, 7, 11]


def test_fault_tolerances():
    assert build_layout("raid5", 4).fault_tolerance == 1
    assert RAID6Layout(4, "evenodd").fault_tolerance == 2
    assert RAID6Layout(4, "rdp").fault_tolerance == 2
    assert XCodeLayout(5).fault_tolerance == 2
