"""Table-driven content install against the per-element reference loop.

The controller installs every stripe's content with one scatter derived
from the layout's compiled :class:`~repro.core.layouts.ContentTable`.
The loop below is the install it replaced: film element by film
element, cell by cell through ``content()`` and ``place()``, with the
codes called stripe by stripe.  It stays here as the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codes.evenodd import EvenOdd
from repro.codes.rdp import RDP
from repro.codes.xcode import XCode
from repro.core.errors import LayoutError
from repro.core.layouts import RAID6Layout, XCodeLayout
from repro.core.registry import REGISTRY, build_layout
from repro.raidsim.controller import RaidController
from repro.workloads.film import (
    FilmSource,
    _element_payload,
    _shared_films,
    build_film_block,
    register_shared_film,
    unregister_shared_film,
)

STRIPE_COUNTS = (1, 4, 7)
PAYLOAD = 8


def _reference_install(ctrl: RaidController) -> np.ndarray:
    """The per-element install loop: the oracle for the table path."""
    lay = ctrl.layout
    out = np.zeros_like(ctrl.content)
    data_rows = getattr(lay, "data_rows", lay.rows)
    seed, payload = ctrl.film.seed, ctrl.payload_bytes
    for stripe in range(ctrl.n_stripes):
        data = np.empty((data_rows, lay.n, payload), dtype=np.uint8)
        for j in range(data_rows):
            for i in range(lay.n):
                data[j, i] = _element_payload(seed, payload, stripe, i, j)
        for disk in range(lay.n_disks):
            for row in range(lay.rows):
                c = lay.content(disk, row)
                pd, slot = ctrl.place(stripe, (disk, row))
                if c.kind in ("data", "replica"):
                    out[pd, slot] = data[c.j, c.i]
                elif c.kind == "parity" and not isinstance(
                    lay, (RAID6Layout, XCodeLayout)
                ):
                    out[pd, slot] = np.bitwise_xor.reduce(data[c.j], axis=0)
        if isinstance(lay, RAID6Layout):
            code = EvenOdd(lay.p, lay.n) if lay.code_name == "evenodd" else RDP(lay.p, lay.n)
            row_par, diag_par = code.encode(data)
            for row in range(lay.rows):
                out[ctrl.place(stripe, (lay.p_disk, row))] = row_par[row]
                out[ctrl.place(stripe, (lay.q_disk, row))] = diag_par[row]
        elif isinstance(lay, XCodeLayout):
            diag, anti = XCode(lay.p).encode(data)
            for disk in range(lay.n_disks):
                out[ctrl.place(stripe, (disk, lay.p - 2))] = diag[disk]
                out[ctrl.place(stripe, (disk, lay.p - 1))] = anti[disk]
    return out


def _valid_layouts(name: str):
    for n in range(2, 10):
        try:
            yield build_layout(name, n)
        except (LayoutError, ValueError):
            continue


@pytest.mark.parametrize("name", list(REGISTRY))
def test_table_install_matches_reference_loop(name):
    """Every valid n, rotation on and off, several stripe counts."""
    layouts = list(_valid_layouts(name))
    assert layouts, name
    for layout in layouts:
        for rotate in (False, True):
            for n_stripes in STRIPE_COUNTS:
                ctrl = RaidController(
                    layout, n_stripes=n_stripes, payload_bytes=PAYLOAD,
                    rotate=rotate, spares=1, tracer=False,
                )
                want = _reference_install(ctrl)
                assert np.array_equal(ctrl.content, want), (layout.n, rotate, n_stripes)
                assert ctrl.verify_redundancy()


@pytest.fixture
def private_film():
    """A film seed no other test registers, unregistered afterwards."""
    seed = 424242
    unregister_shared_film(seed, PAYLOAD)
    yield seed
    unregister_shared_film(seed, PAYLOAD)


@pytest.mark.parametrize("covering", [True, False])
def test_install_from_a_registered_shared_block(private_film, covering):
    """A pre-registered block (as a worker pool exports) serves the
    install whether it covers the request or must grow past it."""
    layout = build_layout("shifted-mirror-parity", 4)
    dims = (6, 4, 4) if covering else (2, 3, 1)
    block = build_film_block(private_film, PAYLOAD, *dims)
    register_shared_film(private_film, PAYLOAD, block)
    ctrl = RaidController(
        layout, n_stripes=5, payload_bytes=PAYLOAD, film_seed=private_film,
        rotate=True, tracer=False,
    )
    assert np.array_equal(ctrl.content, _reference_install(ctrl))
    held = _shared_films[(private_film, PAYLOAD)]
    if covering:
        assert held is block
    else:
        assert held.shape == (5, 4, 4, PAYLOAD)
        assert np.array_equal(held[:2, :3, :1], block)


def test_film_block_cells_equal_elements(private_film):
    film = FilmSource(PAYLOAD, private_film)
    first = film.block(3, 2, 4)
    assert first.shape == (3, 2, 4, PAYLOAD)
    assert not first.flags.writeable
    grown = film.block(5, 3, 1)
    assert grown.shape == (5, 3, 1, PAYLOAD)
    # one block per film, grown to the largest request in each axis
    assert _shared_films[(private_film, PAYLOAD)].shape == (5, 3, 4, PAYLOAD)
    for blk in (first, grown, film.block(5, 3, 4)):
        for s, i, j in np.ndindex(*blk.shape[:3]):
            assert np.array_equal(blk[s, i, j], film.element(s, i, j))
            assert np.array_equal(blk[s, i, j], _element_payload(private_film, PAYLOAD, s, i, j))


def test_content_table_partitions_every_cell():
    rng = np.random.default_rng(5)
    for name, spec in REGISTRY.items():
        layout = build_layout(name, max(3, spec.min_n))
        t = layout.content_table
        assert t is layout.content_table  # compiled once per instance
        cells = {tuple(c) for c in t.cells.tolist()}
        assert len(cells) == len(t.cells) == layout.n_disks * layout.rows
        # the primaries of a derived stripe give its data block back
        block = rng.integers(0, 256, (3, t.data_rows, t.n, PAYLOAD), dtype=np.uint8)
        assert np.array_equal(t.data_block(layout.derive(block)), block)
