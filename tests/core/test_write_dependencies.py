"""Write plans read what their written cells depend on.

Every code here is XOR-linear, so pushing a unit impulse on each data
element through :meth:`Layout.derive` gives every cell's data
dependencies.  A ``reconstruct`` write recomputes its written redundancy
from the data, so it has to read every *other* primary that a written
cell depends on; a plan that skips one under-counts the write's I/O.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.registry import LAYOUTS, build_layout

N = 5

#: layouts whose single-element reconstruct writes read only the
#: element's row while their Q / diagonal cells span other rows too
#: (at n = 5: every one of EVENODD's 20, RDP's and rebuild-optimal
#: RDP's 30 and X-Code's 15 plans)
_UNDER_READ = {"raid6-evenodd", "raid6-rdp", "rebuild-optimal-rdp", "xcode"}


def _dependencies(layout) -> dict[tuple[int, int], set[tuple[int, int]]]:
    """Cell ``(disk, row)`` -> the data elements ``(i, j)`` it depends on."""
    t = layout.content_table
    elements = [(i, j) for j in range(t.data_rows) for i in range(t.n)]
    impulses = np.zeros((len(elements), t.data_rows, t.n, 1), dtype=np.uint8)
    for k, (i, j) in enumerate(elements):
        impulses[k, j, i, 0] = 1
    derived = layout.derive(impulses)[:, :, 0]  # (elements, cells)
    deps: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for c, (disk, row) in enumerate(t.cells.tolist()):
        deps[(disk, row)] = {elements[k] for k in np.flatnonzero(derived[:, c])}
    return deps


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(
            name,
            marks=pytest.mark.xfail(
                strict=True,
                reason="reconstruct write plans read only the element's row; "
                "ROADMAP item 2 derives plans from the dependency matrix",
            ),
        )
        if name in _UNDER_READ
        else name
        for name in sorted(LAYOUTS)
    ],
)
def test_reconstruct_write_reads_every_primary_its_cells_depend_on(name):
    layout = build_layout(name, N)
    deps = _dependencies(layout)
    t = layout.content_table
    short = []
    for j in range(t.data_rows):
        for i in range(t.n):
            plan = layout.write_plan([(i, j)], "reconstruct")
            needed = set()
            for disk, rows in plan.writes.items():
                for row in rows:
                    needed |= deps[(disk, row)]
            needed.discard((i, j))
            read = {(d, r) for d, rows in plan.reads.items() for r in rows}
            missing = {e for e in needed if layout.data_cell(*e) not in read}
            if missing:
                short.append(((i, j), sorted(missing)))
    assert not short, f"{len(short)} plans miss reads, e.g. {short[:2]}"
