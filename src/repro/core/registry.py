"""Layout registry: typed specs, comparison pairs, and leaderboard rosters.

Campaign sweeps ship their work to process-pool workers as plain
picklable specs; a :class:`~repro.core.layouts.Layout` instance (and
especially a closure over one) is not a good wire format, so workers
rebuild layouts from the registry name.  The CLI re-exports this table
as its ``--layout`` choices.

Beyond the name -> builder map, every entry is a :class:`LayoutSpec`
declaring what *kind* of redundancy the layout places (``mirror``
replica maps, ``parity``, or ``code`` symbol placement) and whether it
belongs on the cross-layout leaderboard.  Families that exist in a
baseline/variant pairing — the paper's traditional-vs-shifted
comparisons, plus the competitor layouts measured against their natural
baselines — are declared in :data:`COMPARISONS` and resolved through
:func:`comparison_pair`, which is what the fault-campaign, serve, and
nemesis tiers use instead of assuming a ``shifted-`` name prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .arrangement import (
    GroupRotatedArrangement,
    IdentityArrangement,
    PermutationArrangement,
    ShiftedArrangement,
)
from .layouts import (
    DeclusteredMirrorLayout,
    Layout,
    MirrorLayout,
    MirrorParityLayout,
    RAID5Layout,
    RAID6Layout,
    RebuildOptimalRDPLayout,
    ThreeMirrorLayout,
    XCodeLayout,
)

__all__ = [
    "LayoutSpec",
    "REGISTRY",
    "LAYOUTS",
    "COMPARISONS",
    "register",
    "build_layout",
    "comparison_pair",
    "comparison_families",
    "leaderboard_layouts",
]


@dataclass(frozen=True)
class LayoutSpec:
    """One registered layout: builder plus the metadata tooling needs.

    ``redundancy`` names the placement kind the layout declares —
    ``"mirror"`` (a replica placement map), ``"parity"`` (replicas plus
    a parity column), or ``"code"`` (erasure-code symbol placement).
    ``leaderboard`` admits the layout to :func:`leaderboard_layouts`
    rosters; ``min_n`` is the smallest data-disk count the builder
    accepts.
    """

    name: str
    builder: Callable[[int], Layout]
    description: str
    redundancy: str = "mirror"
    leaderboard: bool = True
    min_n: int = 2


#: registry name -> :class:`LayoutSpec`, in registration order
REGISTRY: dict[str, LayoutSpec] = {}

#: layout name -> builder taking the data-disk count (kept in sync with
#: :data:`REGISTRY`; the historical wire format of sweep workers)
LAYOUTS: dict[str, Callable[[int], Layout]] = {}


def register(spec: LayoutSpec) -> LayoutSpec:
    """Add a layout spec to the registry (rejecting duplicate names)."""
    if spec.name in REGISTRY:
        raise ValueError(f"layout {spec.name!r} already registered")
    REGISTRY[spec.name] = spec
    LAYOUTS[spec.name] = spec.builder
    return spec


def _reverse_shift(n: int) -> PermutationArrangement:
    return PermutationArrangement(
        n, {(i, j): ((i - j) % n, i) for i in range(n) for j in range(n)}
    )


register(LayoutSpec(
    "mirror", lambda n: MirrorLayout(n, IdentityArrangement(n)),
    "traditional mirror method (identity arrangement, §II-B)",
))
register(LayoutSpec(
    "shifted-mirror", lambda n: MirrorLayout(n, ShiftedArrangement(n)),
    "the paper's shifted mirror method (§IV)",
))
register(LayoutSpec(
    "group-rotated-mirror",
    lambda n: MirrorLayout(
        n, GroupRotatedArrangement(n, 2), name="group-rotated-mirror"
    ),
    "mirror with replicas rotated by row groups of 2 — a cheap middle "
    "point between traditional and shifted",
))
register(LayoutSpec(
    "declustered-mirror", DeclusteredMirrorLayout,
    "parity-declustered mirroring over a pooled 2n-disk array "
    "(t-design placement, uniform rebuild load on every survivor)",
))
register(LayoutSpec(
    "mirror-parity", lambda n: MirrorParityLayout(n, IdentityArrangement(n)),
    "traditional mirror method with a parity disk (§II-C1)",
    redundancy="parity",
))
register(LayoutSpec(
    "shifted-mirror-parity", lambda n: MirrorParityLayout(n, ShiftedArrangement(n)),
    "shifted mirror method with a parity disk (§V)",
    redundancy="parity",
))
register(LayoutSpec(
    "three-mirror", lambda n: ThreeMirrorLayout(n),
    "three-way mirroring, identity arrangements (§VIII)",
))
register(LayoutSpec(
    "shifted-three-mirror",
    lambda n: ThreeMirrorLayout(n, ShiftedArrangement(n), _reverse_shift(n)),
    "three-way mirroring with shifted and inverse-shifted arrays (§VIII)",
))
register(LayoutSpec(
    "raid5", RAID5Layout,
    "RAID 5 with a dedicated parity disk (§II-C)",
    redundancy="parity",
))
register(LayoutSpec(
    "raid6-evenodd", lambda n: RAID6Layout(n, "evenodd"),
    "RAID 6 via the EVENODD code (§II-C2)",
    redundancy="code",
))
register(LayoutSpec(
    "raid6-rdp", lambda n: RAID6Layout(n, "rdp"),
    "RAID 6 via Row-Diagonal Parity (§II-C2)",
    redundancy="code",
))
register(LayoutSpec(
    "rebuild-optimal-rdp", RebuildOptimalRDPLayout,
    "RDP with minimum-read hybrid row/diagonal single-disk rebuild "
    "(Wang/Tamo/Bruck spirit)",
    redundancy="code",
))
register(LayoutSpec(
    "xcode", XCodeLayout,
    "vertical RAID 6 via X-Code; n must be prime >= 5",
    redundancy="code",
    # vertical geometry: data rows < n, so the shared user-read streams
    # (which index j < n) do not apply — excluded from leaderboards
    leaderboard=False,
    min_n=5,
))


#: comparison family -> (baseline layout name, variant layout name).
#: The paper's families pit traditional against shifted; the competitor
#: families pit each new layout against its natural baseline.
COMPARISONS: dict[str, tuple[str, str]] = {
    "mirror": ("mirror", "shifted-mirror"),
    "mirror-parity": ("mirror-parity", "shifted-mirror-parity"),
    "three-mirror": ("three-mirror", "shifted-three-mirror"),
    "group-rotated": ("mirror", "group-rotated-mirror"),
    "declustered": ("mirror", "declustered-mirror"),
    "rebuild-optimal": ("raid6-rdp", "rebuild-optimal-rdp"),
}


def build_layout(name: str, n: int) -> Layout:
    """Instantiate a layout by registry name."""
    try:
        builder = LAYOUTS[name]
    except KeyError:
        raise SystemExit(
            f"unknown layout {name!r}; choose from {', '.join(sorted(LAYOUTS))}"
        ) from None
    return builder(n)


def comparison_pair(family: str) -> tuple[str, str]:
    """The ``(baseline, variant)`` layout names of a comparison family.

    This is the registry-declared replacement for the historical
    ``LAYOUTS[family]`` / ``LAYOUTS[f"shifted-{family}"]`` pairing: a
    family's two sides no longer need to share a name prefix, so
    competitor layouts (declustered, group-rotated, rebuild-optimal)
    are selectable everywhere a traditional-vs-shifted comparison runs.
    Raises :class:`ValueError` for names without a declared pair —
    including registered layout names like ``raid5`` or ``xcode`` that
    are layouts but not families.
    """
    try:
        return COMPARISONS[family]
    except KeyError:
        raise ValueError(
            f"family {family!r} has no registered comparison pair; "
            f"choose from {', '.join(comparison_families())}"
        ) from None


def comparison_families() -> list[str]:
    """Sorted names of every declared comparison family."""
    return sorted(COMPARISONS)


def leaderboard_layouts(n: int) -> list[str]:
    """Registry names eligible for an ``n``-data-disk leaderboard sweep.

    Registration order (stable and deterministic), filtered by each
    spec's ``leaderboard`` flag and ``min_n`` floor — plus a geometry
    check: the shared arrival stream addresses data cells ``(i, j)``
    with ``j < n``, so a layout whose stripe holds fewer than ``n``
    data rows (EVENODD at prime ``n``, where ``p = n`` leaves ``n - 1``
    rows) cannot serve the mix and sits the sweep out.
    """
    eligible = []
    for name, spec in REGISTRY.items():
        if not spec.leaderboard or n < spec.min_n:
            continue
        layout = spec.builder(n)
        if layout.content_table.data_rows < n:
            continue
        eligible.append(name)
    return eligible
