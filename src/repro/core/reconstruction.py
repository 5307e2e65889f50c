"""Reconstruction plans and the parallel read-access metric (§III, §IV-B, §V-B).

The paper's central quantity is the **number of read accesses** needed
to fetch everything required to recover the failed elements of one
stripe: thanks to parallel I/O, every disk can deliver one element per
access, so the number of accesses equals the *maximum number of
elements read from any single disk*.

A :class:`ReconstructionPlan` captures, for one stripe and one failure
set:

* ``reads`` — which (disk, row) elements must be fetched;
* ``steps`` — ordered recovery operations producing each lost element
  (copy from a replica, XOR of a parity set, or a full code decode);
* the derived access counts.

Plans are *pure descriptions*: :mod:`repro.raidsim` executes them
against the disk simulator, and :mod:`repro.core.analysis` counts them
symbolically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = [
    "RecoveryMethod",
    "RecoveryStep",
    "ReconstructionPlan",
    "RebuildPhase",
    "split_into_phases",
    "num_read_accesses",
]


class RecoveryMethod(str, enum.Enum):
    """How one lost element is computed from its sources."""

    COPY = "copy"  # replica copy (mirror family)
    XOR = "xor"  # XOR of the sources (parity row recovery)
    CODE = "code"  # generic erasure decode (RAID 6 baselines)
    RECOMPUTE = "recompute"  # parity regenerated from data sources

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class RecoveryStep:
    """Produce the element at ``target`` from ``sources``.

    ``sources`` entries are ``(disk, row)`` pairs; a source may be the
    target of an *earlier* step in the same plan (e.g. the traditional
    mirror+parity replica-pair failure first rebuilds the data column
    from parity, then copies it to the mirror column without extra
    reads).  Steps are therefore ordered.
    """

    target: tuple[int, int]
    method: RecoveryMethod
    sources: tuple[tuple[int, int], ...]


@dataclass
class ReconstructionPlan:
    """Everything needed to recover one stripe after a disk failure set.

    Attributes
    ----------
    failed_disks:
        The failed global disk ids this plan repairs.
    reads:
        ``disk -> sorted list of rows`` of elements that must be
        physically read from surviving disks.
    steps:
        Ordered recovery operations (see :class:`RecoveryStep`).
    """

    failed_disks: tuple[int, ...]
    reads: dict[int, list[int]] = field(default_factory=dict)
    steps: list[RecoveryStep] = field(default_factory=list)

    # ------------------------------------------------------------------
    def add_read(self, disk: int, row: int) -> None:
        """Require element ``(disk, row)``; duplicates collapse."""
        rows = self.reads.setdefault(disk, [])
        if row not in rows:
            rows.append(row)
            rows.sort()

    def add_step(
        self,
        target: tuple[int, int],
        method: RecoveryMethod,
        sources,
        read_sources: bool = True,
    ) -> None:
        """Append a recovery step, registering source reads by default.

        Sources located on failed disks or produced by earlier steps are
        never read from disk; pass ``read_sources=False`` to suppress
        registration entirely (e.g. when sources were already consumed
        by another step and double-counting is handled by ``add_read``'s
        dedup anyway — the flag exists for sources that are *recovered*
        elements).
        """
        sources = tuple(sources)
        if read_sources:
            produced = {s.target for s in self.steps}
            for disk, row in sources:
                if disk in self.failed_disks or (disk, row) in produced:
                    continue
                self.add_read(disk, row)
        self.steps.append(RecoveryStep(target, method, sources))

    # ------------------------------------------------------------------
    @property
    def num_read_accesses(self) -> int:
        """Max elements read from one disk == parallel read accesses (§III)."""
        if not self.reads:
            return 0
        return max(len(rows) for rows in self.reads.values())

    @property
    def total_elements_read(self) -> int:
        return sum(len(rows) for rows in self.reads.values())

    def reads_per_disk(self) -> dict[int, int]:
        return {disk: len(rows) for disk, rows in self.reads.items()}

    def validate(self, n_disks: int, rows: int) -> None:
        """Internal consistency checks (used heavily by the test suite).

        * no reads from failed disks;
        * every step source is either read, produced earlier, or lost
          forever (which would be a planner bug);
        * indices in range.
        """
        read_set = {(d, r) for d, rs in self.reads.items() for r in rs}
        for disk, rows_ in self.reads.items():
            if disk in self.failed_disks:
                raise AssertionError(f"plan reads from failed disk {disk}")
            if not 0 <= disk < n_disks:
                raise AssertionError(f"disk {disk} out of range")
            for r in rows_:
                if not 0 <= r < rows:
                    raise AssertionError(f"row {r} out of range")
        produced: set[tuple[int, int]] = set()
        for step in self.steps:
            for src in step.sources:
                disk = src[0]
                if disk in self.failed_disks and src not in produced:
                    raise AssertionError(
                        f"step for {step.target} uses unrecovered source {src} on a failed disk"
                    )
                if disk not in self.failed_disks and src not in read_set and src not in produced:
                    raise AssertionError(
                        f"step for {step.target} uses source {src} that is never read"
                    )
            produced.add(step.target)


def num_read_accesses(plan: ReconstructionPlan) -> int:
    """Module-level alias for :attr:`ReconstructionPlan.num_read_accesses`."""
    return plan.num_read_accesses


@dataclass
class RebuildPhase:
    """One failed disk's share of a reconstruction plan.

    Real rebuilds replace one disk at a time (a hot spare per failed
    device), so the executor processes the plan as sequential *phases*,
    one per failed disk.  A phase carries the steps targeting its disk
    plus the reads those steps need that earlier phases did not already
    fetch (sources recovered by earlier phases cost nothing — they are
    in controller memory).
    """

    failed_disk: int
    reads: dict[int, list[int]] = field(default_factory=dict)
    steps: list[RecoveryStep] = field(default_factory=list)

    @property
    def num_read_accesses(self) -> int:
        if not self.reads:
            return 0
        return max(len(rows) for rows in self.reads.values())


def split_into_phases(plan: ReconstructionPlan) -> list[RebuildPhase]:
    """Split a plan into per-failed-disk phases, in target-disk order.

    Phase order follows ``plan.failed_disks`` (ascending), which the
    layout planners arrange so that dependencies only point backwards
    (e.g. a mirror column copied from data recovered via parity in an
    earlier phase).  Reads are deduplicated across phases: a source
    fetched by phase ``k`` is free for phase ``k+1``.
    """
    steps_by_disk: dict[int, list[RecoveryStep]] = {f: [] for f in plan.failed_disks}
    for step in plan.steps:
        disk = step.target[0]
        if disk not in steps_by_disk:
            raise AssertionError(f"plan step targets non-failed disk {disk}")
        steps_by_disk[disk].append(step)

    produced: set[tuple[int, int]] = set()
    fetched: set[tuple[int, int]] = set()
    phases: list[RebuildPhase] = []
    for f in plan.failed_disks:
        phase = RebuildPhase(f)
        for step in steps_by_disk[f]:
            for src in step.sources:
                if src[0] in plan.failed_disks or src in produced or src in fetched:
                    continue
                fetched.add(src)
                rows = phase.reads.setdefault(src[0], [])
                if src[1] not in rows:
                    rows.append(src[1])
                    rows.sort()
            phase.steps.append(step)
            produced.add(step.target)
        phases.append(phase)
    return phases
