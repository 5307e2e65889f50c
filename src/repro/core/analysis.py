"""Closed-form performance analysis (paper §VI, Table I, Fig. 7).

Everything here is exact arithmetic from the paper's counting arguments
— no simulation.  The test suite cross-checks these formulas against
brute-force enumeration of :meth:`Layout.reconstruction_plan` over all
failure combinations, which is precisely how the paper derives them
("rigorous counting and averaging on a simple stripe" [14]).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..codes.evenodd import smallest_prime_at_least
from .layouts import MirrorParityLayout

__all__ = [
    "Table1Row",
    "table1",
    "avg_read_accesses_shifted_parity",
    "avg_read_accesses_traditional_parity",
    "avg_read_accesses_raid6",
    "avg_read_accesses_enumerated",
    "mirror_reconstruction_gain",
    "mirror_parity_reconstruction_gain",
    "fig7_ratio_vs_traditional",
    "fig7_ratio_vs_raid6",
    "fig7_series",
    "storage_efficiency_mirror",
    "storage_efficiency_mirror_parity",
    "storage_efficiency_raid6",
    "small_write_cost",
    "large_write_accesses",
]


# ======================================================================
# Table I — double-failure cases of the shifted mirror method w/ parity
# ======================================================================


@dataclass(frozen=True)
class Table1Row:
    """One failure situation ``F_i`` of Table I."""

    situation: str
    description: str
    num_cases: int
    num_read_accesses: int


def table1(n: int) -> list[Table1Row]:
    """Table I for ``n`` data disks.

    F1: the two failed disks include the parity disk  — 2n cases, 1 access.
    F2: both failed disks in the same disk array      — n(n-1) cases, 2.
    F3: one failed disk in each disk array            — n^2 cases, 2.
    """
    if n < 2:
        raise ValueError(f"Table I needs n >= 2, got {n}")
    return [
        Table1Row(
            "F1",
            "The two failed disks include the parity disk",
            2 * n,
            1,
        ),
        Table1Row(
            "F2",
            "The two failed disks are in the same disk array",
            n * (n - 1),
            2,
        ),
        Table1Row(
            "F3",
            "Each disk array contains one failed disk",
            n * n,
            2,
        ),
    ]


def avg_read_accesses_shifted_parity(n: int) -> Fraction:
    """Expectation of Table I: ``4n / (2n + 1)`` (paper §VI-A)."""
    rows = table1(n)
    total_cases = sum(r.num_cases for r in rows)
    weighted = sum(r.num_cases * r.num_read_accesses for r in rows)
    result = Fraction(weighted, total_cases)
    assert result == Fraction(4 * n, 2 * n + 1)
    return result


def avg_read_accesses_traditional_parity(n: int) -> Fraction:
    """Every double-failure case of the traditional arrangement costs
    ``n`` accesses (a full column read from a single disk), so the
    average is ``n``."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return Fraction(n)


def avg_read_accesses_raid6(n: int, code: str = "rdp") -> Fraction:
    """RAID 6 double-failure read accesses under the "shorten" method.

    Every reconstruction reads all intact elements; with each surviving
    disk holding ``p - 1`` elements, that is ``p - 1`` accesses, where
    ``p`` is the smallest prime admitting ``n`` data columns
    (``p >= n`` for EVENODD, ``p >= n + 1`` for RDP).  The shortening
    gap ``p - 1 >= n`` (RDP) is exactly why the paper's Fig. 7 shows
    the RAID 6 curve slightly below the traditional mirror-with-parity
    curve.
    """
    if code == "evenodd":
        p = smallest_prime_at_least(max(n, 3))
    elif code == "rdp":
        p = smallest_prime_at_least(max(n + 1, 3))
    else:
        raise ValueError(f"unknown RAID 6 code {code!r}")
    return Fraction(p - 1)


def avg_read_accesses_enumerated(layout: MirrorParityLayout, n_failed: int = 2) -> Fraction:
    """Brute-force average of Table I's metric over all failure sets.

    Enumerates every combination of ``n_failed`` disks and averages
    :meth:`MirrorParityLayout.data_recovery_read_accesses` — the
    ground truth the closed forms must match.
    """
    cases = layout.all_failure_sets(n_failed)
    total = sum(layout.data_recovery_read_accesses(c) for c in cases)
    return Fraction(total, len(cases))


# ======================================================================
# Reconstruction gains (§IV-B, §VI-A)
# ======================================================================


def mirror_reconstruction_gain(n: int) -> Fraction:
    """Shifted over traditional mirror method: a factor of ``n``.

    Traditional single-disk reconstruction reads ``n`` elements from
    one disk (n accesses); shifted reads one element from each of the
    ``n`` disks of the other array (1 access).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return Fraction(n)


def mirror_parity_reconstruction_gain(n: int) -> Fraction:
    """Shifted over traditional mirror-with-parity: ``(2n + 1) / 4``."""
    gain = avg_read_accesses_traditional_parity(n) / avg_read_accesses_shifted_parity(n)
    assert gain == Fraction(2 * n + 1, 4)
    return gain


def three_mirror_single_failure_accesses(n: int, shifted: bool) -> int:
    """Read accesses to rebuild one disk of a three-mirror array (§VIII).

    Traditional triple replication can split the failed column between
    its *two* verbatim copy disks — ``ceil(n/2)`` accesses; the shifted
    extension (paper future work) scatters both replica sets, reaching
    the one-access optimum.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return 1 if shifted else (n + 1) // 2


def three_mirror_reconstruction_gain(n: int) -> Fraction:
    """Shifted over traditional three-mirror: ``ceil(n/2)``."""
    return Fraction(
        three_mirror_single_failure_accesses(n, shifted=False),
        three_mirror_single_failure_accesses(n, shifted=True),
    )


# ======================================================================
# Fig. 7 — relative read accesses during reconstruction
# ======================================================================


def fig7_ratio_vs_traditional(n: int) -> float:
    """Shifted-with-parity accesses over traditional-with-parity, in percent."""
    ratio = avg_read_accesses_shifted_parity(n) / avg_read_accesses_traditional_parity(n)
    return float(ratio) * 100.0


def fig7_ratio_vs_raid6(n: int, code: str = "rdp") -> float:
    """Shifted-with-parity accesses over RAID 6, in percent."""
    ratio = avg_read_accesses_shifted_parity(n) / avg_read_accesses_raid6(n, code)
    return float(ratio) * 100.0


def fig7_series(n_min: int = 2, n_max: int = 50, code: str = "rdp") -> dict[str, list[float]]:
    """The two Fig. 7 curves over a range of data-disk counts."""
    ns = list(range(n_min, n_max + 1))
    return {
        "n": [float(n) for n in ns],
        "vs_traditional_percent": [fig7_ratio_vs_traditional(n) for n in ns],
        "vs_raid6_percent": [fig7_ratio_vs_raid6(n, code) for n in ns],
    }


# ======================================================================
# Storage efficiency (§VI-D) and write cost (§VI-C)
# ======================================================================


def storage_efficiency_mirror(n: int) -> Fraction:
    """``n / 2n`` — half, independent of n."""
    return Fraction(n, 2 * n)


def storage_efficiency_mirror_parity(n: int) -> Fraction:
    """``n / (2n + 1)`` — approaches one half from below."""
    return Fraction(n, 2 * n + 1)


def storage_efficiency_raid6(n: int) -> Fraction:
    """``n / (n + 2)`` — the MDS optimum for two-fault tolerance."""
    return Fraction(n, n + 2)


def raid6_avg_small_write_updates(n: int, code: str = "rdp") -> Fraction:
    """Average elements written by a single-element update in RAID 6.

    The mirror methods write exactly 2 (without parity) or 3 (with)
    elements per small write — the theoretical optima.  RAID 6 cannot
    match that (§II-C2, citing Blaum et al.): every update rewrites the
    element, its row parity, and one *or more* diagonal parities
    (EVENODD's adjuster diagonal rewrites them all; RDP's P cascade
    dirties a second diagonal).  Enumerated exactly over the stripe.
    """
    from .layouts import RAID6Layout

    lay = RAID6Layout(n, code)
    total = 0
    cells = 0
    for i in range(n):
        for j in range(lay.rows):
            total += lay.write_plan([(i, j)]).total_elements_written
            cells += 1
    return Fraction(total, cells)


def small_write_cost(layout_kind: str) -> int:
    """Elements written by a single-element modification.

    ``mirror`` -> 2 (data + replica), ``mirror-parity`` -> 3 (data +
    replica + parity), both the theoretical optima for their fault
    tolerance; the paper contrasts RAID 6 codes, which cannot reach 3
    in general [19, 20].
    """
    table = {"mirror": 2, "mirror-parity": 3, "three-mirror": 3}
    if layout_kind not in table:
        raise ValueError(f"unknown layout kind {layout_kind!r}")
    return table[layout_kind]


def large_write_accesses(layout, j: int = 0) -> int:
    """Write accesses for a full-row write under a layout.

    1 for any arrangement satisfying Property 3 (identity, shifted);
    more when Property 3 fails — the §VI-E iterate-3 arrangement is the
    canonical counterexample.
    """
    return layout.large_write_plan(j).num_write_accesses
