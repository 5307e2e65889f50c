"""The registry's comparison-pair mechanism and leaderboard rosters.

Guards the ISSUE 10 bugfix: family pairings are *declared* in the
registry (``COMPARISONS``), never derived from a ``shifted-`` name
prefix, and an unpaired name fails fast with the valid choices.
"""

from __future__ import annotations

import pytest

from repro.core.registry import (
    COMPARISONS,
    LAYOUTS,
    REGISTRY,
    LayoutSpec,
    build_layout,
    comparison_families,
    comparison_pair,
    leaderboard_layouts,
    register,
)


def test_every_family_resolves_to_registered_layouts():
    for family in comparison_families():
        baseline, variant = comparison_pair(family)
        assert baseline in LAYOUTS and variant in LAYOUTS
        assert baseline != variant


def test_paper_families_keep_their_shifted_pairing():
    assert comparison_pair("mirror") == ("mirror", "shifted-mirror")
    assert comparison_pair("mirror-parity") == (
        "mirror-parity", "shifted-mirror-parity"
    )
    assert comparison_pair("three-mirror") == (
        "three-mirror", "shifted-three-mirror"
    )


def test_competitor_families_pair_against_natural_baselines():
    assert comparison_pair("declustered") == ("mirror", "declustered-mirror")
    assert comparison_pair("group-rotated") == ("mirror", "group-rotated-mirror")
    assert comparison_pair("rebuild-optimal") == (
        "raid6-rdp", "rebuild-optimal-rdp"
    )


@pytest.mark.parametrize("name", ["raid5", "xcode", "shifted-mirror", "nope"])
def test_unpaired_name_fails_fast_with_choices(name):
    """The fail-before test: layout names that are not comparison
    families raise ValueError listing the valid families."""
    with pytest.raises(ValueError) as exc:
        comparison_pair(name)
    message = str(exc.value)
    assert repr(name) in message
    for family in comparison_families():
        assert family in message


def test_pair_sides_agree_on_array_width():
    """Nemesis runs both sides against one fault schedule sized off the
    disk count — every declared pair must agree on it."""
    for family in comparison_families():
        baseline, variant = (
            build_layout(name, 4) for name in comparison_pair(family)
        )
        assert baseline.n_disks == variant.n_disks, family


def test_leaderboard_roster_contents():
    roster = leaderboard_layouts(5)
    for required in (
        "mirror", "shifted-mirror", "declustered-mirror",
        "rebuild-optimal-rdp", "group-rotated-mirror",
    ):
        assert required in roster
    assert "xcode" not in roster  # vertical geometry, excluded by spec
    # registration order is the roster order (stable across runs)
    assert roster == [n for n in REGISTRY if n in set(roster)]


def test_leaderboard_roster_respects_min_n():
    assert "xcode" not in leaderboard_layouts(7)  # flag, not just min_n
    small = leaderboard_layouts(2)
    assert "mirror" in small and "declustered-mirror" in small


def test_registry_and_layouts_dict_stay_in_sync():
    assert set(REGISTRY) == set(LAYOUTS)
    for name, spec in REGISTRY.items():
        assert spec.name == name
        assert LAYOUTS[name] is spec.builder
        assert spec.redundancy in {"mirror", "parity", "code"}


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError):
        register(LayoutSpec("mirror", lambda n: None, "dup"))


def test_every_spec_builds_a_layout_bearing_its_name():
    for name, spec in REGISTRY.items():
        lay = build_layout(name, spec.min_n if name == "xcode" else 4)
        assert lay.name == name, (name, lay.name)


def test_unknown_layout_name_exits():
    with pytest.raises(SystemExit):
        build_layout("not-a-layout", 4)
