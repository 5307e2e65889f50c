"""Workload generators: the Fig. 10 write mix and user read streams."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.generator import (
    UserRead,
    WriteOp,
    random_large_writes,
    user_read_stream,
)


# ----------------------------------------------------------------------
# random large writes
# ----------------------------------------------------------------------


def test_op_count_and_types():
    ops = random_large_writes(4, 8, n_ops=50, rng=np.random.default_rng(0))
    assert len(ops) == 50
    assert all(isinstance(op, WriteOp) for op in ops)


@given(seed=st.integers(0, 10_000), n=st.integers(2, 7))
@settings(max_examples=40, deadline=None)
def test_ops_respect_stripe_bounds_and_are_row_major(seed, n):
    ops = random_large_writes(n, 5, n_ops=20, rng=np.random.default_rng(seed))
    for op in ops:
        assert 0 <= op.stripe < 5
        assert 1 <= op.n_elements <= n * n
        # row-major contiguity: element indices form a consecutive run
        indices = [j * n + i for i, j in op.elements]
        assert indices == list(range(indices[0], indices[0] + len(indices)))
        for i, j in op.elements:
            assert 0 <= i < n and 0 <= j < n


def test_sizes_span_element_to_full_stripe():
    ops = random_large_writes(3, 4, n_ops=500, rng=np.random.default_rng(1))
    sizes = {op.n_elements for op in ops}
    assert 1 in sizes
    assert 9 in sizes  # whole stripe


def test_deterministic_given_rng():
    a = random_large_writes(4, 4, 30, np.random.default_rng(7))
    b = random_large_writes(4, 4, 30, np.random.default_rng(7))
    assert a == b


def test_default_rng_is_seeded():
    assert random_large_writes(3, 3, 5) == random_large_writes(3, 3, 5)


def test_square_data_rows_is_the_default_draw_for_draw():
    a = random_large_writes(4, 6, 40, np.random.default_rng(5))
    b = random_large_writes(4, 6, 40, np.random.default_rng(5), data_rows=4)
    assert a == b


@pytest.mark.parametrize("n, data_rows", [(5, 3), (5, 4), (5, 9), (3, 2)])
def test_ops_cover_a_non_square_data_block(n, data_rows):
    ops = random_large_writes(
        n, 4, n_ops=400, rng=np.random.default_rng(2), data_rows=data_rows
    )
    cells = {ij for op in ops for ij in op.elements}
    assert cells == {(i, j) for i in range(n) for j in range(data_rows)}
    assert max(op.n_elements for op in ops) == n * data_rows


# ----------------------------------------------------------------------
# user read stream
# ----------------------------------------------------------------------


def test_poisson_stream_within_duration():
    reads = user_read_stream(4, 6, duration_s=2.0, rate_per_s=50, rng=np.random.default_rng(2))
    assert reads  # 100 expected arrivals
    assert all(0 < r.time < 2.0 for r in reads)
    times = [r.time for r in reads]
    assert times == sorted(times)


def test_target_disk_pinning():
    reads = user_read_stream(
        4, 6, duration_s=1.0, rate_per_s=30, target_disk=2, rng=np.random.default_rng(3)
    )
    assert all(r.i == 2 for r in reads)


def test_unpinned_reads_spread_over_disks():
    reads = user_read_stream(4, 6, duration_s=5.0, rate_per_s=60, rng=np.random.default_rng(4))
    assert {r.i for r in reads} == {0, 1, 2, 3}


def test_rate_must_be_positive():
    with pytest.raises(ValueError):
        user_read_stream(4, 4, 1.0, 0)


def test_arrival_rate_roughly_matches():
    reads = user_read_stream(4, 4, duration_s=50.0, rate_per_s=10, rng=np.random.default_rng(5))
    assert len(reads) == pytest.approx(500, rel=0.2)


def test_user_read_is_frozen():
    r = UserRead(1.0, 0, 1, 2)
    with pytest.raises(AttributeError):
        r.time = 2.0


def test_target_disk_out_of_range_is_rejected():
    """Regression: out-of-range targets used to generate unreadable reads."""
    for bad in (-1, 4, 99):
        with pytest.raises(ValueError, match=r"target_disk must be in \[0, 4\)"):
            user_read_stream(4, 4, 1.0, 10.0, target_disk=bad)
    # boundary values stay legal
    assert all(
        r.i == 3 for r in user_read_stream(4, 4, 1.0, 10.0, target_disk=3)
    )
