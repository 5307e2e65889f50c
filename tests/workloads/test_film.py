"""Synthetic film content: determinism and independence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.film import FilmSource


def test_deterministic_per_coordinate():
    a = FilmSource(seed=1)
    b = FilmSource(seed=1)
    assert np.array_equal(a.element(3, 1, 2), b.element(3, 1, 2))


def test_different_coordinates_differ():
    src = FilmSource(payload_bytes=32, seed=1)
    base = src.element(0, 0, 0)
    assert not np.array_equal(base, src.element(1, 0, 0))
    assert not np.array_equal(base, src.element(0, 1, 0))
    assert not np.array_equal(base, src.element(0, 0, 1))


def test_different_seeds_differ():
    assert not np.array_equal(
        FilmSource(seed=1).element(0, 0, 0), FilmSource(seed=2).element(0, 0, 0)
    )


def test_payload_size_respected():
    src = FilmSource(payload_bytes=7)
    assert src.element(0, 0, 0).shape == (7,)
    assert src.element(0, 0, 0).dtype == np.uint8


def test_invalid_payload_rejected():
    with pytest.raises(ValueError):
        FilmSource(payload_bytes=0)


def test_fresh_uses_caller_rng():
    src = FilmSource(payload_bytes=16)
    rng1 = np.random.default_rng(9)
    rng2 = np.random.default_rng(9)
    a = src.fresh(rng1, 5)
    assert a.shape == (5, 16) and a.dtype == np.uint8
    assert np.array_equal(a, src.fresh(rng2, 5))


@pytest.mark.parametrize("payload", [4, 8, 16, 64])
def test_fresh_rows_equal_one_payload_draws(payload):
    # one (count, payload) draw is the same byte stream as count
    # one-payload draws whenever the payload is whole 32-bit words
    src = FilmSource(payload_bytes=payload)
    rng1 = np.random.default_rng(3)
    rng2 = np.random.default_rng(3)
    batch = src.fresh(rng1, 6)
    singles = [rng2.integers(0, 256, payload, dtype=np.uint8) for _ in range(6)]
    assert np.array_equal(batch, np.stack(singles))
    assert rng1.integers(0, 2**32) == rng2.integers(0, 2**32)
