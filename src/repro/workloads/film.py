"""Deterministic synthetic element content (the paper's film file).

The authors "encoded a film file and stored 17 GB data on each data
disk" — the content itself only matters for the post-reconstruction
correctness check ("we also compared the original data on the virtual
failed disk and the recovered data").  We substitute a deterministic
pseudo-random payload: every data element's bytes are a pure function
of ``(stripe, data disk, row)``, so any recovered element can be
checked against regeneration without storing 17 GB.

Payloads are deliberately small (default 64 bytes per element): the
*timing* of a 4 MB element is the simulator's business; the *value*
only needs enough entropy to make silent corruption vanishingly
unlikely.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "FilmSource",
    "DEFAULT_PAYLOAD_BYTES",
    "build_film_block",
    "register_shared_film",
    "unregister_shared_film",
    "attach_shared_film",
]

DEFAULT_PAYLOAD_BYTES = 64


def _element_payload(seed: int, payload_bytes: int, stripe: int, i: int, j: int) -> np.ndarray:
    """The payload of element ``(stripe, i, j)``: the film's definition.

    Spinning up a fresh :class:`numpy.random.Generator` costs tens of
    microseconds, so each process generates an element once, into its
    film block (see :meth:`FilmSource.block`).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, stripe, i, j]))
    return rng.integers(0, 256, payload_bytes, dtype=np.uint8)


#: materialised film blocks keyed ``(seed, payload_bytes)`` — one
#: ``(stripes, i, j, payload)`` uint8 array per film, which serves every
#: payload lookup.  :meth:`FilmSource.block` grows it to the largest
#: request; :class:`repro.parallel.WorkerPool` may register one backed
#: by a ``multiprocessing.shared_memory`` buffer exported to its
#: workers, so content generation happens once per machine instead of
#: once per process.
_shared_films: dict[tuple[int, int], np.ndarray] = {}
#: worker-side SharedMemory handles, kept alive for the process lifetime
_shared_handles: list = []


def build_film_block(
    seed: int,
    payload_bytes: int,
    n_stripes: int,
    n_i: int,
    n_j: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Materialise a whole film into one ``(stripes, i, j, payload)`` array.

    Every cell is byte-identical to what :meth:`FilmSource.element`
    returns — this is the content that gets computed once and shared,
    not a different film.
    """
    if out is None:
        out = np.empty((n_stripes, n_i, n_j, payload_bytes), dtype=np.uint8)
    return _fill(out, seed, (0, 0, 0))


def _fill(out: np.ndarray, seed: int, have: tuple[int, int, int]) -> np.ndarray:
    """Generate every cell of ``out`` outside its ``have`` corner."""
    for stripe, i, j in np.ndindex(*out.shape[:3]):
        if stripe >= have[0] or i >= have[1] or j >= have[2]:
            out[stripe, i, j] = _element_payload(seed, out.shape[3], stripe, i, j)
    return out


def register_shared_film(seed: int, payload_bytes: int, block: np.ndarray) -> None:
    """Serve ``(seed, payload_bytes)`` lookups from a pre-built block.

    A lookup past the block grows a copy of it with the same generator
    (:meth:`FilmSource.block`), so a block sized for one campaign never
    changes the content of a larger one.
    """
    block.setflags(write=False)
    _shared_films[(seed, payload_bytes)] = block


def unregister_shared_film(seed: int, payload_bytes: int) -> None:
    """Drop a registered block (before its backing memory is released)."""
    _shared_films.pop((seed, payload_bytes), None)


def attach_shared_film(
    seed: int, payload_bytes: int, shm_name: str, shape: tuple
) -> None:
    """Worker-side: map an existing shared-memory film block read-only.

    Runs in the pool initializer — the handle is kept alive for the
    process lifetime, so the mapping outlives this call.
    """
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=shm_name)
    _shared_handles.append(shm)
    block = np.ndarray(shape, dtype=np.uint8, buffer=shm.buf)
    register_shared_film(seed, payload_bytes, block)


class FilmSource:
    """Deterministic content generator for data elements.

    Parameters
    ----------
    payload_bytes:
        Bytes of verifiable content per element.
    seed:
        Base seed; two sources with equal seeds generate identical
        "films".
    """

    def __init__(self, payload_bytes: int = DEFAULT_PAYLOAD_BYTES, seed: int = 2012) -> None:
        if payload_bytes < 1:
            raise ValueError(f"payload must be >= 1 byte, got {payload_bytes}")
        self.payload_bytes = payload_bytes
        self.seed = seed

    def element(self, stripe: int, i: int, j: int) -> np.ndarray:
        """The payload of data element ``a[i, j]`` of ``stripe``.

        A read-only view into the film's block (see :meth:`block`);
        copy before mutating (ndarray assignment into a content store
        copies).
        """
        return self.block(stripe + 1, i + 1, j + 1)[stripe, i, j]

    def block(self, n_stripes: int, n_i: int, n_j: int) -> np.ndarray:
        """Payloads of the first ``n_stripes x n_i x n_j`` data elements.

        A read-only ``(stripes, i, j, payload)`` view whose cell
        ``[s, i, j]`` holds the payload of element ``(s, i, j)``.  It is
        a slice of the film's registered block, grown to cover the
        request when it reaches past it: the held bytes are kept and
        only the new cells generated, so a process keeps one block per
        ``(seed, payload)``, sized to its largest request.
        """
        key = (self.seed, self.payload_bytes)
        held = _shared_films.get(key)
        want = (n_stripes, n_i, n_j)
        if held is None or any(w > h for w, h in zip(want, held.shape)):
            have = held.shape[:3] if held is not None else (0, 0, 0)
            shape = tuple(max(w, h) for w, h in zip(want, have))
            grown = np.empty(shape + (self.payload_bytes,), dtype=np.uint8)
            if held is not None:
                grown[: have[0], : have[1], : have[2]] = held
            held = _fill(grown, self.seed, have)
            register_shared_film(self.seed, self.payload_bytes, held)
        return held[:n_stripes, :n_i, :n_j]

    def fresh(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """New payloads for the ``count`` elements of a user write.

        One ``(count, payload)`` draw.  A uint8 draw consumes whole
        32-bit words, so when the payload is a multiple of 4 bytes its
        rows equal ``count`` one-payload draws.
        """
        return rng.integers(0, 256, (count, self.payload_bytes), dtype=np.uint8)
