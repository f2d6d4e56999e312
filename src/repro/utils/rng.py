"""Deterministic random-number-generator management.

Every stochastic component in the library receives an explicit
:class:`numpy.random.Generator`. Nothing reads global random state, which
keeps experiments reproducible and lets independent components (the detector,
the sampler, the dataset builder) consume independent streams derived from a
single user-facing seed.

Two idioms are supported:

* :func:`spawn_rng` — derive a child generator from a seed and a tuple of
  string/int keys. The same ``(seed, keys)`` pair always yields the same
  stream, and distinct key tuples yield statistically independent streams.
  Building one costs about 25 µs (the ``SeedSequence``-keyed Philox), so
  use it for a stream that lives for a run (a searcher's policy or order
  stream, a discriminator's track-extension stream), never per item on a
  hot path: a search run draws every chunk's frames from its one order
  stream rather than a stream per chunk.
* :class:`RngFactory` — an object wrapper over :func:`spawn_rng` that
  remembers the base seed, convenient to thread through long call chains.

Per-frame randomness that must be *stable* per key — the simulated
detector detecting frame 1234 twice returns byte-identical detections —
re-keys one long-lived :class:`TransientRng` instead.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Union

import numpy as np

Seedish = Union[int, None, np.random.Generator, "RngFactory"]


def _digest_keys(seed: int, keys: Iterable[object]) -> int:
    """Hash ``seed`` plus arbitrary keys into a 128-bit integer seed."""
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(str(int(seed)).encode())
    for key in keys:
        hasher.update(b"\x1f")
        hasher.update(repr(key).encode())
    return int.from_bytes(hasher.digest(), "little")


def digest_keys(seed: int, *keys: object) -> int:
    """Public alias of the key-digest used by every stream in the library.

    Returns the 128-bit integer that seeds the stream for ``(seed, keys)``;
    useful for computing a *base* digest once and deriving many related
    streams cheaply via :meth:`TransientRng.seeded_offset`.
    """
    return _digest_keys(seed, keys)


def spawn_rng(seed: int, *keys: object) -> np.random.Generator:
    """Return a generator deterministically derived from ``seed`` and ``keys``.

    >>> a = spawn_rng(7, "detector", 12)
    >>> b = spawn_rng(7, "detector", 12)
    >>> float(a.random()) == float(b.random())
    True
    """
    return np.random.Generator(np.random.Philox(_digest_keys(seed, keys)))


class TransientRng:
    """A reusable keyed generator for *frame-local* randomness.

    :func:`spawn_rng` constructs a fresh ``Generator`` + ``Philox`` pair
    per call (~20µs), which dominates per-frame hot paths like the
    simulated detector. This class keys a single long-lived Philox
    directly from the same blake2b digest, skipping object construction:
    ``seeded(seed, *keys)`` costs a few µs and is exactly as reproducible
    (same ``(seed, keys)`` → same stream, distinct keys → independent
    streams). Note the stream is NOT the one :func:`spawn_rng` yields for
    the same keys — spawn_rng routes the digest through ``SeedSequence``,
    this class keys Philox directly — so switching a component between
    the two changes its outputs for a given seed.

    The returned :class:`numpy.random.Generator` is SHARED — the next
    ``seeded()`` call resets its stream. Callers must finish drawing
    before re-seeding and must never hand the generator to a long-lived
    consumer; use :func:`spawn_rng` for anything that outlives the call
    site.
    """

    _KEY_MASK = (1 << 64) - 1

    def __init__(self) -> None:
        self._bitgen = np.random.Philox(0)
        self._gen = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state
        # Reused buffers: _rekey runs per frame on hot paths, so the key
        # and counter arrays are written in place instead of reallocated.
        self._key_buf = np.empty(2, dtype=np.uint64)
        self._counter_buf = np.zeros(4, dtype=np.uint64)

    def seeded(self, seed: int, *keys: object) -> np.random.Generator:
        """Re-key the shared generator for ``(seed, keys)`` and return it."""
        return self._rekey(_digest_keys(seed, keys))

    def seeded_offset(self, digest: int, offset: int) -> np.random.Generator:
        """Re-key from a precomputed base ``digest`` plus an integer offset.

        The Philox key becomes ``(digest_lo + offset, digest_hi)``: Philox
        is a PRF over its key, so distinct offsets yield independent
        streams, and the blake2b digest — the expensive part of
        :meth:`seeded` — is paid once per base instead of once per stream.
        This is how the detector keys its per-frame streams: one digest per
        ``(seed, video)``, one offset per frame. Equivalent in guarantees
        to ``seeded(seed, *base_keys, offset)`` but a different stream for
        the same logical keys, so switching a component between the two
        idioms changes its outputs for a given seed.
        """
        return self._rekey(digest + offset)

    def _rekey(self, digest: int) -> np.random.Generator:
        key = self._key_buf
        key[0] = digest & self._KEY_MASK
        key[1] = (digest >> 64) & self._KEY_MASK
        state = self._state
        state["state"]["key"] = key
        state["state"]["counter"] = self._counter_buf
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        state["uinteger"] = 0
        self._bitgen.state = state
        return self._gen


def as_generator(seed: Seedish) -> np.random.Generator:
    """Coerce ``seed`` (int, None, Generator, or RngFactory) to a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, RngFactory):
        return seed.generator()
    return np.random.default_rng(seed)


class RngFactory:
    """A reproducible factory of independent random streams.

    Parameters
    ----------
    seed:
        Base seed. Two factories with the same seed produce identical
        streams for identical key tuples.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"RngFactory(seed={self.seed})"

    def stream(self, *keys: object) -> np.random.Generator:
        """Return the generator for ``keys`` (stable across calls)."""
        return spawn_rng(self.seed, *keys)

    def generator(self) -> np.random.Generator:
        """Return the factory's default (un-keyed) generator."""
        return self.stream("default")

    def child(self, *keys: object) -> "RngFactory":
        """Return a new factory whose streams are independent of this one."""
        return RngFactory(_digest_keys(self.seed, keys) % (2**63))

    def integers(self, low: int, high: int, *keys: object) -> int:
        """Draw one integer in ``[low, high)`` from the keyed stream."""
        return int(self.stream(*keys).integers(low, high))
