"""Per-chunk sampling statistics: the (N1_j, n_j) state of Algorithm 1.

The state update on lines 11-12 of Algorithm 1 is

    N1[j*] += len(d0) - len(d1)
    n[j*]  += 1

Both updates are additive, which is what makes the batched variant of §III-F
correct: updates from a batch of frames commute, so they can be applied in
any order (or summed and applied at once). :meth:`ChunkStatistics.apply_batch`
applies a batch pick by pick in plain Python, O(picks) with no array set-up
(a step of Algorithm 1 holds one pick, a batch a few), and checks only the
touched chunk for over-sampling; tests assert it equals sequential
:meth:`~ChunkStatistics.record` calls.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError


class ChunkStatistics:
    """The per-chunk (N1, n) counters of Algorithm 1 over M chunks.

    Frames left per chunk are the samplers' own concern (each keeps its
    drawn counts); here ``sizes`` only bounds ``n`` for the over-sampling
    check.
    """

    def __init__(self, chunk_sizes: "list[int] | np.ndarray"):
        sizes = np.asarray(chunk_sizes, dtype=np.int64)
        if sizes.ndim != 1 or sizes.size == 0:
            raise ConfigError("chunk_sizes must be a non-empty 1-D sequence")
        if np.any(sizes < 0):
            raise ConfigError("chunk sizes must be non-negative")
        self.sizes = sizes
        self.num_chunks = int(sizes.size)
        self.n1 = np.zeros(self.num_chunks, dtype=float)
        self.n = np.zeros(self.num_chunks, dtype=np.int64)

    # -- queries ---------------------------------------------------------

    def point_estimates(self) -> np.ndarray:
        """R̂_j = N1_j / n_j per chunk (0 where n_j = 0)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            est = np.where(self.n > 0, self.n1 / np.maximum(self.n, 1), 0.0)
        return est

    # -- updates ---------------------------------------------------------

    def record(self, chunk: int, d0: int, d1: int) -> None:
        """Apply the Algorithm 1 lines 11-12 update for one processed frame."""
        self._check_chunk(chunk)
        if d0 < 0 or d1 < 0:
            raise ConfigError("d0/d1 counts must be non-negative")
        taken = self.n[chunk] + 1
        if taken > self.sizes[chunk]:
            raise ConfigError(f"chunk {chunk} is exhausted; cannot record a sample")
        self.n1[chunk] += d0 - d1
        self.n[chunk] = taken

    def apply_batch(self, chunks, d0s, d1s) -> None:
        """Apply many updates at once (batched sampling, §III-F).

        All updates are additive, hence commutative; this is equivalent to
        calling :meth:`record` once per element (lists or 1-D arrays).
        """
        if not len(chunks) == len(d0s) == len(d1s):
            raise ConfigError("batch arrays must share a shape")
        for chunk, d0, d1 in zip(chunks, d0s, d1s, strict=False):  # lengths checked
            self.record(chunk, d0, d1)

    def apply_credit_batch(self, chunks, d0s, origin_lists) -> None:
        """Origin-credited update (the footnote-1 / tech-report variant).

        Each processed frame increments ``n`` and adds its ``d0`` to the
        *sampled* chunk's N1, but every d1 decrement lands on the chunk
        where the matched object was first discovered. When origins always
        point at the chunk of first discovery, every per-chunk N1 stays
        non-negative (the +1 always precedes its -1 on the same counter).
        With every origin equal to the sampled chunk this is
        :meth:`apply_batch`.
        """
        if not len(chunks) == len(d0s) == len(origin_lists):
            raise ConfigError("credit batch arrays must align")
        n1 = self.n1
        for chunk, d0, origins in zip(chunks, d0s, origin_lists, strict=False):
            self.record(chunk, d0, 0)
            for origin in origins:
                self._check_chunk(origin)
                n1[origin] -= 1.0

    def _check_chunk(self, chunk: int) -> None:
        if not 0 <= chunk < self.num_chunks:
            raise ConfigError(
                f"chunk index {chunk} out of range [0, {self.num_chunks})"
            )
