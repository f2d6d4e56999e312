"""Chunking policies: how a repository is partitioned for ExSample.

The paper uses two policies (§V-A): fixed 20-minute chunks for long videos
(dashcam, amsterdam, archie, night-street) and one chunk per clip for BDD
(clips are under a minute, so a chunk cannot span clips). §IV-C analyses how
the chunk count trades off exploitable skew against the overhead of learning
per-chunk estimates; :class:`AutoChunker` packages that analysis as the
future-work "automating chunking" heuristic.

Chunks never span video boundaries: a chunk is a contiguous frame interval
inside one video, which is also what makes within-chunk temporal locality
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ChunkingError
from repro.video.video import VideoRepository


@dataclass(frozen=True)
class Chunk:
    """A contiguous frame range ``[start, end)`` within one video."""

    video: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ChunkingError(f"empty chunk {self}")

    @property
    def size(self) -> int:
        return self.end - self.start


class ChunkMap:
    """The resolved partition: chunk sizes plus frame-address translation."""

    def __init__(self, repository: VideoRepository, chunks: List[Chunk]):
        if not chunks:
            raise ChunkingError("chunk list is empty")
        covered = 0
        for chunk in chunks:
            video = repository.videos[chunk.video]
            if chunk.end > video.num_frames:
                raise ChunkingError(
                    f"chunk {chunk} exceeds video of {video.num_frames} frames"
                )
            covered += chunk.size
        if covered != repository.total_frames:
            raise ChunkingError(
                f"chunks cover {covered} frames, repository has "
                f"{repository.total_frames}; partition must be exact"
            )
        self.repository = repository
        self.chunks = chunks
        self._sizes = np.array([c.size for c in chunks], dtype=np.int64)
        self._videos = np.array([c.video for c in chunks], dtype=np.int64)
        self._starts = np.array([c.start for c in chunks], dtype=np.int64)
        self._global_starts = np.array(
            [repository.global_index(c.video, c.start) for c in chunks],
            dtype=np.int64,
        )

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    def sizes(self) -> np.ndarray:
        return self._sizes

    def _chunk(self, chunk: int, within: int) -> Chunk:
        """The chunk of ``(chunk, within)``; a negative ``chunk`` is an error."""
        chunks = self.chunks
        if not 0 <= chunk < len(chunks):
            raise ChunkingError(f"chunk index {chunk} out of range [0, {len(chunks)})")
        c = chunks[chunk]
        if not 0 <= within < c.end - c.start:
            raise ChunkingError(f"frame {within} outside chunk of size {c.size}")
        return c

    def to_video_frame(self, chunk: int, within: int) -> Tuple[int, int]:
        """Translate (chunk, within-chunk frame) to plain-int (video, frame)."""
        c = self._chunk(chunk, within)
        return c.video, c.start + int(within)

    def to_video_frame_batch(
        self, chunks: np.ndarray, withins: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`to_video_frame` over aligned index arrays.

        Returns ``(videos, frames)`` arrays; a whole recorded trace is
        resolved in a handful of numpy operations (a searcher step, of a
        few picks, is cheaper through per-pick calls).
        """
        chunks = np.asarray(chunks, dtype=np.int64)
        withins = np.asarray(withins, dtype=np.int64)
        if chunks.shape != withins.shape:
            raise ChunkingError("chunk and frame index arrays must align")
        if np.any((chunks < 0) | (chunks >= self._sizes.size)):
            raise ChunkingError("chunk index out of range")
        if np.any((withins < 0) | (withins >= self._sizes[chunks])):
            raise ChunkingError("within-chunk frame index out of range")
        return self._videos[chunks], self._starts[chunks] + withins

    def to_global(self, chunk: int, within: int) -> int:
        """Translate (chunk, within) to the repository-global frame index."""
        self._chunk(chunk, within)
        return int(self._global_starts[chunk]) + int(within)

    def global_bounds(self) -> np.ndarray:
        """Chunk boundaries in global frame coordinates (length M+1).

        Valid because chunks are emitted in global frame order, which every
        chunker in this module guarantees.
        """
        starts = self._global_starts
        if np.any(np.diff(starts) <= 0):
            raise ChunkingError("chunks are not in global frame order")
        return np.concatenate([starts, [starts[-1] + self._sizes[-1]]])

    def chunk_of_global(self, global_frame: int) -> int:
        """Which chunk contains a global frame index."""
        bounds = self.global_bounds()
        if not bounds[0] <= global_frame < bounds[-1]:
            raise ChunkingError(f"global frame {global_frame} outside repository")
        return int(np.searchsorted(bounds, global_frame, side="right") - 1)


class FixedDurationChunker:
    """Split every video into chunks of at most ``minutes`` (paper default 20)."""

    def __init__(self, minutes: float = 20.0):
        if minutes <= 0:
            raise ChunkingError("chunk duration must be positive")
        self.minutes = minutes

    def chunk(self, repository: VideoRepository) -> ChunkMap:
        chunks: List[Chunk] = []
        for video_idx, video in repository.iter_videos():
            per_chunk = max(int(round(self.minutes * 60 * video.fps)), 1)
            start = 0
            while start < video.num_frames:
                end = min(start + per_chunk, video.num_frames)
                chunks.append(Chunk(video=video_idx, start=start, end=end))
                start = end
        return ChunkMap(repository, chunks)


class PerClipChunker:
    """One chunk per video file (the BDD constraint of §V-A)."""

    def chunk(self, repository: VideoRepository) -> ChunkMap:
        chunks = [
            Chunk(video=i, start=0, end=v.num_frames)
            for i, v in repository.iter_videos()
        ]
        return ChunkMap(repository, chunks)


class AutoChunker:
    """Pick a chunk count from the expected sampling budget (§IV-C, §VII).

    §IV-C shows both extremes degrade to random sampling: one chunk cannot
    express skew, and one chunk per frame leaves Thompson sampling nothing
    to learn from. In between, each chunk needs enough samples to estimate
    its rate. We target ``samples_per_chunk`` sampling visits per chunk for
    an anticipated budget of ``expected_budget`` detector invocations:

        M = clip(expected_budget / samples_per_chunk, 2, max_chunks)

    and then split the repository into (approximately) that many equal-
    duration chunks, still respecting video boundaries.
    """

    def __init__(
        self,
        expected_budget: int,
        samples_per_chunk: int = 32,
        max_chunks: int = 1024,
    ):
        if expected_budget <= 0 or samples_per_chunk <= 0:
            raise ChunkingError("budget and samples_per_chunk must be positive")
        self.expected_budget = expected_budget
        self.samples_per_chunk = samples_per_chunk
        self.max_chunks = max_chunks

    def target_chunks(self, repository: VideoRepository) -> int:
        raw = self.expected_budget // self.samples_per_chunk
        return int(np.clip(raw, 2, min(self.max_chunks, repository.total_frames)))

    def chunk(self, repository: VideoRepository) -> ChunkMap:
        target = self.target_chunks(repository)
        frames_per_chunk = max(repository.total_frames // target, 1)
        chunks: List[Chunk] = []
        for video_idx, video in repository.iter_videos():
            start = 0
            while start < video.num_frames:
                end = min(start + frames_per_chunk, video.num_frames)
                # Avoid a trailing sliver smaller than half a chunk.
                if video.num_frames - end < frames_per_chunk // 2:
                    end = video.num_frames
                chunks.append(Chunk(video=video_idx, start=start, end=end))
                start = end
        return ChunkMap(repository, chunks)
