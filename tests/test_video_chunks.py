"""Tests for chunking policies and the chunk map."""

import numpy as np
import pytest

from repro.errors import ChunkingError
from repro.video.chunks import (
    AutoChunker,
    Chunk,
    ChunkMap,
    FixedDurationChunker,
    PerClipChunker,
)
from repro.video.video import Video, VideoRepository


@pytest.fixture
def repo():
    return VideoRepository(
        [
            Video("a", num_frames=1000, fps=10),  # 100 seconds
            Video("b", num_frames=250, fps=10),
        ]
    )


class TestChunk:
    def test_size(self):
        assert Chunk(0, 10, 30).size == 20

    def test_rejects_empty(self):
        with pytest.raises(ChunkingError):
            Chunk(0, 10, 10)


class TestFixedDurationChunker:
    def test_exact_partition(self, repo):
        cmap = FixedDurationChunker(minutes=0.5).chunk(repo)  # 300 frames
        assert cmap.sizes().sum() == repo.total_frames
        # Video a: 300+300+300+100; video b: 250.
        assert cmap.num_chunks == 5
        assert list(cmap.sizes()) == [300, 300, 300, 100, 250]

    def test_never_spans_videos(self, repo):
        cmap = FixedDurationChunker(minutes=10).chunk(repo)
        assert cmap.num_chunks == 2  # one chunk per video (duration > video)

    def test_rejects_bad_duration(self):
        with pytest.raises(ChunkingError):
            FixedDurationChunker(minutes=0)


class TestPerClipChunker:
    def test_one_chunk_per_video(self, repo):
        cmap = PerClipChunker().chunk(repo)
        assert cmap.num_chunks == repo.num_videos
        assert list(cmap.sizes()) == [1000, 250]


class TestChunkMap:
    def test_address_translation(self, repo):
        cmap = FixedDurationChunker(minutes=0.5).chunk(repo)
        video, frame = cmap.to_video_frame(1, 10)
        assert (video, frame) == (0, 310)
        assert cmap.to_global(1, 10) == 310
        # The last chunk lives in video b.
        video, frame = cmap.to_video_frame(4, 0)
        assert (video, frame) == (1, 0)
        assert cmap.to_global(4, 0) == 1000

    def test_global_bounds(self, repo):
        cmap = FixedDurationChunker(minutes=0.5).chunk(repo)
        bounds = cmap.global_bounds()
        assert bounds[0] == 0
        assert bounds[-1] == repo.total_frames
        assert np.all(np.diff(bounds) > 0)

    def test_chunk_of_global_roundtrip(self, repo):
        cmap = FixedDurationChunker(minutes=0.5).chunk(repo)
        for chunk in range(cmap.num_chunks):
            for within in (0, int(cmap.sizes()[chunk]) - 1):
                g = cmap.to_global(chunk, within)
                assert cmap.chunk_of_global(g) == chunk

    def test_within_bounds_checked(self, repo):
        cmap = PerClipChunker().chunk(repo)
        with pytest.raises(ChunkingError):
            cmap.to_video_frame(0, 1000)
        with pytest.raises(ChunkingError):
            cmap.to_global(1, 250)
        with pytest.raises(ChunkingError):
            cmap.chunk_of_global(respository_frame := repo.total_frames)

    @pytest.mark.parametrize("chunk", [-1, -5, 5, 6, np.int64(-1), np.int64(5)])
    def test_chunk_index_checked(self, repo, chunk):
        """A negative chunk does not wrap to the end of the chunk list, and
        one past the last is a typed error, not an IndexError."""
        cmap = FixedDurationChunker(minutes=0.5).chunk(repo)  # 5 chunks
        with pytest.raises(ChunkingError, match="chunk index"):
            cmap.to_video_frame(chunk, 0)
        with pytest.raises(ChunkingError, match="chunk index"):
            cmap.to_global(chunk, 0)

    def test_translation_returns_plain_ints(self, repo):
        cmap = FixedDurationChunker(minutes=0.5).chunk(repo)
        video, frame = cmap.to_video_frame(np.int64(1), np.int64(10))
        assert (type(video), type(frame)) == (int, int)
        assert (video, frame) == (0, 310)
        assert type(cmap.to_global(np.int64(4), np.int64(3))) is int

    def test_partition_must_be_exact(self, repo):
        with pytest.raises(ChunkingError):
            ChunkMap(repo, [Chunk(0, 0, 1000)])  # misses video b

    def test_chunk_must_fit_video(self, repo):
        with pytest.raises(ChunkingError):
            ChunkMap(repo, [Chunk(0, 0, 1001), Chunk(1, 0, 249)])

    def test_empty_chunk_list(self, repo):
        with pytest.raises(ChunkingError):
            ChunkMap(repo, [])


class TestAutoChunker:
    def test_target_scales_with_budget(self, repo):
        small = AutoChunker(expected_budget=64).target_chunks(repo)
        large = AutoChunker(expected_budget=6400).target_chunks(repo)
        assert small < large

    def test_bounds(self, repo):
        chunker = AutoChunker(expected_budget=10**9, max_chunks=128)
        assert chunker.target_chunks(repo) <= 128
        tiny = AutoChunker(expected_budget=1)
        assert tiny.target_chunks(repo) >= 2

    def test_partition_valid(self, repo):
        cmap = AutoChunker(expected_budget=640).chunk(repo)
        assert cmap.sizes().sum() == repo.total_frames
        assert np.all(cmap.sizes() > 0)

    def test_rejects_bad_config(self):
        with pytest.raises(ChunkingError):
            AutoChunker(expected_budget=0)
        with pytest.raises(ChunkingError):
            AutoChunker(expected_budget=10, samples_per_chunk=0)
