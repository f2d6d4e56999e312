"""Tests for bounding-box geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DatasetError
from repro.video.geometry import BoundingBox, interpolate, iou_matrix
from repro.utils.rng import spawn_rng

coords = st.floats(min_value=0, max_value=1000)


@st.composite
def boxes(draw):
    x1 = draw(coords)
    y1 = draw(coords)
    w = draw(st.floats(min_value=0.1, max_value=500))
    h = draw(st.floats(min_value=0.1, max_value=500))
    return BoundingBox(x1, y1, x1 + w, y1 + h)


class TestBoundingBox:
    def test_basic_properties(self):
        box = BoundingBox(10, 20, 30, 60)
        assert box.width == 20
        assert box.height == 40
        assert box.area == 800
        assert box.center == (20, 40)

    def test_rejects_inverted(self):
        with pytest.raises(DatasetError):
            BoundingBox(10, 0, 5, 10)
        with pytest.raises(DatasetError):
            BoundingBox(0, 10, 10, 5)

    def test_self_iou_is_one(self):
        box = BoundingBox(0, 0, 10, 10)
        assert box.iou(box) == pytest.approx(1.0)

    def test_disjoint_iou_zero(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(20, 20, 30, 30)
        assert a.iou(b) == 0.0

    def test_known_overlap(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(5, 0, 15, 10)
        # intersection 50, union 150.
        assert a.iou(b) == pytest.approx(1 / 3)

    @given(boxes(), boxes())
    @settings(max_examples=60)
    def test_iou_symmetric_and_bounded(self, a, b):
        assert a.iou(b) == pytest.approx(b.iou(a))
        assert 0.0 <= a.iou(b) <= 1.0 + 1e-9

    def test_shifted(self):
        box = BoundingBox(0, 0, 10, 10).shifted(5, -3)
        assert (box.x1, box.y1) == (5, -3)

    def test_scaled_area(self):
        box = BoundingBox(0, 0, 10, 10).scaled(2.0)
        assert box.area == pytest.approx(400)
        assert box.center == (5, 5)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(DatasetError):
            BoundingBox(0, 0, 1, 1).scaled(0)

    def test_clipped(self):
        box = BoundingBox(-5, -5, 15, 15).clipped(10, 10)
        assert (box.x1, box.y1, box.x2, box.y2) == (0, 0, 10, 10)

    def test_jittered_valid(self):
        rng = spawn_rng(0, "jit")
        box = BoundingBox(100, 100, 200, 200)
        for _ in range(50):
            jittered = box.jittered(rng, 0.1)
            assert jittered.x2 >= jittered.x1
            assert jittered.y2 >= jittered.y1

    def test_jittered_close_for_small_scale(self):
        rng = spawn_rng(1, "jit")
        box = BoundingBox(100, 100, 200, 200)
        jittered = box.jittered(rng, 0.01)
        assert box.iou(jittered) > 0.9


class TestInterpolate:
    def test_endpoints(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(100, 100, 120, 130)
        assert interpolate(a, b, 0.0) == a
        assert interpolate(a, b, 1.0) == b

    def test_midpoint(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(10, 10, 20, 20)
        mid = interpolate(a, b, 0.5)
        assert (mid.x1, mid.y1) == (5, 5)

    def test_clamps_t(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(10, 10, 20, 20)
        assert interpolate(a, b, -1.0) == a
        assert interpolate(a, b, 2.0) == b


class TestIouMatrix:
    @given(st.lists(boxes(), min_size=1, max_size=6),
           st.lists(boxes(), min_size=1, max_size=6))
    @settings(max_examples=30)
    def test_matches_scalar_iou(self, list_a, list_b):
        """Same arithmetic in the same order, so equal to the last bit."""
        arr_a = np.stack([b.as_array() for b in list_a])
        arr_b = np.stack([b.as_array() for b in list_b])
        matrix = iou_matrix(arr_a, arr_b)
        for i, a in enumerate(list_a):
            for j, b in enumerate(list_b):
                assert matrix[i, j] == a.iou(b)

    def test_shape(self):
        a = np.zeros((3, 4))
        b = np.zeros((5, 4))
        a[:, 2:] = 1
        b[:, 2:] = 1
        assert iou_matrix(a, b).shape == (3, 5)
