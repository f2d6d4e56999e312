"""Bounding-box geometry: the algebra the detector and tracker live on."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DatasetError


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """An axis-aligned box in pixel coordinates, ``(x1, y1)`` top-left.

    Boxes are half-open in spirit but compared with real-valued IoU, so the
    only structural requirement is ``x2 >= x1`` and ``y2 >= y1``. Slotted:
    the detector and tracker construct these by the thousand.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise DatasetError(
                f"degenerate box ({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2], dtype=float)

    def iou(self, other: "BoundingBox") -> float:
        """Intersection-over-union with ``other``; 0 for disjoint boxes."""
        ix1 = max(self.x1, other.x1)
        iy1 = max(self.y1, other.y1)
        ix2 = min(self.x2, other.x2)
        iy2 = min(self.y2, other.y2)
        if ix2 <= ix1 or iy2 <= iy1:
            return 0.0
        inter = (ix2 - ix1) * (iy2 - iy1)
        union = self.area + other.area - inter
        if union <= 0:
            return 0.0
        return inter / union

    def shifted(self, dx: float, dy: float) -> "BoundingBox":
        return BoundingBox(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

    def scaled(self, factor: float) -> "BoundingBox":
        """Scale about the box centre (object growing as it approaches)."""
        if factor <= 0:
            raise DatasetError("scale factor must be positive")
        cx, cy = self.center
        hw = self.width * factor / 2.0
        hh = self.height * factor / 2.0
        return BoundingBox(cx - hw, cy - hh, cx + hw, cy + hh)

    def clipped(self, width: float, height: float) -> "BoundingBox":
        """Clip to the image plane ``[0, width] x [0, height]``."""
        # Scalar min/max instead of np.clip: this sits on the detector's
        # per-detection hot path, where numpy's scalar dispatch dominates.
        x1 = min(max(float(self.x1), 0.0), float(width))
        y1 = min(max(float(self.y1), 0.0), float(height))
        x2 = min(max(float(self.x2), x1), float(width))
        y2 = min(max(float(self.y2), y1), float(height))
        return BoundingBox(x1, y1, x2, y2)

    def jittered(self, rng: np.random.Generator, scale: float) -> "BoundingBox":
        """Perturb corners by gaussian noise proportional to box size.

        Models detector localisation error; ``scale`` ≈ relative corner
        displacement (0.05 = 5% of the box dimensions).
        """
        dx = rng.normal(0.0, scale * max(self.width, 1.0), size=2)
        dy = rng.normal(0.0, scale * max(self.height, 1.0), size=2)
        x1, x2 = sorted((self.x1 + dx[0], self.x2 + dx[1]))
        y1, y2 = sorted((self.y1 + dy[0], self.y2 + dy[1]))
        return BoundingBox(x1, y1, x2, y2)


def interpolate(a: BoundingBox, b: BoundingBox, t: float) -> BoundingBox:
    """Linear interpolation between two boxes at ``t`` in [0, 1]."""
    t = min(max(float(t), 0.0), 1.0)
    return BoundingBox(
        a.x1 + (b.x1 - a.x1) * t,
        a.y1 + (b.y1 - a.y1) * t,
        a.x2 + (b.x2 - a.x2) * t,
        a.y2 + (b.y2 - a.y2) * t,
    )


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two (N, 4) and (M, 4) arrays of xyxy boxes."""
    boxes_a = np.asarray(boxes_a, dtype=float).reshape(-1, 4)
    boxes_b = np.asarray(boxes_b, dtype=float).reshape(-1, 4)
    # Intersection corners (x1, y1) and (x2, y2), then its clipped sides.
    low = np.maximum(boxes_a[:, None, :2], boxes_b[None, :, :2])
    high = np.minimum(boxes_a[:, None, 2:], boxes_b[None, :, 2:])
    sides = np.maximum(high - low, 0.0)
    inter = sides[..., 0] * sides[..., 1]
    size_a = boxes_a[:, 2:] - boxes_a[:, :2]
    size_b = boxes_b[:, 2:] - boxes_b[:, :2]
    union = (
        (size_a[:, 0] * size_a[:, 1])[:, None]
        + (size_b[:, 0] * size_b[:, 1])[None, :]
        - inter
    )
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)
