"""Point-cloud data model, frame concatenation, cropping, and augmentations.

A cloud is one read-only (N, 5) array of (x, y, z, intensity, t) rows,
stored column by column, and every transform is an array expression over
it. All transforms are pure: they return new clouds and new boxes, never
mutate their inputs, and preserve point order. Multi-frame concatenation
sets the t column so downstream consumers can tell the frames apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .geometry import Box3D, wrap_angle
from .schema import FINITE, POSITIVE, Range, Section, check, setting

DEFAULT_DELTA = 0.1
SCALE_RANGE = (0.95, 1.05)
ROTATION_RANGE = (-math.pi / 4.0, math.pi / 4.0)


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Ordered points of one frame (or one concatenated pair).

    ``points`` is a read-only (N, 5) float64 array of (x, y, z, intensity, t);
    t is the time offset, 0 for the current frame. It is stored column-major,
    so each channel ``points[:, j]`` is one contiguous array. The constructor
    accepts any (N, 4) or (N, 5) array-like, of any layout (4 columns imply
    t = 0), and always copies it, so a cloud never shares memory with a
    caller's array.

    Raises:
        ValueError: on another shape, or on the first row (``record <i>``)
            with a non-finite value, a negative intensity or a negative t.
    """

    points: np.ndarray = field(default_factory=lambda: np.zeros((0, 5)))
    frame_id: str = ""
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        given = np.asarray(self.points)
        if given.ndim != 2 or given.shape[1] not in (4, 5):
            raise ValueError(f"expected an (N, 4) or (N, 5) array, got shape {given.shape}")
        points = np.zeros((5, len(given))).T
        points[:, : given.shape[1]] = given  # the one copy, cast to float64 as it is stored
        # The sum is finite exactly when no value is NaN or inf and the sum
        # does not overflow, which a float64 sum of float32 values cannot.
        # Only a cloud that fails this test is scanned row by row.
        with np.errstate(over="ignore", invalid="ignore"):
            total = points.sum()
        if not (math.isfinite(total) and points[:, 3:].min(initial=0.0) >= 0.0):
            finite = np.isfinite(points).all(axis=1)
            bad = ~finite | (points[:, 3] < 0.0) | (points[:, 4] < 0.0)
            if bad.any():
                index = int(np.argmax(bad))
                row = points[index]
                if not finite[index]:
                    raise ValueError(f"record {index}: non-finite value")
                name, value = ("intensity", row[3]) if row[3] < 0.0 else ("t", row[4])
                raise ValueError(
                    f"record {index}: {name} must be non-negative, got {float(value)!r}")
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class RangeSpec(Section):
    """Closed axis-aligned crop bounds, finite, min < max on every axis."""

    x_min: float = setting(FINITE)
    x_max: float = setting(FINITE)
    y_min: float = setting(FINITE)
    y_max: float = setting(FINITE)
    z_min: float = setting(FINITE)
    z_max: float = setting(FINITE)
    ORDER = (("x_min", "x_max", True), ("y_min", "y_max", True), ("z_min", "z_max", True))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Mask of the rows of an (N, >= 3) array whose (x, y, z) lie inside
        the closed bounds; range cropping and voxelization both use it."""
        x, y, z = points[:, 0], points[:, 1], points[:, 2]
        return (
            (self.x_min <= x) & (x <= self.x_max)
            & (self.y_min <= y) & (y <= self.y_max)
            & (self.z_min <= z) & (z <= self.z_max)
        )


DEFAULT_RANGE = RangeSpec(-75.2, 75.2, -75.2, 75.2, -2.0, 4.0)


@dataclass(frozen=True)
class PointcloudConfig(Section):
    """The crop range, and the time offset of a previous frame."""

    range: RangeSpec = DEFAULT_RANGE
    # float32's normal range: the time channel is written as float32, where a
    # larger delta overflows to inf and a smaller one loses precision or reads 0.
    delta: float = setting(Range(float(np.finfo(np.float32).tiny),
                                 float(np.finfo(np.float32).max)), default=DEFAULT_DELTA)


class Axis(Enum):
    X = "X"
    Y = "Y"


def concat_frames(
    current: PointCloud, previous: PointCloud, delta: float = DEFAULT_DELTA
) -> PointCloud:
    """Concatenate the current frame with the previous one.

    Current points get t = 0, previous points t = delta, preserving order
    within each source. The previous frame must already be expressed in the
    current frame's coordinate system; ego-motion compensation is the
    caller's responsibility.

    Raises:
        ValueError: if delta is not a positive finite number.
    """
    check("delta", delta, POSITIVE)
    points = np.concatenate([current.points, previous.points])
    points[: len(current), 4] = 0.0
    points[len(current) :, 4] = delta
    return PointCloud(points, current.frame_id, current.timestamp)


def crop_range(cloud: PointCloud, range_spec: RangeSpec = DEFAULT_RANGE) -> PointCloud:
    """Keep exactly the points inside the closed bounds, order preserved."""
    kept = cloud.points[range_spec.contains(cloud.points)]
    return PointCloud(kept, cloud.frame_id, cloud.timestamp)


def flip(
    cloud: PointCloud, boxes: Sequence[Box3D], axis: Axis
) -> Tuple[PointCloud, List[Box3D]]:
    """Mirror points and boxes across the x-axis (Axis.X) or y-axis (Axis.Y).

    Axis.X negates y and the heading; Axis.Y negates x and maps the heading
    to pi - heading. Dimensions, scores, and labels are unchanged.
    """
    if axis is Axis.X:
        mirror = [1.0, -1.0, 1.0, 1.0, 1.0]
        flipped = [
            replace(b, cy=-b.cy, heading=wrap_angle(-b.heading)) for b in boxes
        ]
    elif axis is Axis.Y:
        mirror = [-1.0, 1.0, 1.0, 1.0, 1.0]
        flipped = [
            replace(b, cx=-b.cx, heading=wrap_angle(math.pi - b.heading)) for b in boxes
        ]
    else:
        raise ValueError(f"axis must be Axis.X or Axis.Y, got {axis!r}")
    return PointCloud(cloud.points * mirror, cloud.frame_id, cloud.timestamp), flipped


def global_scale(
    cloud: PointCloud, boxes: Sequence[Box3D], factor: float
) -> Tuple[PointCloud, List[Box3D]]:
    """Scale point coordinates, box centers, and box dimensions by factor.

    Headings, time offsets, intensities, scores, and labels are unchanged.

    Raises:
        ValueError: if factor is not a positive finite number.
    """
    check("factor", factor, POSITIVE)
    points = cloud.points * [factor, factor, factor, 1.0, 1.0]
    scaled = [
        replace(
            b,
            cx=b.cx * factor,
            cy=b.cy * factor,
            cz=b.cz * factor,
            length=b.length * factor,
            width=b.width * factor,
            height=b.height * factor,
        )
        for b in boxes
    ]
    return PointCloud(points, cloud.frame_id, cloud.timestamp), scaled


def global_rotate(
    cloud: PointCloud, boxes: Sequence[Box3D], angle: float
) -> Tuple[PointCloud, List[Box3D]]:
    """Rotate points and boxes about +z by angle; z coordinates are unchanged."""
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    c = math.cos(angle)
    s = math.sin(angle)
    x, y = cloud.points[:, 0], cloud.points[:, 1]
    points = np.column_stack([c * x - s * y, s * x + c * y, cloud.points[:, 2:]])
    rotated = [
        replace(
            b,
            cx=c * b.cx - s * b.cy,
            cy=s * b.cx + c * b.cy,
            heading=wrap_angle(b.heading + angle),
        )
        for b in boxes
    ]
    return PointCloud(points, cloud.frame_id, cloud.timestamp), rotated


class AugmentationSample(NamedTuple):
    flip_x: bool
    flip_y: bool
    scale: float
    angle: float


def sample_augmentation(seed: int) -> AugmentationSample:
    """Draw one augmentation parameter set, deterministic in the seed.

    Each flip fires with probability 0.5, scale is uniform in [0.95, 1.05],
    angle uniform in [-pi/4, pi/4].
    """
    rng = np.random.default_rng(seed)
    flip_x = bool(rng.random() < 0.5)
    flip_y = bool(rng.random() < 0.5)
    scale = float(rng.uniform(SCALE_RANGE[0], SCALE_RANGE[1]))
    angle = float(rng.uniform(ROTATION_RANGE[0], ROTATION_RANGE[1]))
    return AugmentationSample(flip_x, flip_y, scale, angle)
