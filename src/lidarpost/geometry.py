"""Oriented 3D boxes, the per-frame sets that hold them, and their overlaps.

Boxes live in a right-handed frame: x forward, y left, z up. A box heading is
the yaw of its length axis about +z, zero along +x, and is always stored
wrapped to (-pi, pi]. The box center sits at mid-height, so the vertical
extent is [cz - h/2, cz + h/2]. :func:`bev_iou` and :func:`iou3d` score one
pair of boxes; :func:`iou_matrix` scores two box lists against each other.

Overlaps are computed only for candidate pairs. Two boxes whose circumscribed
circles (center, radius half the footprint diagonal) are disjoint cannot
overlap, so :func:`candidate_columns` finds, with one NumPy test over both
lists, the pairs whose circles can touch, and the scalar IoU runs on those
alone. Every function that takes an ``iou_fn`` relies on this: ``iou_fn``
must return 0 for boxes whose circumscribed circles are disjoint, which
:func:`bev_iou` and :func:`iou3d` do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from operator import attrgetter
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

_TAU = 2.0 * math.pi

# Clipped footprints smaller than this are floating-point slivers, not overlap.
_AREA_EPS = 1e-12

# Upper bound on the cells of one block of the candidate test's temporaries.
_BLOCK_CELLS = 1 << 20


class Label(Enum):
    """Object classes scored by the detection and tracking pipelines."""

    VEHICLE = "VEHICLE"
    PEDESTRIAN = "PEDESTRIAN"
    CYCLIST = "CYCLIST"


def wrap_angle(theta: float) -> float:
    """Wrap an angle in radians to the interval (-pi, pi].

    The floor form below rounds once. For the rare finite theta so large
    that its result leaves (-pi, pi], the exact remainder ``fmod`` is used
    instead, shifted into range by one exact step. So every result lies in
    (-pi, pi], and wrapping a wrapped angle returns it bit for bit.

    Raises:
        ValueError: if theta is NaN or infinite.
    """
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    wrapped = theta - _TAU * math.floor((theta + math.pi) / _TAU)
    if wrapped <= -math.pi:  # floor form yields [-pi, pi); move the closed end
        wrapped += _TAU
    if not -math.pi < wrapped <= math.pi:  # |theta| so large that the product rounds
        wrapped = math.fmod(theta, _TAU)
        if wrapped > math.pi:
            wrapped -= _TAU
        elif wrapped <= -math.pi:
            wrapped += _TAU
    return wrapped


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """:func:`wrap_angle` of each element of a finite float64 array, with
    the same IEEE operations in the same order, so bit for bit equal."""
    wrapped = theta - _TAU * np.floor((theta + math.pi) / _TAU)
    wrapped = np.where(wrapped <= -math.pi, wrapped + _TAU, wrapped)
    off = ~((wrapped > -math.pi) & (wrapped <= math.pi))
    if off.any():
        exact = np.fmod(theta[off], _TAU)
        exact = np.where(exact > math.pi, exact - _TAU, exact)
        wrapped[off] = np.where(exact <= -math.pi, exact + _TAU, exact)
    return wrapped


def heading_error(a: float, b: float) -> float:
    """Smallest absolute difference between two angles, in [0, pi]."""
    return abs(wrap_angle(a - b))


_NUMBER_FIELDS = ("cx", "cy", "cz", "length", "width", "height", "heading", "score")
_ID_FIELDS = ("track_id", "difficulty", "num_points", "source_id")


def _check_number(name: str, value) -> None:
    """Raise ValueError unless value is a number as a box file carries one,
    and reads back: an int or a float, not a bool, that a float can hold."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if isinstance(value, int):  # tested, not converted: a box file writes 1 and 1.0 apart
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"{name} must be within float range") from None


def _is_id(value) -> bool:
    """Whether value is an id as a box file carries one: an int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


class Domain(NamedTuple):
    """The values a field may hold: the words of its error, and a test. A
    number's or an id's test is built from comparisons only, so that it takes
    one value or a column alike and fails NaN; an id's passes None."""

    words: str
    test: Callable

    def check(self, name: str, value) -> None:
        """Raise ValueError unless value lies in the domain."""
        if not self.test(value):
            raise ValueError(f"{name} {self.words}, got {value!r}")


FINITE = Domain("must be finite", lambda v: (v > -math.inf) & (v < math.inf))
_POSITIVE = Domain("must be positive and finite", lambda v: (v > 0.0) & (v < math.inf))
_NON_NEGATIVE = Domain("must be non-negative", lambda v: v is None or v >= 0)

# The domain of each checked Box3D field, in the order Box3D checks them. The
# heading has none: wrapping refuses a non-finite one.
BOX_DOMAINS = {
    "cx": FINITE, "cy": FINITE, "cz": FINITE,
    "length": _POSITIVE, "width": _POSITIVE, "height": _POSITIVE,
    "score": Domain("must lie in [0, 1]", lambda v: (v >= 0.0) & (v <= 1.0)),
    "label": Domain("must be a Label member", lambda v: isinstance(v, Label)),
    "track_id": _NON_NEGATIVE,
    "difficulty": Domain("must be 1 or 2", lambda v: v is None or (v >= 1) & (v <= 2)),
    "num_points": _NON_NEGATIVE,
}


@dataclass
class Box3D:
    """Oriented 3D bounding box with detection metadata.

    ``length`` runs along the heading direction, ``width`` across it in the
    horizontal plane, ``height`` along z. The heading is wrapped to
    (-pi, pi] on construction.
    """

    cx: float
    cy: float
    cz: float
    length: float
    width: float
    height: float
    heading: float
    score: float = 1.0
    label: Label = Label.VEHICLE
    track_id: Optional[int] = None
    difficulty: Optional[int] = None
    num_points: Optional[int] = None
    source_id: Optional[int] = None

    def __post_init__(self) -> None:
        for name in _NUMBER_FIELDS:
            _check_number(name, getattr(self, name))
        for name in _ID_FIELDS:
            value = getattr(self, name)
            if value is not None and not _is_id(value):
                raise ValueError(f"{name} must be an integer or None, got {value!r}")
        for name, domain in BOX_DOMAINS.items():
            domain.check(name, getattr(self, name))
        self.heading = wrap_angle(self.heading)

    def _with(self, **changes) -> "Box3D":
        """A copy with changes, without the checks above, for changes that
        keep a valid box valid only: a source id, a non-negative track id,
        or a score in [0, 1] such as a valid score times a weight in (0, 1].
        The heading is already wrapped, and wrapping it again would return
        it bit for bit. Use dataclasses.replace for anything else."""
        box = unchecked_box(*_field_values(self))
        for name, value in changes.items():
            setattr(box, name, value)
        return box

    @property
    def z_min(self) -> float:
        return self.cz - 0.5 * self.height

    @property
    def z_max(self) -> float:
        return self.cz + 0.5 * self.height

    @property
    def bev_area(self) -> float:
        return self.length * self.width

    @property
    def volume(self) -> float:
        return self.length * self.width * self.height

    def corners_bev(self) -> List[Tuple[float, float]]:
        """Footprint corners in the x-y plane, counterclockwise order."""
        c = math.cos(self.heading)
        s = math.sin(self.heading)
        hl = 0.5 * self.length
        hw = 0.5 * self.width
        return [
            (self.cx + c * hl - s * hw, self.cy + s * hl + c * hw),
            (self.cx - c * hl - s * hw, self.cy - s * hl + c * hw),
            (self.cx - c * hl + s * hw, self.cy - s * hl - c * hw),
            (self.cx + c * hl + s * hw, self.cy + s * hl - c * hw),
        ]

    def contains_bev(self, x: float, y: float) -> bool:
        """Whether the point (x, y) lies inside the footprint (boundary inclusive)."""
        c = math.cos(self.heading)
        s = math.sin(self.heading)
        dx = x - self.cx
        dy = y - self.cy
        local_x = c * dx + s * dy
        local_y = -s * dx + c * dy
        return abs(local_x) <= 0.5 * self.length and abs(local_y) <= 0.5 * self.width


_field_values = attrgetter(*(f.name for f in fields(Box3D)))
_new = object.__new__


def unchecked_box(cx, cy, cz, length, width, height, heading, score, label,
                  track_id, difficulty, num_points, source_id) -> Box3D:
    """A Box3D from values that already pass its checks, heading wrapped,
    without running them: the one unchecked construction path. The values
    are stored one attribute at a time in field order, the order the class
    constructor uses, so the box keeps its values in the layout all boxes
    share rather than in a dict of its own."""
    box = _new(Box3D)
    box.cx = cx
    box.cy = cy
    box.cz = cz
    box.length = length
    box.width = width
    box.height = height
    box.heading = heading
    box.score = score
    box.label = label
    box.track_id = track_id
    box.difficulty = difficulty
    box.num_points = num_points
    box.source_id = source_id
    return box


@dataclass
class DetectionSet:
    """Ordered detections for one frame, tagged with the producing detector.

    Raises:
        ValueError: if the frame id is not a string, the timestamp is not a
            finite number by the rule of Box3D's numbers (what a box file's
            reader refuses, so every set that is written reads back), or the
            source id is not an int by the rule of Box3D's ids or is
            negative (so merge_sources stamps boxes only with ids that read
            back).
    """

    frame_id: str
    boxes: List[Box3D] = field(default_factory=list)
    source_id: int = 0
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.frame_id, str):
            raise ValueError(f"frame_id must be a string, got {self.frame_id!r}")
        if not _is_id(self.source_id):
            raise ValueError(f"source_id must be an integer, got {self.source_id!r}")
        _NON_NEGATIVE.check("source_id", self.source_id)
        _check_number("timestamp", self.timestamp)
        FINITE.check("timestamp", self.timestamp)

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self) -> Iterator[Box3D]:
        return iter(self.boxes)


def score_order(scores: Sequence[float]) -> List[int]:
    """The indices of scores by descending score, ties to the lower index: the one
    order in which suppression, matching and the precision-recall curve visit detections."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable").tolist()


def polygon_area(vertices: Sequence[Tuple[float, float]]) -> float:
    """Shoelace area of a simple polygon, positive for counterclockwise order."""
    n = len(vertices)
    if n < 3:
        return 0.0
    acc = 0.0
    px, py = vertices[-1]
    for qx, qy in vertices:
        acc += px * qy - qx * py
        px, py = qx, qy
    return 0.5 * acc


def clip_convex(
    subject: Sequence[Tuple[float, float]], clip: Sequence[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Clip one convex counterclockwise polygon by another (Sutherland-Hodgman).

    Returns the vertices of the intersection polygon; empty when the two
    polygons are disjoint.
    """
    output = list(subject)
    n = len(clip)
    for i in range(n):
        if not output:
            break
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % n]
        ex = bx - ax
        ey = by - ay
        polygon = output
        output = []
        sx, sy = polygon[-1]
        s_side = ex * (sy - ay) - ey * (sx - ax)
        for px, py in polygon:
            p_side = ex * (py - ay) - ey * (px - ax)
            if p_side >= 0.0:
                if s_side < 0.0:
                    t = s_side / (s_side - p_side)
                    output.append((sx + t * (px - sx), sy + t * (py - sy)))
                output.append((px, py))
            elif s_side >= 0.0:
                t = s_side / (s_side - p_side)
                output.append((sx + t * (px - sx), sy + t * (py - sy)))
            sx, sy, s_side = px, py, p_side
    return output


def _footprint_intersection(a: Box3D, b: Box3D) -> float:
    """Overlap area of two box footprints; 0 for slivers below 1e-12 m^2."""
    # Cheap reject: centers farther apart than the summed half-diagonals.
    ra = 0.5 * math.hypot(a.length, a.width)
    rb = 0.5 * math.hypot(b.length, b.width)
    dx = a.cx - b.cx
    dy = a.cy - b.cy
    if dx * dx + dy * dy > (ra + rb) * (ra + rb):
        return 0.0
    overlap = clip_convex(a.corners_bev(), b.corners_bev())
    area = polygon_area(overlap)
    if area < _AREA_EPS:
        return 0.0
    return area


def bev_iou(a: Box3D, b: Box3D) -> float:
    """Intersection-over-union of the two heading-rotated footprints.

    Symmetric; always in [0, 1]. Heights and vertical positions are ignored.
    """
    inter = _footprint_intersection(a, b)
    if inter == 0.0:
        return 0.0
    union = a.bev_area + b.bev_area - inter
    if union < _AREA_EPS:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def iou3d(a: Box3D, b: Box3D) -> float:
    """3D intersection-over-union: rotated footprint overlap times z overlap.

    Symmetric; 0 whenever the vertical intervals or the footprints are
    disjoint. Equals :func:`bev_iou` when both boxes share the same z-center
    and height.
    """
    z_overlap = min(a.z_max, b.z_max) - max(a.z_min, b.z_min)
    if z_overlap <= 0.0:
        return 0.0
    inter_bev = _footprint_intersection(a, b)
    if inter_bev == 0.0:
        return 0.0
    inter = inter_bev * z_overlap
    union = a.volume + b.volume - inter
    if union < _AREA_EPS:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def _circles(boxes: Sequence[Box3D]) -> np.ndarray:
    """(N, 3) array of footprint centers and circumscribed radii, each radius
    the expression of the scalar reject in :func:`_footprint_intersection`."""
    return np.array([(b.cx, b.cy, 0.5 * math.hypot(b.length, b.width)) for b in boxes],
                    dtype=np.float64)


def candidate_columns(rows: Sequence[Box3D], cols: Sequence[Box3D]) -> List[List[int]]:
    """For each row box, the ascending indices of the column boxes that can overlap it.

    A pair is a candidate when its circumscribed circles can touch:
    d^2 <= (ra + rb)^2, with d the distance between the footprint centers
    and ra, rb the half-diagonals. Those are the IEEE operations of the
    scalar reject in :func:`bev_iou` and :func:`iou3d`, in either argument
    order, so the candidates are exactly the pairs it keeps, and a pair
    left out has IoU 0. Rows are tested in blocks of about 1M cells, so
    memory stays bounded for any list sizes.
    """
    if not rows or not cols:
        return [[] for _ in rows]
    a = _circles(rows)
    b = a if cols is rows else _circles(cols)
    step = max(1, _BLOCK_CELLS // len(b))
    out: List[List[int]] = []
    for start in range(0, len(a), step):
        block = a[start:start + step]
        # Huge coordinates or sizes overflow to inf, as in the scalar test.
        with np.errstate(over="ignore"):
            d2 = block[:, 0:1] - b[:, 0]
            dy = block[:, 1:2] - b[:, 1]
            d2 *= d2
            dy *= dy
            d2 += dy
            reach = np.add(block[:, 2:3], b[:, 2], out=dy)  # dy is spent: reuse it
            reach *= reach
        hits = d2 <= reach
        flat = np.nonzero(hits)[1].tolist()
        ends = np.cumsum(hits.sum(axis=1)).tolist()
        begin = 0
        for end in ends:
            out.append(flat[begin:end])
            begin = end
    return out


def iou_matrix(
    rows: Sequence[Box3D], cols: Sequence[Box3D], iou_fn: Callable[[Box3D, Box3D], float]
) -> np.ndarray:
    """Pairwise overlap: a float64 (len(rows), len(cols)) array whose entry
    (i, j) is iou_fn(rows[i], cols[j]).

    iou_fn is called only on the pairs of :func:`candidate_columns`, row by
    row, and every other entry is 0.0; iou_fn must return 0 for boxes whose
    circumscribed circles are disjoint, which bev_iou and iou3d do. The
    argument order is kept as given because bev_iou and iou3d are symmetric
    only up to rounding in the last bits.
    """
    out = np.zeros((len(rows), len(cols)), dtype=np.float64)
    for i, (a, js) in enumerate(zip(rows, candidate_columns(rows, cols))):
        if js:
            out[i, js] = [iou_fn(a, cols[j]) for j in js]
    return out
