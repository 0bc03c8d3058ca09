"""Oriented 3D boxes, the per-frame sets that hold them, and their overlaps.

Boxes live in a right-handed frame: x forward, y left, z up. A box heading is
the yaw of its length axis about +z, zero along +x, and is always stored
wrapped to (-pi, pi]. The box center sits at mid-height, so the vertical
extent is [cz - h/2, cz + h/2]. A box stores its eight numbers as floats.
:func:`bev_iou` and :func:`iou3d` score one pair of boxes; :func:`iou_matrix`
scores two box lists against each other.

Overlaps are computed only for candidate pairs. Two boxes whose circumscribed
circles (center, radius half the footprint diagonal) are disjoint cannot
overlap, so :func:`candidate_pairs` finds the pairs whose circles can touch
by a sweep over the columns sorted by x, as CSR row pointers and column
indices (:func:`candidate_columns` lists them by row), and the overlap runs
on those alone. The callers that score every candidate pair (``iou_matrix``,
the assigners, ``associate``, ``mota_motp`` and ``box_vote``) score them,
for :func:`bev_iou` and :func:`iou3d`, with one batched NumPy kernel per
frame or sequence (:func:`overlaps`, :func:`iou_blocks`, and
:func:`pair_overlaps` for a list of pairs). The kernel takes boxes or the
(n, 7) geometry arrays of :func:`as_geometry`, and is bit for bit the scalar
code: it builds corners with ``math.cos`` and ``math.sin`` and replays the
circle reject, the z test, the Sutherland-Hodgman clip and the shoelace sum
with the same IEEE operations in the same order. The lazy callers (``nms``,
``soft_nms``, the ensemble's pool and ``FrameMatcher``) call the scalar
overlap on the pairs they reach, and any other ``iou_fn`` is called per pair
everywhere. Every function that takes an ``iou_fn`` relies on the candidate
test: ``iou_fn`` must return 0 for boxes whose circumscribed circles are
disjoint, which :func:`bev_iou` and :func:`iou3d` do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import chain
from operator import attrgetter
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

_TAU = 2.0 * math.pi

# Clipped footprints smaller than this are floating-point slivers, not overlap.
_AREA_EPS = 1e-12

# Upper bound on the pairs that one chunk of the candidate sweep tests: its
# temporaries take about 80 bytes a pair.
_BLOCK_CELLS = 1 << 18

# Pairs scored at once by the overlap kernel: its temporaries stay near 1 MB.
_PAIR_CHUNK = 1 << 12

# Candidate pairs that end a pass of iou_blocks: a pass holds about 24 bytes
# a pair (indices and value) beside its blocks' tables and matrices.
_PASS_PAIRS = 1 << 14


class Label(Enum):
    """Object classes scored by the detection and tracking pipelines."""

    VEHICLE = "VEHICLE"
    PEDESTRIAN = "PEDESTRIAN"
    CYCLIST = "CYCLIST"
    __hash__ = object.__hash__  # by identity, as members compare: Enum's hash runs in Python


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
    if isinstance(value, int):  # tested, not converted: Box3D converts once all checks pass
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
        # Stored as floats, as a box file reads back: an int 1 is kept as 1.0.
        for name in _NUMBER_FIELDS:
            setattr(self, name, float(getattr(self, name)))
        self.heading = wrap_angle(self.heading)

    def _with(self, **changes) -> "Box3D":
        """A copy with changes, without the checks above, for changes that
        keep a valid box valid only: a source id, a non-negative track id,
        a score in [0, 1] such as a valid score times a weight in (0, 1], or
        float numbers that pass their BOX_DOMAINS checks. The heading is
        already wrapped, and wrapping it again would return it bit for bit.
        Use dataclasses.replace for anything else."""
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
        # Each product once: the same IEEE operations, in the same order.
        cx, cy, chl, shl, chw, shw = self.cx, self.cy, c * hl, s * hl, c * hw, s * hw
        return [
            (cx + chl - shw, cy + shl + chw),
            (cx - chl - shw, cy - shl + chw),
            (cx - chl + shw, cy - shl - chw),
            (cx + chl + shw, cy + shl - chw),
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


def as_geometry(boxes) -> np.ndarray:
    """The (n, 7) float64 array of the boxes' cx, cy, cz, length, width,
    height and heading, each the value the box stores. An (n, 7) array is
    taken to hold these columns already and is returned as it is."""
    if isinstance(boxes, np.ndarray):
        return boxes
    n = len(boxes)
    return np.fromiter(chain.from_iterable(map(_geometry_values, boxes)), np.float64,
                       7 * n).reshape(n, 7)


_geometry_values = attrgetter(*_NUMBER_FIELDS[:7])


def _circles(boxes) -> np.ndarray:
    """(N, 3) array of footprint centers and circumscribed radii of a Box3D
    sequence or an (N, 7) geometry array, each radius the expression of the
    scalar reject in :func:`_footprint_intersection`."""
    if not isinstance(boxes, np.ndarray):
        values = ((b.cx, b.cy, 0.5 * math.hypot(b.length, b.width)) for b in boxes)
        return np.fromiter(chain.from_iterable(values), np.float64, 3 * len(boxes)).reshape(-1, 3)
    radius = 0.5 * np.fromiter(map(math.hypot, boxes[:, 3].tolist(), boxes[:, 4].tolist()),
                               np.float64, len(boxes))
    return np.stack([boxes[:, 0], boxes[:, 1], radius], axis=1)


def _sweep(a: np.ndarray, b: np.ndarray, a_groups: Optional[np.ndarray] = None,
           b_groups: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """The candidate test of the circles a against the circles b as CSR: row
    pointers, and each row's ascending column indices. Given group ids, a
    row meets only its own group's columns.

    The columns are sorted by (group, x). A row tests those whose x is within
    the root of the rounded square of its radius plus the largest column
    radius, widened by 2**-40 of that and 2**-499: a pair the scalar reject
    keeps passes the reach in |dx| by a few ulps at most, or has squares
    that underflow, and the window's ends round by half an ulp of an x under
    twice the window whenever dx rounds. A square that overflows gives an
    infinite window, as the reject then keeps every pair. The window's
    pairs, at most _BLOCK_CELLS at a time, get the reject's IEEE operations.
    """
    n = len(a)
    if not n or not len(b):
        return np.zeros(n + 1, dtype=np.intp), np.empty(0, dtype=np.intp)
    # Huge coordinates or sizes overflow to inf, as in the scalar reject.
    with np.errstate(over="ignore"):
        reach = a[:, 2] + b[:, 2].max()
        half = np.sqrt(reach * reach) * (1.0 + 2.0**-40) + 2.0**-499
        lo_x, hi_x = a[:, 0] - half, a[:, 0] + half
        # ndarray methods, not np functions: these calls are many and small.
        key = _keys(b_groups, b[:, 0])
        order = key.argsort(kind="stable")
        key = key[order]
        lo = key.searchsorted(_keys(a_groups, lo_x), "left")
        counts = key.searchsorted(_keys(a_groups, hi_x), "right") - lo
        ends = counts.cumsum()
        found = [(np.zeros(1, dtype=np.intp), np.empty(0, dtype=np.intp))]
        sides = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
        start = 0
        while start < n:
            cells = _BLOCK_CELLS + (ends[start - 1] if start else 0)
            stop = max(int(ends.searchsorted(cells, "right")), start + 1)
            found.append(_window_hits(*sides, order, lo[start:stop], counts[start:stop], start))
            start = stop
    row_counts, cols = zip(*found)
    return np.concatenate(row_counts).cumsum(), np.concatenate(cols)


def _keys(groups: Optional[np.ndarray], x: np.ndarray) -> np.ndarray:
    """x as sort keys, after the groups if given, as complex numbers sort."""
    if groups is None:
        return x
    key = groups.astype(np.complex128)
    key.imag = x
    return key


def _window_hits(a: np.ndarray, b: np.ndarray, order: np.ndarray, lo: np.ndarray,
                 counts: np.ndarray, start: int) -> Tuple[np.ndarray, np.ndarray]:
    """The pairs that the scalar reject keeps among rows start.. of the
    (3, n) circles a, each against its counts columns from position lo of
    the sorted b: each row's count of kept pairs, and their columns, row by
    row in ascending order. The caller lets squares overflow to inf."""
    rows = np.arange(start, start + len(lo)).repeat(counts)
    offsets = counts.cumsum() - counts
    cols = order[np.arange(len(rows)) + (lo - offsets).repeat(counts)]
    (ax, ay, ar), (bx, by, br) = a.take(rows, axis=1), b.take(cols, axis=1)
    d2 = np.subtract(ax, bx, out=ax)
    dy = np.subtract(ay, by, out=ay)
    d2 *= d2
    dy *= dy
    d2 += dy
    reach = np.add(ar, br, out=ar)
    reach *= reach
    hit = d2 <= reach
    rows, cols = rows[hit], cols[hit]
    cols = cols[(rows * b.shape[1] + cols).argsort()]
    return np.bincount(rows - start, minlength=len(lo)), cols


_LABEL_CODES = {label: float(code) for code, label in enumerate(Label)}


def candidate_pairs(rows: Sequence[Box3D], cols: Sequence[Box3D],
                    same_label: bool = False) -> Tuple[List[int], List[int]]:
    """The candidate pairs of rows against cols as CSR lists: row i's
    candidates are ``indices[pointers[i]:pointers[i + 1]]``, ascending, as
    :func:`candidate_columns` lists them. With same_label, only the pairs
    of boxes that share a label."""
    sides = [(_circles(side),
              np.array([_LABEL_CODES[box.label] for box in side]) if same_label else None)
             for side in ([rows] if cols is rows else [rows, cols])]
    (a, a_groups), (b, b_groups) = sides[0], sides[-1]
    pointers, indices = _sweep(a, b, a_groups, b_groups)
    return pointers.tolist(), indices.tolist()


def candidate_columns(rows: Sequence[Box3D], cols: Sequence[Box3D]) -> List[List[int]]:
    """For each row box, the ascending indices of the column boxes that can overlap it.

    A pair is a candidate when its circumscribed circles can touch:
    d^2 <= (ra + rb)^2, with d the distance between the footprint centers
    and ra, rb the half-diagonals. Those are the IEEE operations of the
    scalar reject in :func:`bev_iou` and :func:`iou3d`, in either argument
    order, so the candidates are exactly the pairs it keeps, and a pair
    left out has IoU 0. A sweep over the columns sorted by x finds them
    (see :func:`_sweep`), so memory stays bounded for any list sizes.
    """
    pointers, indices = candidate_pairs(rows, cols)
    return [indices[begin:end] for begin, end in zip(pointers, pointers[1:])]


class _Table(NamedTuple):
    """The overlap kernel's columns of N boxes, each the value the scalar
    code computes for its box: footprint corners (N, 4) in
    :meth:`Box3D.corners_bev` order, the circles of :func:`_circles`, the
    z-range, the area and the volume."""

    xs: np.ndarray
    ys: np.ndarray
    circles: np.ndarray
    z_lo: np.ndarray
    z_hi: np.ndarray
    area: np.ndarray
    volume: np.ndarray


def _table(geometry: np.ndarray, circles: np.ndarray) -> _Table:
    """The kernel's table of an (N, 7) geometry array and its circles."""
    cx, cy, cz, length, width, height = geometry[:, :6].T
    headings = geometry[:, 6].tolist()
    # math, not np.cos and np.sin, whose SIMD paths may differ in the last bit.
    c = np.fromiter(map(math.cos, headings), np.float64, len(headings))
    s = np.fromiter(map(math.sin, headings), np.float64, len(headings))
    with np.errstate(over="ignore"):  # huge boxes overflow to inf, as in the scalar code
        hl = 0.5 * length
        hw = 0.5 * width
        xs = np.array([cx + c * hl - s * hw, cx - c * hl - s * hw,
                       cx - c * hl + s * hw, cx + c * hl + s * hw]).T
        ys = np.array([cy + s * hl + c * hw, cy - s * hl + c * hw,
                       cy - s * hl - c * hw, cy + s * hl - c * hw]).T
        area = length * width
        return _Table(xs, ys, circles, cz - 0.5 * height,
                      cz + 0.5 * height, area, area * height)


def _clipped_areas(px: np.ndarray, py: np.ndarray, qx: np.ndarray, qy: np.ndarray) -> np.ndarray:
    """``polygon_area(clip_convex(p, q))`` of each row's quadrilaterals p
    and q, (P, 4) corners each, with the scalar code's IEEE operations in
    its order.

    A row holds a polygon as a vertex count and slots 1 to count, with slot
    0 a copy of the last vertex, the first vertex's predecessor. Each clip
    edge emits, under the scalar branches' conditions, an intersection slot
    and then a vertex slot per input vertex, and moves the emitted ones
    forward in order, so the width grows only as far as a polygon does.
    """
    n_pairs = len(px)
    rows = np.arange(n_pairs)
    count = np.full(n_pairs, 4)
    x = np.concatenate([px[:, 3:], px], axis=1)
    y = np.concatenate([py[:, 3:], py], axis=1)
    ex_all = np.roll(qx, -1, axis=1) - qx
    ey_all = np.roll(qy, -1, axis=1) - qy
    for e in range(4):
        ax, ay = qx[:, e:e + 1], qy[:, e:e + 1]
        ex, ey = ex_all[:, e:e + 1], ey_all[:, e:e + 1]
        side = ex * (y - ay) - ey * (x - ax)
        s_side, p_side = side[:, :-1], side[:, 1:]
        sx, sy, vx, vy = x[:, :-1], y[:, :-1], x[:, 1:], y[:, 1:]
        width = vx.shape[1]
        valid = np.arange(width) < count[:, None]
        inside = p_side >= 0.0
        emit = np.empty((n_pairs, width, 2), dtype=bool)
        np.logical_and(valid, np.where(inside, s_side < 0.0, s_side >= 0.0), out=emit[:, :, 0])
        np.logical_and(valid, inside, out=emit[:, :, 1])
        t = s_side / (s_side - p_side)
        slots_x = np.empty((n_pairs, width, 2))
        slots_y = np.empty((n_pairs, width, 2))
        slots_x[:, :, 0] = sx + t * (vx - sx)
        slots_y[:, :, 0] = sy + t * (vy - sy)
        slots_x[:, :, 1] = vx
        slots_y[:, :, 1] = vy
        emit = emit.reshape(n_pairs, 2 * width)
        slot = np.cumsum(emit, axis=1)
        count = slot[:, -1]
        new_width = int(count.max()) if n_pairs else 0
        # Emitted slots go to 1..count, the others to a spare last column.
        slot = np.where(emit, slot, new_width + 1)
        slot += (rows * (new_width + 2))[:, None]
        x = np.zeros((n_pairs, new_width + 2))
        y = np.zeros((n_pairs, new_width + 2))
        x.ravel()[slot.ravel()] = slots_x.ravel()
        y.ravel()[slot.ravel()] = slots_y.ravel()
        x, y = x[:, :-1], y[:, :-1]
        x[:, 0] = x[rows, count]
        y[:, 0] = y[rows, count]
        if not new_width:
            break
    # The shoelace sum from 0.0, each term after the previous vertex's.
    acc = np.zeros(n_pairs)
    for k in range(1, x.shape[1]):
        term = x[:, k - 1] * y[:, k] - x[:, k] * y[:, k - 1]
        acc = np.where(k <= count, acc + term, acc)
    area = 0.5 * acc
    area[count < 3] = 0.0
    return area


def _pair_overlaps(a: _Table, b: _Table, i: np.ndarray, j: np.ndarray, kind: str) -> np.ndarray:
    """bev_iou(a[i], b[j]) or iou3d(a[i], b[j]) of each pair, bit for bit."""
    out = np.zeros(len(i))
    with np.errstate(all="ignore"):
        dx = a.circles[i, 0] - b.circles[j, 0]
        dy = a.circles[i, 1] - b.circles[j, 1]
        reach = a.circles[i, 2] + b.circles[j, 2]
        keep = ~(dx * dx + dy * dy > reach * reach)
        if kind == "3d":
            z_overlap = np.minimum(a.z_hi[i], b.z_hi[j]) - np.maximum(a.z_lo[i], b.z_lo[j])
            keep &= ~(z_overlap <= 0.0)
        at = np.flatnonzero(keep)
        i, j = i[at], j[at]
        inter = _clipped_areas(a.xs[i], a.ys[i], b.xs[j], b.ys[j])
        inter[inter < _AREA_EPS] = 0.0
        # Taken before the z product: the scalar code returns 0 here, where
        # 0 times an overflowed z-overlap would be NaN.
        zero = inter == 0.0
        if kind == "3d":
            inter *= z_overlap[at]
            union = a.volume[i] + b.volume[j] - inter
        else:
            union = a.area[i] + b.area[j] - inter
        iou = inter / union
        iou = np.where(0.0 > iou, 0.0, iou)
        iou = np.where(1.0 < iou, 1.0, iou)
        iou[zero | (union < _AREA_EPS)] = 0.0
    out[at] = iou
    return out


def overlap_kind(iou_fn: Callable) -> Optional[str]:
    """The kind of :func:`overlaps` that computes iou_fn: "bev" for
    :func:`bev_iou`, "3d" for :func:`iou3d`, None for any other function."""
    return "bev" if iou_fn is bev_iou else "3d" if iou_fn is iou3d else None


def _kernel(a: _Table, b: _Table, i: np.ndarray, j: np.ndarray, kind: str) -> np.ndarray:
    """:func:`_pair_overlaps` of the pairs (i, j), _PAIR_CHUNK pairs at a time."""
    return np.concatenate([np.empty(0)] + [
        _pair_overlaps(a, b, i[k:k + _PAIR_CHUNK], j[k:k + _PAIR_CHUNK], kind)
        for k in range(0, len(i), _PAIR_CHUNK)])


def pair_overlaps(rows, cols, i: np.ndarray, j: np.ndarray, kind: str) -> np.ndarray:
    """``bev_iou(rows[i[p]], cols[j[p]])`` for kind "bev", or with
    :func:`iou3d` for kind "3d", of each listed pair p, bit for bit, from
    the batched kernel. rows and cols are Box3D sequences or (n, 7) arrays
    of :func:`as_geometry`; the pairs are scored as given, candidates or not.

    Raises:
        ValueError: unless kind is "bev" or "3d".
    """
    _check_kind(kind)
    rows, cols = as_geometry(rows), as_geometry(cols)
    return _kernel(_table(rows, _circles(rows)), _table(cols, _circles(cols)),
                   np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp), kind)


def _stacked(sides: Sequence) -> np.ndarray:
    """The geometry of several Box3D sequences or (n, 7) arrays, one after another."""
    if any(isinstance(side, np.ndarray) for side in sides):
        return np.concatenate([np.empty((0, 7))] + [as_geometry(side) for side in sides])
    return as_geometry([box for side in sides for box in side])


def _overlap_blocks(blocks: Sequence[Tuple[Sequence, Sequence]], kind: str) -> Iterator[np.ndarray]:
    """:func:`overlaps` of each (rows, cols) block in turn. The boxes of
    every block are stacked once, and one sweep, with a group for each
    block, finds every block's candidate pairs: 8 bytes a pair for the
    sequence. Whole blocks' pairs are scored together, in passes that end
    once they hold _PASS_PAIRS pairs: the kernel tables and values in
    memory follow a pass, not the sequence."""
    rows = _stacked([block for block, _ in blocks])
    cols = _stacked([block for _, block in blocks])
    row_circles, col_circles = _circles(rows), _circles(cols)
    ids = np.arange(len(blocks), dtype=np.float64)
    found = _sweep(row_circles, col_circles, np.repeat(ids, [len(block) for block, _ in blocks]),
                   np.repeat(ids, [len(block) for _, block in blocks]))
    pending: List[Tuple[int, int, int, int]] = []
    r0 = c0 = 0
    for block_rows, block_cols in blocks:
        r1, c1 = r0 + len(block_rows), c0 + len(block_cols)
        pending.append((r0, c0, r1, c1))
        r0, c0 = r1, c1
        if found[0][r1] - found[0][pending[0][0]] >= _PASS_PAIRS:
            yield from _pass(rows, cols, row_circles, col_circles, *found, pending, kind)
            pending = []
    yield from _pass(rows, cols, row_circles, col_circles, *found, pending, kind)


def _pass(rows: np.ndarray, cols: np.ndarray, row_circles: np.ndarray, col_circles: np.ndarray,
          pointers: np.ndarray, indices: np.ndarray, pending: List[Tuple[int, int, int, int]],
          kind: str) -> Iterator[np.ndarray]:
    """The matrices of a pass's consecutive blocks, (first row, first
    column, end row, end column) each, every candidate pair of the sweep's
    CSR scored in one kernel call on the tables of the pass's boxes."""
    if not pending:
        return
    r0, c0 = pending[0][:2]
    r1, c1 = pending[-1][2:]
    i = np.repeat(np.arange(r0, r1), np.diff(pointers[r0:r1 + 1]))
    j = indices[pointers[r0]:pointers[r1]]
    values = _kernel(_table(rows[r0:r1], row_circles[r0:r1]),
                     _table(cols[c0:c1], col_circles[c0:c1]), i - r0, j - c0, kind)
    for block_r0, block_c0, block_r1, block_c1 in pending:
        p0, p1 = pointers[block_r0] - pointers[r0], pointers[block_r1] - pointers[r0]
        # Built in a call, so the suspended generator keeps no matrix alive.
        yield _scatter((block_r1 - block_r0, block_c1 - block_c0), i[p0:p1] - block_r0,
                       j[p0:p1] - block_c0, values[p0:p1])


def _scatter(shape: Tuple[int, int], i: np.ndarray, j: np.ndarray,
             values: np.ndarray) -> np.ndarray:
    out = np.zeros(shape, dtype=np.float64)
    out[i, j] = values
    return out


def overlaps(rows, cols, kind: str) -> np.ndarray:
    """``iou_matrix(rows, cols, bev_iou)`` for kind "bev", and with
    :func:`iou3d` for kind "3d", bit for bit, from the batched kernel.
    rows and cols are Box3D sequences or (n, 7) arrays of :func:`as_geometry`.

    Raises:
        ValueError: unless kind is "bev" or "3d".
    """
    _check_kind(kind)
    return next(_overlap_blocks([(rows, cols)], kind))


def _check_kind(kind: str) -> None:
    if kind not in ("bev", "3d"):
        raise ValueError(f"kind must be 'bev' or '3d', got {kind!r}")


def iou_blocks(
    blocks: Sequence[Tuple[Sequence[Box3D], Sequence[Box3D]]], iou_fn: Callable
) -> Iterator[np.ndarray]:
    """``iou_matrix(rows, cols, iou_fn)`` of each (rows, cols) block in turn.

    For bev_iou and iou3d, the candidate pairs of whole blocks are scored
    together by the batched kernel, in passes of about _PASS_PAIRS pairs
    (one pass for a tracker's sequence), each when its first matrix is
    taken; rows and cols may then be (n, 7) arrays of :func:`as_geometry`.
    Any other iou_fn is called block by block as each matrix is taken, as
    :func:`iou_matrix` calls it.
    """
    kind = overlap_kind(iou_fn)
    if kind is None:
        return (iou_matrix(rows, cols, iou_fn) for rows, cols in blocks)
    return _overlap_blocks(blocks, kind)


def iou_matrix(
    rows: Sequence[Box3D], cols: Sequence[Box3D], iou_fn: Callable[[Box3D, Box3D], float]
) -> np.ndarray:
    """Pairwise overlap: a float64 (len(rows), len(cols)) array whose entry
    (i, j) is iou_fn(rows[i], cols[j]).

    For bev_iou and iou3d this is :func:`overlaps`. Any other iou_fn is
    called only on the pairs of :func:`candidate_columns`, row by row, and
    every other entry is 0.0; iou_fn must return 0 for boxes whose
    circumscribed circles are disjoint, which bev_iou and iou3d do. The
    argument order is kept as given because bev_iou and iou3d are symmetric
    only up to rounding in the last bits.
    """
    kind = overlap_kind(iou_fn)
    if kind is not None:
        return overlaps(rows, cols, kind)
    out = np.zeros((len(rows), len(cols)), dtype=np.float64)
    for i, (a, js) in enumerate(zip(rows, candidate_columns(rows, cols))):
        if js:
            out[i, js] = [iou_fn(a, cols[j]) for j in js]
    return out
