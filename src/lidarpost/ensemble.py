"""Detection merging and suppression.

Greedy NMS, score-decaying soft-NMS, box voting (averaging the pool of
originals that overlap each surviving box), and pairwise score-weighted
detector merging with grid search over the weight. Suppression is always
class-wise: boxes of different labels never interact.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, List, Sequence, Tuple, TypeVar

from .geometry import Box3D, DetectionSet, bev_iou

IouFn = Callable[[Box3D, Box3D], float]
T = TypeVar("T")

DEFAULT_NMS_IOU = {"VEHICLE": 0.7, "PEDESTRIAN": 0.5, "CYCLIST": 0.5}
DEFAULT_VOTE_IOU = 0.55
DEFAULT_SOFT_NMS_SIGMA = 0.5
DEFAULT_SOFT_NMS_FLOOR = 0.001
DEFAULT_STOP_DELTA = 0.001


def nms(boxes: Sequence[Box3D], iou_thr: float, iou_fn: IouFn = bev_iou) -> List[int]:
    """Greedy non-maximum suppression; returns kept indices in keep order.

    Boxes are scanned by descending score (ties by lower original index); a
    box is kept iff its IoU with every already-kept box of the same label is
    strictly below iou_thr.

    Raises:
        ValueError: if iou_thr is outside [0, 1].
    """
    if not (0.0 <= iou_thr <= 1.0):
        raise ValueError(f"iou_thr must lie in [0, 1], got {iou_thr!r}")
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].score, i))
    kept: List[int] = []
    for i in order:
        box = boxes[i]
        if all(
            boxes[j].label is not box.label or iou_fn(box, boxes[j]) < iou_thr
            for j in kept
        ):
            kept.append(i)
    return kept


def soft_nms(
    boxes: Sequence[Box3D],
    sigma: float = DEFAULT_SOFT_NMS_SIGMA,
    score_floor: float = DEFAULT_SOFT_NMS_FLOOR,
    iou_fn: IouFn = bev_iou,
) -> List[Box3D]:
    """Soft suppression: decay overlapping scores instead of removing boxes.

    Repeatedly move the current max-score box to the output, then rescore
    every remaining same-label box by exp(-IoU^2 / sigma) and discard those
    whose score drops below score_floor. Output boxes carry their final
    scores, in descending order.

    Raises:
        ValueError: unless sigma > 0 and score_floor in [0, 1).
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
    if not (0.0 <= score_floor < 1.0):
        raise ValueError(f"score_floor must lie in [0, 1), got {score_floor!r}")
    pool: List[Tuple[int, Box3D, float]] = [
        (i, box, box.score) for i, box in enumerate(boxes)
    ]
    kept: List[Box3D] = []
    while pool:
        best = 0
        for idx in range(1, len(pool)):
            if pool[idx][2] > pool[best][2]:
                best = idx
        index, box, score = pool.pop(best)
        kept.append(replace(box, score=score))
        survivors: List[Tuple[int, Box3D, float]] = []
        for other_index, other, other_score in pool:
            if other.label is box.label:
                other_score = other_score * math.exp(-iou_fn(box, other) ** 2 / sigma)
                if other_score < score_floor:
                    continue
            survivors.append((other_index, other, other_score))
        pool = survivors
    return kept


def box_vote(
    nms_boxes: Sequence[Box3D],
    original_boxes: Sequence[Box3D],
    iou_thr: float = DEFAULT_VOTE_IOU,
    iou_fn: IouFn = bev_iou,
) -> List[Box3D]:
    """Refine surviving boxes by averaging the originals that back them.

    For each surviving box, the same-label originals with IoU strictly above
    iou_thr vote: center and dimensions become their unweighted means, while
    heading and score stay those of the surviving box. Boxes with no voters
    pass through unchanged.

    Raises:
        ValueError: unless iou_thr in (0, 1].
    """
    if not (0.0 < iou_thr <= 1.0):
        raise ValueError(f"iou_thr must lie in (0, 1], got {iou_thr!r}")
    out: List[Box3D] = []
    for box in nms_boxes:
        voters = [
            o
            for o in original_boxes
            if o.label is box.label and iou_fn(o, box) > iou_thr
        ]
        if not voters:
            out.append(box)
            continue
        n = len(voters)
        out.append(
            replace(
                box,
                cx=sum(o.cx for o in voters) / n,
                cy=sum(o.cy for o in voters) / n,
                cz=sum(o.cz for o in voters) / n,
                length=sum(o.length for o in voters) / n,
                width=sum(o.width for o in voters) / n,
                height=sum(o.height for o in voters) / n,
            )
        )
    return out


def merge_sources(sets: Sequence[DetectionSet]) -> DetectionSet:
    """Concatenate detector outputs for one frame, stamping box source ids.

    Boxes keep their within-source order; each box's source_id is set to its
    set's tag. The merged set inherits frame_id, timestamp, and source_id
    from the first input.

    Raises:
        ValueError: if sets is empty or the frame ids differ.
    """
    sets = list(sets)
    if not sets:
        raise ValueError("need at least one detection set")
    frame_id = sets[0].frame_id
    for s in sets[1:]:
        if s.frame_id != frame_id:
            raise ValueError(
                f"mixed frame ids: {frame_id!r} vs {s.frame_id!r}"
            )
    boxes = [replace(b, source_id=s.source_id) for s in sets for b in s.boxes]
    return DetectionSet(frame_id, boxes, sets[0].source_id, sets[0].timestamp)


def ensemble_pair(
    a: DetectionSet,
    b: DetectionSet,
    w_a: float,
    w_b: float,
    iou_thr: float,
    iou_fn: IouFn = bev_iou,
) -> DetectionSet:
    """Merge two detectors into one: weight scores, pool, suppress.

    Scores of a are scaled by w_a and of b by w_b (the products stay in
    [0, 1]), the pools are concatenated, and NMS at iou_thr resolves
    duplicates. The result acts as a single detector for further pairing.

    Raises:
        ValueError: unless both weights lie in (0, 1].
    """
    for name, w in (("w_a", w_a), ("w_b", w_b)):
        if not (0.0 < w <= 1.0):
            raise ValueError(f"{name} must lie in (0, 1], got {w!r}")
    merged = merge_sources([a, b])
    weights = [w_a] * len(a) + [w_b] * len(b)
    boxes = [replace(box, score=box.score * w) for box, w in zip(merged.boxes, weights)]
    keep = nms(boxes, iou_thr, iou_fn)
    return replace(merged, boxes=[boxes[i] for i in keep])


def grid_search_weight(
    grid: Sequence[float],
    merge: Callable[[float], T],
    score_fn: Callable[[T], float],
) -> Tuple[float, float]:
    """Pick the weight whose merged detector maximizes score_fn.

    merge(w) builds the merged detector for weight w, for example
    ensemble_pair(fixed, candidate, 1.0, w, iou_thr) for one frame, or a
    frame-by-frame merge of whole sequences. Evaluates score_fn(merge(w))
    for every w in grid and returns (best_weight, best_score); ties go to
    the earliest grid entry.

    Raises:
        ValueError: if grid is empty.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be non-empty")
    best_w = grid[0]
    best_score = -math.inf
    for w in grid:
        score = score_fn(merge(w))
        if score > best_score:
            best_w = w
            best_score = score
    return best_w, best_score
