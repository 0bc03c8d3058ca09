"""Detection merging and suppression.

Greedy NMS, score-decaying soft-NMS, box voting (averaging the pool of
originals that overlap each surviving box), and pairwise score-weighted
detector merging at any weight; the ensemble command searches a weight
grid with it. Suppression is always class-wise: boxes of different labels
never interact.

A weight search merges the same two detectors once per grid weight. Only
the scores and so the NMS order depend on the weight: :class:`PairPool`
pools a frame's boxes, finds their candidate pairs and keeps each overlap
it scores, once for all weights, and :func:`nms` and its merge share one
suppression loop.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import reduce
from operator import add
from typing import Callable, Dict, List, Mapping, Sequence, Tuple, Union

import numpy as np

from .geometry import Box3D, DetectionSet, Label, bev_iou, candidate_columns

IouFn = Callable[[Box3D, Box3D], float]
Thresholds = Union[float, Mapping[str, float]]

DEFAULT_NMS_IOU = {"VEHICLE": 0.7, "PEDESTRIAN": 0.5, "CYCLIST": 0.5}
DEFAULT_VOTE_IOU = 0.55
DEFAULT_SOFT_NMS_SIGMA = 0.5
DEFAULT_SOFT_NMS_FLOOR = 0.001
DEFAULT_STOP_DELTA = 0.001


def nms(boxes: Sequence[Box3D], iou_thr: Thresholds, iou_fn: IouFn = bev_iou) -> List[int]:
    """Greedy non-maximum suppression; returns kept indices in keep order.

    Boxes are scanned by descending score (ties by lower original index); a
    box is kept iff its IoU with every already-kept box of the same label is
    strictly below its class's threshold: iou_thr, or iou_thr[label name]
    for a map from every class name, as ensemble.nms_iou. iou_fn is called
    only on candidate pairs (see :func:`lidarpost.geometry.candidate_columns`),
    as iou_fn(box, kept) in keep order, and must return 0 for boxes whose
    circumscribed circles are disjoint; every other pair has IoU 0, so at a
    threshold of 0 any kept box of the same label suppresses.

    Raises:
        ValueError: before any pair is scored, if a threshold is outside
            [0, 1] or a map misses a class or names an unknown one.
    """
    return _greedy_keep(
        np.array([box.score for box in boxes], dtype=np.float64),
        [box.label for box in boxes],
        candidate_columns(boxes, boxes),
        lambda i, j: iou_fn(boxes[i], boxes[j]),
        iou_thr,
    )


def _class_thresholds(iou_thr: Thresholds) -> Dict[Label, float]:
    """Each class's threshold: iou_thr for all, or iou_thr[class name]."""
    named = iou_thr if isinstance(iou_thr, Mapping) else dict.fromkeys(Label.__members__, iou_thr)
    if named.keys() != Label.__members__.keys():
        raise ValueError(f"iou_thr must map each class name and no other, got {list(named)!r}")
    for name, thr in named.items():
        if not (0.0 <= thr <= 1.0):
            raise ValueError(f"iou_thr must lie in [0, 1], got {thr!r} for {name}")
    return {Label(name): thr for name, thr in named.items()}


def _greedy_keep(
    scores: np.ndarray,
    labels: Sequence[Label],
    candidates: Sequence[Sequence[int]],
    iou_at: Callable[[int, int], float],
    iou_thr: Thresholds,
) -> List[int]:
    """The suppression loop of :func:`nms` and :meth:`PairPool.merge`.

    Visits boxes by descending score and keeps one unless iou_at(box, kept)
    reaches its class's threshold for a kept candidate of its label, asked
    in keep order; at a threshold of 0 any kept box of the same label
    suppresses, without asking.
    """
    thresholds = _class_thresholds(iou_thr)
    # kept_near[i]: kept candidates of box i with its label, in keep order.
    kept_near: List[List[int]] = [[] for _ in labels]
    kept_labels = set()
    kept: List[int] = []
    # A stable sort of the negated scores orders ties by index, as the key (-score, index).
    for i in np.argsort(-scores, kind="stable").tolist():
        label = labels[i]
        thr = thresholds[label]
        if thr == 0.0 and label in kept_labels:
            continue
        if any(iou_at(i, j) >= thr for j in kept_near[i]):
            continue
        kept.append(i)
        kept_labels.add(label)
        for j in candidates[i]:
            if labels[j] is label:
                kept_near[j].append(i)
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
    scores, in descending order. iou_fn(best, other) is called only on
    candidate pairs, others in index order; it must return 0 for boxes whose
    circumscribed circles are disjoint, whose factor exp(-0.0) is 1.0.

    Raises:
        ValueError: unless sigma > 0 and score_floor in [0, 1).
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
    if not (0.0 <= score_floor < 1.0):
        raise ValueError(f"score_floor must lie in [0, 1), got {score_floor!r}")
    scores = np.array([box.score for box in boxes], dtype=np.float64)
    alive = np.ones(len(boxes), dtype=bool)
    candidates = candidate_columns(boxes, boxes)
    floored = set()
    kept: List[Box3D] = []
    while alive.any():
        # argmax takes the first maximum: ties go to the lowest index.
        i = int(np.argmax(np.where(alive, scores, -np.inf)))
        box = boxes[i]
        alive[i] = False
        kept.append(box._with(score=float(scores[i])))
        for j in candidates[i]:
            if alive[j] and boxes[j].label is box.label:
                scores[j] *= math.exp(-iou_fn(box, boxes[j]) ** 2 / sigma)
                if scores[j] < score_floor:
                    alive[j] = False
        # Off the candidate list the decay is exp(-0.0) == 1.0, so those
        # scores only fall under the floor if they started there.
        if box.label not in floored:
            floored.add(box.label)
            for j in np.flatnonzero(alive & (scores < score_floor)).tolist():
                if boxes[j].label is box.label:
                    alive[j] = False
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
    pass through unchanged. iou_fn(original, box) is called only on
    candidate pairs, originals in index order; it must return 0 for boxes
    whose circumscribed circles are disjoint.

    Raises:
        ValueError: unless iou_thr in (0, 1].
    """
    if not (0.0 < iou_thr <= 1.0):
        raise ValueError(f"iou_thr must lie in (0, 1], got {iou_thr!r}")
    out: List[Box3D] = []
    for box, js in zip(nms_boxes, candidate_columns(nms_boxes, original_boxes)):
        voters = [
            o
            for o in (original_boxes[j] for j in js)
            if o.label is box.label and iou_fn(o, box) > iou_thr
        ]
        if not voters:
            out.append(box)
            continue
        n = len(voters)
        # Added to 0.0 left to right: Python 3.12's sum compensates, which
        # can change the last bit.
        out.append(
            replace(
                box,
                cx=reduce(add, (o.cx for o in voters), 0.0) / n,
                cy=reduce(add, (o.cy for o in voters), 0.0) / n,
                cz=reduce(add, (o.cz for o in voters), 0.0) / n,
                length=reduce(add, (o.length for o in voters), 0.0) / n,
                width=reduce(add, (o.width for o in voters), 0.0) / n,
                height=reduce(add, (o.height for o in voters), 0.0) / n,
            )
        )
    return out


def merge_sources(sets: Sequence[DetectionSet]) -> DetectionSet:
    """Concatenate detector outputs for one frame, stamping box source ids.

    Boxes keep their within-source order; each box without a source_id gets
    its set's tag, and one that has a source_id keeps it. The merged set
    inherits frame_id, timestamp, and source_id from the first input.

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
    boxes = [b if b.source_id is not None else b._with(source_id=s.source_id)
             for s in sets for b in s.boxes]
    return DetectionSet(frame_id, boxes, sets[0].source_id, sets[0].timestamp)


class PairPool:
    """Two detectors' boxes for one frame, pooled once for any number of merges.

    The pool stamps source ids (see :func:`merge_sources`), finds candidate
    pairs and keeps every iou_fn value it computes, keyed by the ordered
    pair (later box, kept box), since IoU need not be bit-symmetric. None of
    that depends on the weights, so a weight search builds one pool per
    frame and each :meth:`merge` only reweights, reorders and suppresses.
    iou_fn must return 0 for boxes whose circumscribed circles are disjoint,
    as :func:`nms` requires.

    Raises:
        ValueError: if the frame ids of a and b differ.
    """

    def __init__(self, a: DetectionSet, b: DetectionSet, iou_fn: IouFn = bev_iou) -> None:
        self._merged = merge_sources([a, b])
        self._boxes = boxes = self._merged.boxes
        self._split = len(a)
        self._scores = np.array([box.score for box in boxes], dtype=np.float64)
        self._labels = [box.label for box in boxes]
        self._candidates = candidate_columns(boxes, boxes)
        self._iou_fn = iou_fn
        self._iou: Dict[Tuple[int, int], float] = {}

    def _iou_at(self, i: int, j: int) -> float:
        value = self._iou.get((i, j))
        if value is None:
            value = self._iou[i, j] = self._iou_fn(self._boxes[i], self._boxes[j])
        return value

    def merge(self, w_a: float, w_b: float, iou_thr: float) -> DetectionSet:
        """Scale the scores of a by w_a and of b by w_b, then run NMS at iou_thr.

        Returns the kept boxes with their weighted scores, in keep order,
        exactly as :func:`ensemble_pair` does.

        Raises:
            ValueError: unless both weights lie in (0, 1] and iou_thr in [0, 1].
        """
        for name, w in (("w_a", w_a), ("w_b", w_b)):
            if not (0.0 < w <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1], got {w!r}")
        weights = np.full(len(self._scores), float(w_b))
        weights[: self._split] = w_a
        # One IEEE product per box, as score * w.
        scores = self._scores * weights
        keep = _greedy_keep(scores, self._labels, self._candidates, self._iou_at, iou_thr)
        return replace(
            self._merged, boxes=[self._boxes[i]._with(score=float(scores[i])) for i in keep]
        )


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
    iou_fn must return 0 for boxes whose circumscribed circles are disjoint,
    as :func:`nms` requires. To merge one frame at many weights, build one
    :class:`PairPool` and call its merge for each.

    Raises:
        ValueError: unless both weights lie in (0, 1].
    """
    return PairPool(a, b, iou_fn).merge(w_a, w_b, iou_thr)

