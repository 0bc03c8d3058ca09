"""Detection merging and suppression.

Greedy NMS, score-decaying soft-NMS, box voting (averaging the pool of
originals that overlap each surviving box), and pairwise score-weighted
detector merging at any weight; the ensemble command searches a weight
grid with it. Suppression is always class-wise: boxes of different labels
never interact.

A weight search merges the same two detectors once per grid weight. Only
the scores and so the keep order depend on the weight: :class:`PairPool`
pools a frame's boxes, finds their same-label neighbours and keeps each
overlap it scores, once for all weights, and a merge returns pool indices,
so only the merge that is kept is built as boxes. :func:`nms` and the pool
share one suppression loop, which marks the neighbours each kept box
suppresses, as OpenPCDet's ``nms_kernel`` does.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from functools import reduce
from operator import add, attrgetter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .geometry import (BOX_DOMAINS, Box3D, DetectionSet, Label, bev_iou, candidate_pairs,
                       overlap_kind, pair_overlaps, score_order)
from .schema import POSITIVE, UNIT, UNIT_ABOVE_0, UNIT_BELOW_1, Range, Section, check, setting

IouFn = Callable[[Box3D, Box3D], float]
Thresholds = Union[float, Mapping[str, float]]

DEFAULT_NMS_IOU = {"VEHICLE": 0.7, "PEDESTRIAN": 0.5, "CYCLIST": 0.5}
DEFAULT_VOTE_IOU = 0.55
DEFAULT_SOFT_NMS_SIGMA = 0.5
DEFAULT_SOFT_NMS_FLOOR = 0.001


@dataclass(frozen=True)
class EnsembleConfig(Section):
    """The box filters' thresholds, nms_iou by class name as :func:`nms` takes
    it, and the ensemble command's weight search: the weights it tries, and
    the least gain in AP for which it keeps a detector."""

    nms_iou: Dict[str, float] = setting(UNIT, default_factory=lambda: dict(DEFAULT_NMS_IOU))
    vote_iou: float = setting(UNIT_ABOVE_0, default=DEFAULT_VOTE_IOU)
    soft_nms_sigma: float = setting(POSITIVE, default=DEFAULT_SOFT_NMS_SIGMA)
    soft_nms_score_floor: float = setting(UNIT_BELOW_1, default=DEFAULT_SOFT_NMS_FLOOR)
    weight_grid: List[float] = setting(
        UNIT_ABOVE_0, default_factory=lambda: [round(0.1 * i, 1) for i in range(1, 11)])
    # Any number works; only NaN, which JSON parsing lets in, is refused.
    stop_delta: float = setting(Range(-math.inf, math.inf), default=0.001)


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
    neighbours = candidate_pairs(boxes, boxes, same_label=True)
    return _greedy_keep(
        np.array([box.score for box in boxes], dtype=np.float64),
        [box.label for box in boxes],
        neighbours,
        [None] * len(neighbours[1]),
        lambda j, i: iou_fn(boxes[j], boxes[i]),
        iou_thr,
    )


def _class_thresholds(iou_thr: Thresholds) -> Dict[Label, float]:
    """Each class's threshold: iou_thr for all, or iou_thr[class name]."""
    named = iou_thr if isinstance(iou_thr, Mapping) else dict.fromkeys(Label.__members__, iou_thr)
    if named.keys() != Label.__members__.keys():
        raise ValueError(f"iou_thr must map each class name and no other, got {list(named)!r}")
    for name, thr in named.items():
        check(f"iou_thr for {name}", thr, UNIT)
    return {Label(name): thr for name, thr in named.items()}


def _greedy_keep(
    scores: np.ndarray,
    labels: Sequence[Label],
    neighbours: Tuple[List[int], List[int]],
    ious: List[Optional[float]],
    iou_of: Callable[[int, int], float],
    iou_thr: Thresholds,
) -> List[int]:
    """The suppression loop of :func:`nms` and :meth:`PairPool.keep`.

    Visits boxes in :func:`score_order` and keeps each one not yet suppressed.
    A kept box i suppresses each unvisited neighbour j, its same-label
    candidates as CSR pointers and indices of
    :func:`lidarpost.geometry.candidate_pairs`, whose IoU with it reaches
    its class's threshold: so a box is asked against the kept boxes near it
    in keep order until one suppresses it. The IoU of (j, i) at CSR position
    p is ious[p], or iou_of(j, i) kept there if it is None. At a threshold
    of 0 any kept box of the same label suppresses, without asking.
    """
    thresholds = _class_thresholds(iou_thr)
    pointers, indices = neighbours
    # done[i]: box i was visited or suppressed; visits follow the order, so
    # a neighbour not done comes later and is not suppressed.
    done = [False] * len(labels)
    kept_labels = set()
    kept: List[int] = []
    for i in score_order(scores):
        if done[i]:
            continue
        done[i] = True
        label = labels[i]
        thr = thresholds[label]
        if thr == 0.0:
            if label not in kept_labels:
                kept_labels.add(label)
                kept.append(i)
            continue
        kept.append(i)
        for p in range(pointers[i], pointers[i + 1]):
            j = indices[p]
            if not done[j]:
                iou = ious[p]
                if iou is None:
                    iou = ious[p] = iou_of(j, i)
                if iou >= thr:
                    done[j] = True
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
    check("sigma", sigma, POSITIVE)
    check("score_floor", score_floor, UNIT_BELOW_1)
    scores = [box.score for box in boxes]
    alive = [True] * len(boxes)
    pointers, indices = candidate_pairs(boxes, boxes, same_label=True)
    # Entries (-score, index) pop as np.argmax's first maximum, ties to the lower index.
    # keys[i] is box i's latest key; -inf for a NaN score (from a NaN IoU), argmax's maximum.
    keys = [-score for score in scores]
    heap = list(zip(keys, range(len(boxes))))
    heapq.heapify(heap)
    low = [i for i, score in enumerate(scores) if score < score_floor]
    floored = set()
    kept: List[Box3D] = []
    while heap:
        key, i = heapq.heappop(heap)
        # A dead box's entry, or one of a score since decayed, is stale.
        if not alive[i] or key != keys[i]:
            continue
        box = boxes[i]
        alive[i] = False
        kept.append(box._with(score=scores[i]))
        for p in range(pointers[i], pointers[i + 1]):
            j = indices[p]
            if alive[j]:
                score = scores[j] * math.exp(-iou_fn(box, boxes[j]) ** 2 / sigma)
                if score < score_floor:
                    alive[j] = False
                elif score != scores[j]:
                    keys[j] = -score if score == score else -math.inf
                    heapq.heappush(heap, (keys[j], j))
                scores[j] = score
        # Off the candidate list the decay is exp(-0.0) == 1.0, so those
        # scores only fall under the floor if they started there.
        if box.label not in floored:
            floored.add(box.label)
            for j in low:
                if alive[j] and boxes[j].label is box.label and scores[j] < score_floor:
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
    pass through unchanged. For bev_iou and iou3d the overlaps of every
    same-label candidate pair, the originals as the first argument, come
    from one :func:`lidarpost.geometry.pair_overlaps` call. Any other
    iou_fn(original, box) is called only on candidate pairs, box by box,
    originals in index order; it must return 0 for boxes whose
    circumscribed circles are disjoint.

    Raises:
        ValueError: unless iou_thr in (0, 1]; if a mean leaves its field's
            domain, as a box checks it.
    """
    check("iou_thr", iou_thr, UNIT_ABOVE_0)
    pointers, indices = candidate_pairs(nms_boxes, original_boxes, same_label=True)
    kind = overlap_kind(iou_fn)
    if kind is not None:
        survivors = np.repeat(np.arange(len(nms_boxes)), np.diff(pointers))
        values = pair_overlaps(original_boxes, nms_boxes, indices, survivors, kind).tolist()
    out: List[Box3D] = []
    for i, box in enumerate(nms_boxes):
        voters = [original_boxes[indices[p]] for p in range(pointers[i], pointers[i + 1])
                  if (values[p] if kind else iou_fn(original_boxes[indices[p]], box)) > iou_thr]
        if not voters:
            out.append(box)
            continue
        n = len(voters)
        # Added to 0.0 left to right: Python 3.12's sum compensates, which
        # can change the last bit.
        means = {name: reduce(add, map(attrgetter(name), voters), 0.0) / n
                 for name in _VOTED}
        # A mean of valid numbers leaves its domain only by overflowing to inf.
        for name, value in means.items():
            BOX_DOMAINS[name].check(name, value)
        out.append(box._with(**means))
    return out


# The fields box_vote averages, in the order a box checks them.
_VOTED = ("cx", "cy", "cz", "length", "width", "height")


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

    The pool stamps source ids (see :func:`merge_sources`) on its boxes,
    finds each box's same-label neighbours as CSR, and keeps every iou_fn
    value it computes at the CSR position of the kept box's row and the
    later box's column: one value per ordered pair (later box, kept box),
    since IoU need not be bit-symmetric. None of that depends on the
    weights, so a weight search builds one pool per frame; each :meth:`keep` only
    reweights, reorders and suppresses, and :meth:`build` makes the boxes
    of the one merge that is kept. iou_fn must return 0 for boxes whose
    circumscribed circles are disjoint, as :func:`nms` requires.

    Raises:
        ValueError: if the frame ids of a and b differ.
    """

    def __init__(self, a: DetectionSet, b: DetectionSet, iou_fn: IouFn = bev_iou) -> None:
        #: Both sets' boxes in one set, a's then b's, as keep and build index them.
        self.pooled = merge_sources([a, b])
        boxes = self.pooled.boxes
        self._split = len(a)
        self._scores = np.array([box.score for box in boxes], dtype=np.float64)
        self._labels = [box.label for box in boxes]
        self._neighbours = candidate_pairs(boxes, boxes, same_label=True)
        self._iou_of = lambda j, i: iou_fn(boxes[j], boxes[i])
        # None until scored: an iou_fn may return NaN, so no float can mark it.
        self._iou: List[Optional[float]] = [None] * len(self._neighbours[1])

    def keep(self, w_a: float, w_b: float, iou_thr: Thresholds) -> Tuple[List[int], List[float]]:
        """Scale the scores of a by w_a and of b by w_b, then run NMS at iou_thr.

        iou_thr is one threshold or a map from every class name, as for
        :func:`nms`. Returns the kept pool indices in keep order, and the
        weighted score of every pooled box.

        Raises:
            ValueError: unless both weights lie in (0, 1], or as :func:`nms` does.
        """
        check("w_a", w_a, UNIT_ABOVE_0)
        check("w_b", w_b, UNIT_ABOVE_0)
        weights = np.full(len(self._scores), float(w_b))
        weights[: self._split] = w_a
        # One IEEE product per box, as score * w.
        scores = self._scores * weights
        return _greedy_keep(scores, self._labels, self._neighbours, self._iou, self._iou_of,
                            iou_thr), scores.tolist()

    def build(self, kept: Sequence[int], scores: Sequence[float]) -> DetectionSet:
        """The merged set of a :meth:`keep` result: the kept boxes, in keep
        order, with their weighted scores."""
        boxes = self.pooled.boxes
        return replace(self.pooled, boxes=[boxes[i]._with(score=scores[i]) for i in kept])

    def merge(self, w_a: float, w_b: float, iou_thr: Thresholds) -> DetectionSet:
        """The boxes that :meth:`keep` keeps, built: exactly those of
        :func:`ensemble_pair`. Raises as keep does."""
        return self.build(*self.keep(w_a, w_b, iou_thr))


def ensemble_pair(
    a: DetectionSet,
    b: DetectionSet,
    w_a: float,
    w_b: float,
    iou_thr: Thresholds,
    iou_fn: IouFn = bev_iou,
) -> DetectionSet:
    """Merge two detectors into one: weight scores, pool, suppress.

    Scores of a are scaled by w_a and of b by w_b (the products stay in
    [0, 1]), the pools are concatenated, and NMS at iou_thr (one threshold
    or a map from every class name, as for :func:`nms`) resolves duplicates.
    The result acts as a single detector for further pairing. iou_fn must
    return 0 for boxes whose circumscribed circles are disjoint, as
    :func:`nms` requires. To merge one frame at many weights, build one
    :class:`PairPool` and call its merge for each.

    Raises:
        ValueError: unless both weights lie in (0, 1], or as :func:`nms` does.
    """
    return PairPool(a, b, iou_fn).merge(w_a, w_b, iou_thr)

