"""Anchor-to-ground-truth target assignment.

Two schemes: a fixed dual-threshold baseline with a best-anchor rescue rule,
and an adaptive scheme that derives a per-ground-truth positive threshold
from the IoU statistics of its nearest candidate anchors. All ties break
toward the lowest index so assignments are fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import List, Optional, Sequence

import numpy as np

from .geometry import Box3D, bev_iou, iou_matrix
from .schema import COUNT, UNIT, Section, check, setting

DEFAULT_K = 9
DEFAULT_POS_THR = 0.6
DEFAULT_NEG_THR = 0.45


@dataclass(frozen=True)
class AssignerConfig(Section):
    """adaptive_assign's k, and fixed_assign's thresholds, neg_thr <= pos_thr."""

    k: int = setting(COUNT, default=DEFAULT_K)
    pos_thr: float = setting(UNIT, default=DEFAULT_POS_THR)
    neg_thr: float = setting(UNIT, default=DEFAULT_NEG_THR)
    ORDER = (("neg_thr", "pos_thr", False),)


class AnchorLabel(Enum):
    POSITIVE = "POSITIVE"
    NEGATIVE = "NEGATIVE"
    IGNORED = "IGNORED"


@dataclass
class AssignmentResult:
    """Per-anchor labels plus, for positives, the ground truth they serve.

    adaptive_thresholds is populated by the adaptive scheme only: one
    threshold per ground truth, in input order.
    """

    labels: List[AnchorLabel]
    gt_indices: List[Optional[int]]
    adaptive_thresholds: Optional[List[float]] = None

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.gt_indices):
            raise ValueError("labels and gt_indices must have equal length")
        # The member is read once: a read per anchor makes this check 4x slower.
        positive = AnchorLabel.POSITIVE
        has_gt = [gt is not None for gt in self.gt_indices]
        if [label is positive for label in self.labels] != has_gt:
            raise ValueError("gt_indices must be set exactly for POSITIVE anchors")


def fixed_assign(
    anchors: Sequence[Box3D],
    gts: Sequence[Box3D],
    pos_thr: float = DEFAULT_POS_THR,
    neg_thr: float = DEFAULT_NEG_THR,
) -> AssignmentResult:
    """Dual-threshold assignment on footprint IoU.

    An anchor is POSITIVE when its best IoU over ground truths reaches
    pos_thr (assigned to the argmax, ties to the lowest gt index), NEGATIVE
    below neg_thr, IGNORED in between. Each ground truth additionally forces
    its best-IoU anchor POSITIVE when that IoU is > 0, so no object goes
    unclaimed; later ground truths win when they contest the same anchor.

    Raises:
        ValueError: unless 0 <= neg_thr <= pos_thr <= 1, by AssignerConfig's checks.
    """
    AssignerConfig(pos_thr=pos_thr, neg_thr=neg_thr)
    n = len(anchors)
    labels = [AnchorLabel.NEGATIVE] * n
    gt_indices: List[Optional[int]] = [None] * n
    if not anchors or not gts:
        return AssignmentResult(labels, gt_indices)

    iou = iou_matrix(anchors, gts, bev_iou)

    for i in range(n):
        best_j = int(np.argmax(iou[i]))  # argmax takes the first (lowest) index
        best = iou[i, best_j]
        if best >= pos_thr:
            labels[i] = AnchorLabel.POSITIVE
            gt_indices[i] = best_j
        elif best < neg_thr:
            labels[i] = AnchorLabel.NEGATIVE
        else:
            labels[i] = AnchorLabel.IGNORED

    for j in range(len(gts)):
        best_i = int(np.argmax(iou[:, j]))
        if iou[best_i, j] > 0.0:
            labels[best_i] = AnchorLabel.POSITIVE
            gt_indices[best_i] = j
    return AssignmentResult(labels, gt_indices)


def _nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest distances, nearest first, ties to the lower
    index: ``np.argsort(dist, kind="stable")[:k]``, sorting only the
    distances at or below the k-th smallest."""
    if k >= len(dist):
        return np.argsort(dist, kind="stable")
    near = np.flatnonzero(dist <= np.partition(dist, k - 1)[k - 1])
    return near[np.argsort(dist[near], kind="stable")[:k]]


def adaptive_assign(
    anchors: Sequence[Box3D], gts: Sequence[Box3D], k: int = DEFAULT_K
) -> AssignmentResult:
    """Per-ground-truth adaptive threshold assignment.

    For each ground truth the k anchors nearest by footprint-center distance
    are candidates; the positive threshold is the mean plus the population
    standard deviation of their IoUs. A candidate is positive when its IoU
    reaches that threshold and its center lies inside the ground-truth
    footprint. Anchors positive for several ground truths go to the one with
    the highest IoU (ties to the lowest gt index); everything else is
    NEGATIVE.

    Raises:
        ValueError: if anchors is empty or k < 1.
    """
    check("k", k, COUNT)
    if not anchors:
        raise ValueError("anchors must be non-empty")
    n = len(anchors)
    labels = [AnchorLabel.NEGATIVE] * n
    gt_indices: List[Optional[int]] = [None] * n
    if not gts:
        return AssignmentResult(labels, gt_indices, adaptive_thresholds=[])

    xs = np.fromiter(map(attrgetter("cx"), anchors), np.float64, n)
    ys = np.fromiter(map(attrgetter("cy"), anchors), np.float64, n)
    thresholds: List[float] = []
    best_iou = [-1.0] * n
    for j, gt in enumerate(gts):
        dist = np.hypot(xs - gt.cx, ys - gt.cy)
        candidates = _nearest(dist, k)
        ious = iou_matrix([anchors[int(i)] for i in candidates], [gt], bev_iou)[:, 0]
        threshold = float(ious.mean() + ious.std())
        thresholds.append(threshold)
        for i, value in zip(candidates, ious):
            i = int(i)
            if value >= threshold and gt.contains_bev(anchors[i].cx, anchors[i].cy):
                if value > best_iou[i]:  # ties keep the earlier (lower) gt index
                    best_iou[i] = float(value)
                    labels[i] = AnchorLabel.POSITIVE
                    gt_indices[i] = j
    return AssignmentResult(labels, gt_indices, adaptive_thresholds=thresholds)
