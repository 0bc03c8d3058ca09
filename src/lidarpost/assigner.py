"""Anchor-to-ground-truth target assignment.

Two schemes: a fixed dual-threshold baseline with a best-anchor rescue rule,
and an adaptive scheme that derives a per-ground-truth positive threshold
from the IoU statistics of its nearest candidate anchors. All ties break
toward the lowest index so assignments are fully deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

import numpy as np

from .geometry import as_geometry, overlaps, pair_overlaps
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


def fixed_assign(anchors, gts, pos_thr: float = DEFAULT_POS_THR,
                 neg_thr: float = DEFAULT_NEG_THR) -> AssignmentResult:
    """Dual-threshold assignment on footprint IoU.

    An anchor is POSITIVE when its best IoU over ground truths reaches
    pos_thr (assigned to the argmax, ties to the lowest gt index), NEGATIVE
    below neg_thr, IGNORED in between. Each ground truth additionally forces
    its best-IoU anchor POSITIVE when that IoU is > 0, so no object goes
    unclaimed; later ground truths win when they contest the same anchor.
    anchors and gts are Box3D sequences or (n, 7) arrays of
    :func:`lidarpost.geometry.as_geometry`.

    Raises:
        ValueError: unless 0 <= neg_thr <= pos_thr <= 1, by AssignerConfig's checks.
    """
    AssignerConfig(pos_thr=pos_thr, neg_thr=neg_thr)
    anchors, gts = as_geometry(anchors), as_geometry(gts)
    n = len(anchors)
    labels = [AnchorLabel.NEGATIVE] * n
    gt_indices: List[Optional[int]] = [None] * n
    if not n or not len(gts):
        return AssignmentResult(labels, gt_indices)

    iou = overlaps(anchors, gts, "bev")
    best_j = iou.argmax(axis=1)  # argmax takes the first (lowest) index
    best = iou[np.arange(n), best_j]
    positive = best >= pos_thr
    for i in np.flatnonzero(positive).tolist():
        labels[i] = AnchorLabel.POSITIVE
        gt_indices[i] = int(best_j[i])
    for i in np.flatnonzero(~positive & ~(best < neg_thr)).tolist():
        labels[i] = AnchorLabel.IGNORED

    for j, i in enumerate(iou.argmax(axis=0).tolist()):
        if iou[i, j] > 0.0:
            labels[i] = AnchorLabel.POSITIVE
            gt_indices[i] = j
    return AssignmentResult(labels, gt_indices)


def _nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest distances, nearest first, ties to the lower
    index: ``np.argsort(dist, kind="stable")[:k]``, sorting only the
    distances at or below the k-th smallest."""
    if k >= len(dist):
        return np.argsort(dist, kind="stable")
    near = np.flatnonzero(dist <= np.partition(dist, k - 1)[k - 1])
    return near[np.argsort(dist[near], kind="stable")[:k]]


# A window's k-th distance must lie below its bound by this factor, which
# covers a few ulps of np.hypot's rounding.
_HYPOT_SLACK = 1.0 - 2.0 ** -50


def _windowed_nearest(xs: np.ndarray, ys: np.ndarray, order: np.ndarray, sorted_x: np.ndarray,
                      gx: float, gy: float, k: int, r: float) -> np.ndarray:
    """``_nearest(np.hypot(xs - gx, ys - gy), k)``, scoring only a window of
    the anchors, whose indices in ascending x are order, at x sorted_x.

    The window holds the anchors whose x lies in [gx - r, gx + r] and whose
    dy = ys - gy has |dy| <= r. An anchor outside it has |dx| or |dy| above
    the bound, the least |dx| of the anchors just outside in x or r, and so
    a distance at least that, since a hypot is no less than either leg. So
    once the window's k-th distance lies below the bound by _HYPOT_SLACK,
    no anchor outside is as near, and the window's stable selection, in
    index order, is the full one. Otherwise r doubles, up to a full scan.
    """
    n = len(xs)
    while 0.0 < r < math.inf:
        lo = int(sorted_x.searchsorted(gx - r, "left"))
        hi = int(sorted_x.searchsorted(gx + r, "right"))
        if lo == 0 and hi == n:
            break  # every anchor lies in the window's x-range: scan them all
        if hi - lo >= k:
            idx = np.sort(order[lo:hi])
            dy = ys[idx] - gy
            near = np.abs(dy) <= r
            if np.count_nonzero(near) >= k:
                idx = idx[near]
                dist = np.hypot(xs[idx] - gx, dy[near])
                pick = _nearest(dist, k)
                bound = min(r, gx - sorted_x[lo - 1] if lo else math.inf,
                            sorted_x[hi] - gx if hi < n else math.inf)
                if dist[pick[-1]] < bound * _HYPOT_SLACK:
                    return idx[pick]
        r *= 2.0
    return _nearest(np.hypot(xs - gx, ys - gy), k)


def _nearest_anchors(anchors: np.ndarray, gts: np.ndarray, k: int) -> np.ndarray:
    """(len(gts), min(k, n)) indices: each ground truth's k anchors nearest
    by footprint-center distance ``np.hypot(xs - gx, ys - gy)``, nearest
    first, ties to the lower index, as the first k of a stable argsort of
    all n distances. The anchors are sorted by x once, and each ground
    truth starts from a window expected to hold about 4k anchors."""
    xs, ys = anchors[:, 0], anchors[:, 1]
    n = len(xs)
    order = np.argsort(xs, kind="stable")
    sorted_x = xs[order]
    with np.errstate(over="ignore"):  # spans of huge coordinates overflow to inf
        r = float(max(sorted_x[-1] - sorted_x[0], ys.max() - ys.min())) * math.sqrt(k / n)
    nearest = np.empty((len(gts), min(k, n)), dtype=np.intp)
    for row, (gx, gy) in enumerate(gts[:, :2].tolist()):
        nearest[row] = (_windowed_nearest(xs, ys, order, sorted_x, gx, gy, k, r) if k < n
                        else _nearest(np.hypot(xs - gx, ys - gy), k))
    return nearest


def _inside(gts: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Whether the points (x[j], y[j]) lie inside ground truth j's
    footprint: :meth:`Box3D.contains_bev` with the same IEEE operations."""
    headings = gts[:, 6].tolist()
    c = np.fromiter(map(math.cos, headings), np.float64, len(headings))[:, None]
    s = np.fromiter(map(math.sin, headings), np.float64, len(headings))[:, None]
    with np.errstate(all="ignore"):  # huge coordinates: inf and NaN, silent as in floats
        dx = x - gts[:, 0:1]
        dy = y - gts[:, 1:2]
        local_x = c * dx + s * dy
        local_y = -s * dx + c * dy
        return (np.abs(local_x) <= 0.5 * gts[:, 3:4]) & (np.abs(local_y) <= 0.5 * gts[:, 4:5])


def adaptive_assign(anchors, gts, k: int = DEFAULT_K) -> AssignmentResult:
    """Per-ground-truth adaptive threshold assignment.

    For each ground truth the k anchors nearest by footprint-center distance
    are candidates; the positive threshold is the mean plus the population
    standard deviation of their IoUs. A candidate is positive when its IoU
    reaches that threshold and its center lies inside the ground-truth
    footprint. Anchors positive for several ground truths go to the one with
    the highest IoU (ties to the lowest gt index); everything else is
    NEGATIVE. anchors and gts are Box3D sequences or (n, 7) arrays of
    :func:`lidarpost.geometry.as_geometry`.

    Raises:
        ValueError: if anchors is empty or k < 1.
    """
    check("k", k, COUNT)
    anchors, gts = as_geometry(anchors), as_geometry(gts)
    n = len(anchors)
    if not n:
        raise ValueError("anchors must be non-empty")
    labels = [AnchorLabel.NEGATIVE] * n
    gt_indices: List[Optional[int]] = [None] * n
    if not len(gts):
        return AssignmentResult(labels, gt_indices, adaptive_thresholds=[])

    nearest = _nearest_anchors(anchors, gts, k)
    m, kk = nearest.shape
    candidates = anchors[nearest.ravel()]
    # One kernel call scores every ground truth's candidates, row j's against gt j.
    ious = pair_overlaps(candidates, gts, np.arange(m * kk), np.repeat(np.arange(m), kk),
                         "bev").reshape(m, kk)
    thresholds = ious.mean(axis=1) + ious.std(axis=1)
    positive = (ious >= thresholds[:, None]) & _inside(
        gts, candidates[:, 0].reshape(m, kk), candidates[:, 1].reshape(m, kk))
    best_iou = [-1.0] * n
    for j, p in zip(*(axis.tolist() for axis in np.nonzero(positive))):
        i = int(nearest[j, p])
        value = float(ious[j, p])
        if value > best_iou[i]:  # ties keep the earlier (lower) gt index
            best_iou[i] = value
            labels[i] = AnchorLabel.POSITIVE
            gt_indices[i] = j
    return AssignmentResult(labels, gt_indices, adaptive_thresholds=thresholds.tolist())
