"""Detection and tracking evaluation.

Detection quality is scored with average precision over the all-point
precision-recall envelope, plus a heading-aware variant that discounts each
true positive by its heading accuracy. Matching writes a frame as a
:class:`MatchLedger`, columns with one row per detection, visiting detections
in :func:`lidarpost.geometry.score_order`, the one ranking by score, as the
curve does when it ranks the rows. Tracking quality follows the CLEAR-MOT
scheme: frame-by-frame matching with carried-over correspondences, the rest
matched by :func:`lidarpost.matching.hungarian` on 1 - IoU, yielding MOTA
(accuracy) and MOTP (mean matched-pair dissimilarity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .geometry import Box3D, Label, candidate_columns, heading_error, iou3d, iou_matrix, score_order
from .matching import hungarian
from .schema import NON_NEGATIVE, UNIT_ABOVE_0, Section, check, setting

DEFAULT_IOU_THRESHOLDS = {
    Label.VEHICLE: 0.7,
    Label.PEDESTRIAN: 0.5,
    Label.CYCLIST: 0.5,
}


class Difficulty(Enum):
    L1 = "L1"
    L2 = "L2"


@dataclass(frozen=True)
class MetricsConfig(Section):
    """Each class name's IoU threshold for a match, and the difficulty level
    (a :class:`Difficulty` value) that detection scoring cuts ground truth to."""

    iou_thr: Dict[str, float] = setting(UNIT_ABOVE_0, default_factory=lambda: {
        label.value: thr for label, thr in DEFAULT_IOU_THRESHOLDS.items()})
    difficulty: str = setting(tuple(level.value for level in Difficulty),
                              default=Difficulty.L2.value)


@dataclass
class MatchLedger:
    """One frame's matching result as columns, a row per scored detection in match order
    (score, matched gt index or None for a false positive, heading weight); per-gt coverage."""

    scores: List[float]
    gt_index: List[Optional[int]]
    heading_weight: List[float]
    gt_matched: List[bool]

    @property
    def gt_count(self) -> int:
        return len(self.gt_matched)


def match_frame(
    dets: Sequence[Box3D],
    gts: Sequence[Box3D],
    iou_thr: float,
    iou_fn=iou3d,
) -> MatchLedger:
    """Greedily match one frame's detections to ground truths.

    Detections are processed by descending score (ties by index); each takes
    the still-unmatched ground truth with the highest IoU at or above
    iou_thr (ties to the lowest gt index) as a true positive, recording the
    heading accuracy max(0, 1 - error/pi); otherwise it is a false positive.
    iou_fn(det, gt) is called only on candidate pairs, ground truths in index
    order; it must return 0 for boxes whose circumscribed circles are
    disjoint.

    Raises:
        ValueError: unless iou_thr in (0, 1].
    """
    scores = [det.score for det in dets]
    return FrameMatcher(dets, gts, iou_thr, iou_fn).match(score_order(scores), scores)


class FrameMatcher:
    """One frame's detections and ground truths, matched as by :func:`match_frame`
    in any order and at any scores. Candidate pairs are found once, and each
    iou_fn(dets[i], gts[j]) is computed once over all matches.

    Raises:
        ValueError: unless iou_thr in (0, 1].
    """

    def __init__(self, dets: Sequence[Box3D], gts: Sequence[Box3D], iou_thr: float,
                 iou_fn=iou3d) -> None:
        check("iou_thr", iou_thr, UNIT_ABOVE_0)
        self._dets, self._gts, self._iou_thr, self._iou_fn = dets, gts, iou_thr, iou_fn
        self._candidates = candidate_columns(dets, gts)
        self._iou: Dict[Tuple[int, int], float] = {}

    def match(self, order: Iterable[int], scores: Sequence[float]) -> MatchLedger:
        """Match dets[i], scored scores[i], for each i of order in turn; the
        ledger's rows come in that order."""
        gts = self._gts
        ledger = MatchLedger([], [], [], [False] * len(gts))
        for i in order:
            best_j = None
            best_iou = 0.0
            for j in self._candidates[i]:
                if ledger.gt_matched[j]:
                    continue
                value = self._iou.get((i, j))
                if value is None:
                    value = self._iou[i, j] = self._iou_fn(self._dets[i], gts[j])
                if value >= self._iou_thr and value > best_iou:
                    best_iou = value
                    best_j = j
            ledger.scores.append(scores[i])
            ledger.gt_index.append(best_j)
            if best_j is None:
                ledger.heading_weight.append(0.0)
                continue
            ledger.gt_matched[best_j] = True
            error = heading_error(self._dets[i].heading, gts[best_j].heading)
            ledger.heading_weight.append(max(0.0, 1.0 - error / math.pi))
        return ledger


class PrPoint(NamedTuple):
    recall: float
    precision: float
    heading_precision: float


def _curve(ledgers: Iterable[MatchLedger], gt_count: int) -> Tuple[np.ndarray, ...]:
    """The recall, precision and heading-precision columns of :func:`pr_points`:
    one entry per row of ledgers, ranked by :func:`score_order`."""
    check("gt_count", gt_count, NON_NEGATIVE)
    ledgers = list(ledgers)
    order = score_order([score for ledger in ledgers for score in ledger.scores])
    matched = np.array([j is not None for ledger in ledgers for j in ledger.gt_index], dtype=bool)
    weights = np.array([w for ledger in ledgers for w in ledger.heading_weight], dtype=np.float64)
    ranks = np.arange(1, len(order) + 1)
    # Integer counts: int64 / int64 rounds as Python's int / int does.
    tp = np.cumsum(matched[order], dtype=np.int64)
    precision = tp / ranks
    recall = tp / gt_count if gt_count > 0 else np.zeros(len(order))
    # A false positive adds 0.0, whatever its weight. A running sum that
    # starts at a -0.0 keeps it; plus 0.0 it is a loop's from 0.0.
    heading = (np.cumsum(np.where(matched, weights, 0.0)[order]) + 0.0) / ranks
    return recall, precision, np.minimum(heading, precision)


def pr_points(ledgers: Iterable[MatchLedger], gt_count: int) -> List[PrPoint]:
    """Cumulative precision-recall points over all frames, by descending score.

    heading_precision replaces the true-positive count with the sum of
    heading weights in the precision numerator, clipped to the unweighted
    precision. A negative gt_count raises ValueError.
    """
    return list(map(PrPoint, *(column.tolist() for column in _curve(ledgers, gt_count))))


def average_precision(
    ledgers: Iterable[MatchLedger], gt_count: int
) -> Tuple[float, float]:
    """All-point interpolated AP and its heading-weighted variant APH.

    Precision is replaced by its running maximum from the right, then
    integrated over recall. APH integrates the heading-weighted precision
    over the same recall grid, so APH <= AP always. With no ground truth the
    pair is (1, 1) when there are no detections and (0, 0) otherwise. A
    negative gt_count raises ValueError.
    """
    recall, precision, heading = _curve(ledgers, gt_count)
    if not len(recall):
        return (1.0, 1.0) if gt_count == 0 else (0.0, 0.0)
    # The envelopes: each row's running maximum from the right, from 0.0.
    rows = np.zeros((2, len(recall) + 1))
    rows[:, 1:] = precision[::-1], heading[::-1]
    envelopes = np.maximum.accumulate(rows, axis=1)[:, :0:-1]
    # With no ground truth every recall step is 0, and so are both sums. Each
    # sum adds its terms in rank order, as a loop does, where np.sum adds pairwise.
    ap, aph = np.cumsum(np.diff(recall, prepend=0.0) * envelopes, axis=1)[:, -1] + 0.0
    return float(ap), float(aph)


def effective_difficulty(gt: Box3D) -> int:
    """Difficulty label with fallbacks: sparse boxes (<= 5 points) are level 2."""
    if gt.difficulty is not None:
        return gt.difficulty
    if gt.num_points is not None:
        return 2 if gt.num_points <= 5 else 1
    return 1


def split_difficulty(gts: Sequence[Box3D], level: Difficulty) -> List[Box3D]:
    """L1 keeps difficulty-1 ground truths only; L2 keeps everything."""
    if level is Difficulty.L2:
        return list(gts)
    return [g for g in gts if effective_difficulty(g) == 1]


class MotResult(NamedTuple):
    mota: float
    motp: float
    fp: int
    fn: int
    ids: int


def _index_by_id(boxes: Sequence[Box3D], kind: str, frame: int) -> Dict[int, Box3D]:
    by_id: Dict[int, Box3D] = {}
    for box in boxes:
        if box.track_id is None:
            raise ValueError(f"frame {frame}: {kind} box without track_id")
        if box.track_id in by_id:
            raise ValueError(f"frame {frame}: duplicate {kind} track_id {box.track_id}")
        by_id[box.track_id] = box
    return by_id


def mota_motp(
    tracked: Sequence[Sequence[Box3D]],
    gt: Sequence[Sequence[Box3D]],
    iou_thr: float = 0.5,
    iou_fn=iou3d,
) -> MotResult:
    """CLEAR-MOT accuracy and precision over frame-aligned id-carrying boxes.

    Per frame, correspondences from the previous frame are kept while their
    IoU stays at or above iou_thr; the remainder is matched by Hungarian on
    1 - IoU with the same gate. Unmatched hypotheses are FP, unmatched
    ground truths FN, and a ground truth whose matched id differs from its
    last-ever match is an id switch. MOTA = 1 - (FN + FP + IDS)/GT (NaN when
    GT is 0); MOTP is the mean of 1 - IoU over matches (NaN with none).
    iou_fn must return 0 for boxes whose circumscribed circles are disjoint,
    as :func:`lidarpost.geometry.iou_matrix` requires.

    Raises:
        ValueError: unless iou_thr in (0, 1]; on length mismatch, missing
            ids, or duplicate ids.
    """
    check("iou_thr", iou_thr, UNIT_ABOVE_0)
    if len(tracked) != len(gt):
        raise ValueError(
            f"sequences must be frame-aligned: {len(tracked)} vs {len(gt)} frames"
        )
    total_gt = 0
    fp = 0
    fn = 0
    ids = 0
    motp_sum = 0.0
    match_count = 0
    prev_corr: Dict[int, int] = {}
    last_match: Dict[int, int] = {}
    for frame, (hyps, gts) in enumerate(zip(tracked, gt)):
        gt_by_id = _index_by_id(gts, "ground-truth", frame)
        hyp_by_id = _index_by_id(hyps, "hypothesis", frame)
        total_gt += len(gts)
        matches: Dict[int, int] = {}
        for g_id, h_id in prev_corr.items():
            g_box = gt_by_id.get(g_id)
            h_box = hyp_by_id.get(h_id)
            if g_box is None or h_box is None:
                continue
            value = iou_fn(g_box, h_box)
            if value >= iou_thr:
                matches[g_id] = h_id
                motp_sum += 1.0 - value
                match_count += 1
        rem_g = [box for box in gts if box.track_id not in matches]
        used_h = set(matches.values())
        rem_h = [box for box in hyps if box.track_id not in used_h]
        if rem_g and rem_h:
            iou = iou_matrix(rem_g, rem_h, iou_fn)
            for gi, hj in hungarian(1.0 - iou):
                if iou[gi, hj] < iou_thr:
                    continue
                matches[rem_g[gi].track_id] = rem_h[hj].track_id
                motp_sum += 1.0 - float(iou[gi, hj])
                match_count += 1
        fn += len(gts) - len(matches)
        fp += len(hyps) - len(matches)
        for g_id, h_id in matches.items():
            if g_id in last_match and last_match[g_id] != h_id:
                ids += 1
            last_match[g_id] = h_id
        prev_corr = matches
    mota = float("nan") if total_gt == 0 else 1.0 - (fn + fp + ids) / total_gt
    motp = float("nan") if match_count == 0 else motp_sum / match_count
    return MotResult(mota, motp, fp, fn, ids)
