"""Detection and tracking evaluation.

Detection quality is scored with average precision over the all-point
precision-recall envelope, plus a heading-aware variant that discounts each
true positive by its heading accuracy; a frame's detections are matched to
its ground truths greedily by score. Tracking quality follows the CLEAR-MOT
scheme: frame-by-frame matching with carried-over correspondences, the rest
matched by :func:`lidarpost.matching.hungarian` on 1 - IoU, yielding MOTA
(accuracy) and MOTP (mean matched-pair dissimilarity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .geometry import Box3D, Label, candidate_columns, heading_error, iou3d, iou_matrix
from .matching import hungarian

DEFAULT_IOU_THRESHOLDS = {
    Label.VEHICLE: 0.7,
    Label.PEDESTRIAN: 0.5,
    Label.CYCLIST: 0.5,
}


class Difficulty(Enum):
    L1 = "L1"
    L2 = "L2"


@dataclass(frozen=True)
class DetectionOutcome:
    """Disposition of one detection: matched (TP) or spurious (FP)."""

    score: float
    is_tp: bool
    gt_index: Optional[int]
    heading_weight: float


@dataclass
class MatchLedger:
    """One frame's matching result: detection outcomes plus per-gt coverage."""

    outcomes: List[DetectionOutcome]
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
    if not (0.0 < iou_thr <= 1.0):
        raise ValueError(f"iou_thr must lie in (0, 1], got {iou_thr!r}")
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    candidates = candidate_columns(dets, gts)
    gt_matched = [False] * len(gts)
    outcome_by_det: List[Optional[DetectionOutcome]] = [None] * len(dets)
    for i in order:
        det = dets[i]
        best_j = -1
        best_iou = 0.0
        for j in candidates[i]:
            if gt_matched[j]:
                continue
            value = iou_fn(det, gts[j])
            if value >= iou_thr and value > best_iou:
                best_iou = value
                best_j = j
        if best_j >= 0:
            gt_matched[best_j] = True
            weight = max(
                0.0, 1.0 - heading_error(det.heading, gts[best_j].heading) / math.pi
            )
            outcome_by_det[i] = DetectionOutcome(det.score, True, best_j, weight)
        else:
            outcome_by_det[i] = DetectionOutcome(det.score, False, None, 0.0)
    outcomes = [outcome_by_det[i] for i in order]
    return MatchLedger(outcomes, gt_matched)


class PrPoint(NamedTuple):
    recall: float
    precision: float
    heading_precision: float


def pr_points(ledgers: Iterable[MatchLedger], gt_count: int) -> List[PrPoint]:
    """Cumulative precision-recall points over all frames, by descending score.

    heading_precision replaces the true-positive count with the sum of
    heading weights in the precision numerator, clipped to the unweighted
    precision.
    """
    outcomes = [o for ledger in ledgers for o in ledger.outcomes]
    outcomes.sort(key=lambda o: -o.score)
    points: List[PrPoint] = []
    tp = 0
    weighted_tp = 0.0
    for rank, outcome in enumerate(outcomes, start=1):
        if outcome.is_tp:
            tp += 1
            weighted_tp += outcome.heading_weight
        precision = tp / rank
        recall = tp / gt_count if gt_count > 0 else 0.0
        points.append(PrPoint(recall, precision, min(weighted_tp / rank, precision)))
    return points


def average_precision(
    ledgers: Iterable[MatchLedger], gt_count: int
) -> Tuple[float, float]:
    """All-point interpolated AP and its heading-weighted variant APH.

    Precision is replaced by its running maximum from the right, then
    integrated over recall. APH integrates the heading-weighted precision
    over the same recall grid, so APH <= AP always. With no ground truth the
    pair is (1, 1) when there are no detections and (0, 0) otherwise.
    """
    if gt_count < 0:
        raise ValueError(f"gt_count must be >= 0, got {gt_count!r}")
    ledgers = list(ledgers)
    points = pr_points(ledgers, gt_count)
    if gt_count == 0:
        return (1.0, 1.0) if not points else (0.0, 0.0)
    if not points:
        return 0.0, 0.0
    envelope_p = 0.0
    envelope_h = 0.0
    env_rev: List[Tuple[float, float]] = []
    for point in reversed(points):
        envelope_p = max(envelope_p, point.precision)
        envelope_h = max(envelope_h, point.heading_precision)
        env_rev.append((envelope_p, envelope_h))
    env = list(reversed(env_rev))
    ap = 0.0
    aph = 0.0
    prev_recall = 0.0
    for point, (p_env, h_env) in zip(points, env):
        dr = point.recall - prev_recall
        ap += dr * p_env
        aph += dr * h_env
        prev_recall = point.recall
    return ap, aph


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
        ValueError: on length mismatch, missing ids, or duplicate ids.
    """
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
