"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written with different algorithms or data
layouts than the package code: Monte-Carlo IoU instead of polygon clipping,
an NMS scan over all pairs instead of same-label neighbour lists, exhaustive
enumeration instead of the assignment solver, a tie-break that re-solves a
sub-matrix for every candidate pair instead of one solve and a walk over its
tight edges, a naive quadratic PR integration instead of the vectorized
envelope, and a per-point first-arrival voxelizer instead of array grouping.
The all-pairs IoU consumers (matrix, soft-NMS, voting, greedy matching) call
iou_fn on every pair, where the library calls it on candidate pairs only, and
the weighted two-detector merge pools and scores its boxes afresh for every
weight, where the library pools a frame once for a whole weight grid. A
second NMS checks each box against the kept ones when it is visited, where
the library's loop marks the boxes that each kept box suppresses. The weight
search builds and scores the boxes of every merge, where the ensemble
command scores pool indices and builds the boxes of the winning merge. The
box file reader checks one record at a time, where the library checks a
chunk of records at once as columns, and the box file writer builds one
dict and one json.dumps per box, where the library writes from a prefix
per frame. The reference tracker keeps one TrackState per track and steps
each with a per-track Kalman predict and update of its own matrices, where
the library runs one stacked step over a table of rows, of which its public
predict and update are the one-row case.
Class-wise NMS at one threshold per class splits a frame by class and scans
each class alone, where the library holds each class to its threshold in one
loop. The reference grouping numbers voxels with np.unique, a second stable
sort of the inverse and a sort of the first arrivals, where the library
sorts the cell keys once. The point check scans one row at a time, where the
library scans a cloud's rows only when one sum and one minimum over the
whole cloud say that some row may be bad. The sweeping tie-break runs one
reverse path sweep for every row that has a column within budget below its
own, where the library skips the rows that provably cannot move and settles
rows on dummy columns from its last sweep. The precision-recall points and
AP come from one loop over the ranks with running totals and a list of
envelope tuples, where the library takes running sums over columns. The
reference matcher computes each overlap afresh for every order it matches
and fills its ledger's columns by detection index, where FrameMatcher
computes each overlap once over all its calls and appends in match order.
The association and CLEAR-MOT references call iou_fn on every pair of each
matrix they need, one pair at a time, where the library scores a frame's or
a whole sequence's candidate pairs in one pass of its batched kernel.
The candidate test runs on a dense matrix of every pair, where the library
sweeps the columns sorted by x; the argmax soft-NMS takes each next box by
a scan of the live scores, where the library pops a heap.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import replace
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from lidarpost.assigner import AnchorLabel, AssignmentResult
from lidarpost.ensemble import PairPool
from lidarpost.geometry import (
    Box3D,
    DetectionSet,
    Label,
    bev_iou,
    heading_error,
    iou3d,
    wrap_angle,
)
from lidarpost.io import FormatError, InputError, ValidationError
from lidarpost.matching import _reduced_costs, hungarian
from lidarpost.metrics import (
    Difficulty,
    MatchLedger,
    MotResult,
    PrPoint,
    match_frame,
    split_difficulty,
)
from lidarpost.pointcloud import PointCloud
from lidarpost.schema import NON_NEGATIVE, check
from lidarpost.tracker import (
    _INITIAL_VELOCITY_VAR,
    OBS_DIM,
    STATE_DIM,
    TrackerConfig,
    TrackState,
    associate,
    correct_heading_flip,
)
from lidarpost.voxelizer import VoxelConfig, VoxelGrid, VoxelMode


def random_box(
    rng: np.random.Generator,
    span: float = 5.0,
    label: Label = Label.VEHICLE,
    score: Optional[float] = None,
) -> Box3D:
    return Box3D(
        cx=float(rng.uniform(-span, span)),
        cy=float(rng.uniform(-span, span)),
        cz=float(rng.uniform(-1.0, 1.0)),
        length=float(rng.uniform(0.5, 4.0)),
        width=float(rng.uniform(0.5, 4.0)),
        height=float(rng.uniform(0.5, 3.0)),
        heading=float(rng.uniform(-math.pi, math.pi)),
        score=float(rng.uniform(0.0, 1.0)) if score is None else score,
        label=label,
    )


# The one-record parser, with each Box3D keyword named and the timestamp
# tested by math.isfinite, where the library's reader builds a box from the
# order of its keys and tests the timestamp against geometry's declaration.
_REQUIRED_KEYS = ("frame_id", "timestamp", "cx", "cy", "cz", "l", "w", "h",
                  "heading", "score", "label")


def _number(record: dict, key: str, lineno: int) -> float:
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"line {lineno}: key {key!r} must be a number")
    try:
        return float(value)
    except OverflowError:  # an integer too large for a float
        raise ValidationError(f"line {lineno}: key {key!r} is out of float range") from None


def _optional_int(record: dict, key: str, lineno: int):
    if key not in record or record[key] is None:
        return None
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"line {lineno}: key {key!r} must be an integer")
    return value


def _parse_record(record: dict, lineno: int) -> Tuple[str, float, Box3D]:
    for key in _REQUIRED_KEYS:
        if key not in record:
            raise ValidationError(f"line {lineno}: missing key {key!r}")
    frame_id = record["frame_id"]
    if not isinstance(frame_id, str):
        raise ValidationError(f"line {lineno}: key 'frame_id' must be a string")
    timestamp = _number(record, "timestamp", lineno)
    if not math.isfinite(timestamp):
        raise ValidationError(f"line {lineno}: key 'timestamp' must be finite, got {timestamp!r}")
    label_name = record["label"]
    try:
        label = Label(label_name)
    except ValueError:
        raise ValidationError(f"line {lineno}: unknown label {label_name!r}") from None
    try:
        box = Box3D(
            cx=_number(record, "cx", lineno),
            cy=_number(record, "cy", lineno),
            cz=_number(record, "cz", lineno),
            length=_number(record, "l", lineno),
            width=_number(record, "w", lineno),
            height=_number(record, "h", lineno),
            heading=_number(record, "heading", lineno),
            score=_number(record, "score", lineno),
            label=label,
            track_id=_optional_int(record, "track_id", lineno),
            difficulty=_optional_int(record, "difficulty", lineno),
            num_points=_optional_int(record, "num_points", lineno),
            source_id=_optional_int(record, "source_id", lineno),
        )
    except ValueError as exc:
        if isinstance(exc, InputError):
            raise
        raise ValidationError(f"line {lineno}: {exc}") from exc
    return frame_id, timestamp, box


def reference_read_boxes(path) -> Dict[str, DetectionSet]:
    """The whole file read one line and one checked Box3D at a time."""
    frames: Dict[str, DetectionSet] = {}
    frame = None
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00
                    raise FormatError(f"line {lineno}: invalid UTF-8 byte 0x{byte:02x}") from None
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"line {lineno}: invalid JSON: {exc.msg}") from exc
            except RecursionError as exc:
                raise FormatError(f"line {lineno}: invalid JSON: {exc}") from None
            if not isinstance(record, dict):
                raise FormatError(f"line {lineno}: expected a JSON object")
            frame_id, timestamp, box = _parse_record(record, lineno)
            if frame is None or frame.frame_id != frame_id:
                if frame_id in frames:
                    raise ValidationError(
                        f"line {lineno}: frame {frame_id!r} appears again after "
                        f"frame {frame.frame_id!r}; a frame's records must be contiguous"
                    )
                frame = DetectionSet(frame_id, [], 0, timestamp)
                frames[frame_id] = frame
            frame.boxes.append(box)
    return frames


def contains_xy(box: Box3D, points: np.ndarray) -> np.ndarray:
    """Vectorized point-in-rotated-rectangle test for an (N, 2) array."""
    c = math.cos(box.heading)
    s = math.sin(box.heading)
    dx = points[:, 0] - box.cx
    dy = points[:, 1] - box.cy
    local_x = c * dx + s * dy
    local_y = -s * dx + c * dy
    return (np.abs(local_x) <= 0.5 * box.length) & (np.abs(local_y) <= 0.5 * box.width)


def footprint_corners(box: Box3D) -> np.ndarray:
    c = math.cos(box.heading)
    s = math.sin(box.heading)
    hl, hw = 0.5 * box.length, 0.5 * box.width
    local = np.array([(hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)])
    rot = np.array([(c, -s), (s, c)])
    return local @ rot.T + np.array([box.cx, box.cy])


def mc_bev_iou(
    a: Box3D, b: Box3D, rng: np.random.Generator, samples: int = 10**6
) -> float:
    """Monte-Carlo BEV IoU: uniform samples over the joint bounding box."""
    corners = np.vstack([footprint_corners(a), footprint_corners(b)])
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    points = rng.uniform(lo, hi, size=(samples, 2))
    in_a = contains_xy(a, points)
    in_b = contains_xy(b, points)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def reference_nms(boxes: Sequence[Box3D], iou_thr: float, iou_fn) -> List[int]:
    """Quadratic mark-suppressed NMS scan (class-wise, strict-below keeps).

    IoU is taken as iou_fn(later, kept), the library's argument order, since
    bev_iou is symmetric only up to the last bits and a threshold of 1 can
    tell the two orders apart.
    """
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].score, i))
    suppressed = [False] * len(boxes)
    keep: List[int] = []
    for pos, i in enumerate(order):
        if suppressed[i]:
            continue
        keep.append(i)
        for j in order[pos + 1 :]:
            if suppressed[j] or boxes[j].label is not boxes[i].label:
                continue
            if iou_fn(boxes[j], boxes[i]) >= iou_thr:
                suppressed[j] = True
    return keep


def reference_classwise_nms(
    boxes: Sequence[Box3D], thresholds: Mapping[str, float], iou_fn
) -> List[int]:
    """NMS class by class, each class at thresholds[its name]: one scan over
    each class's boxes, also an empty one, then the kept indices of all
    classes merged by the key (-score, index)."""
    kept: List[int] = []
    for label in Label:
        idx = [i for i, box in enumerate(boxes) if box.label is label]
        subset = [boxes[i] for i in idx]
        kept.extend(idx[i] for i in reference_nms(subset, thresholds[label.value], iou_fn))
    kept.sort(key=lambda i: (-boxes[i].score, i))
    return kept


def reference_ensemble_pair(a, b, w_a: float, w_b: float, iou_thr: float, iou_fn):
    """Weighted two-detector merge, pooled afresh for one weight pair.

    One dataclasses.replace per box stamps its set's source id on a box that
    has none, another scales its score by its detector's weight, then the
    mark-suppressed scan keeps the survivors in keep order.
    """
    stamped = [box if box.source_id is not None else replace(box, source_id=s.source_id)
               for s in (a, b) for box in s.boxes]
    weights = [w_a] * len(a.boxes) + [w_b] * len(b.boxes)
    boxes = [replace(box, score=box.score * w) for box, w in zip(stamped, weights)]
    keep = reference_nms(boxes, iou_thr, iou_fn)
    return replace(a, boxes=[boxes[i] for i in keep])


def reference_check_on_visit(boxes: Sequence[Box3D], iou_thr, iou_fn) -> List[int]:
    """NMS that checks each box when it is visited, by (-score, index): the
    box is kept unless iou_fn(box, kept) reaches its class's threshold
    (iou_thr, or iou_thr[label name] for a map) for a kept box of its label,
    asked in keep order until one does. At a threshold of 0 a kept box of
    the label suppresses without asking. Every kept box is asked, near or
    far."""
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].score, i))
    kept: List[int] = []
    for i in order:
        box = boxes[i]
        thr = iou_thr[box.label.value] if isinstance(iou_thr, Mapping) else iou_thr
        same = [boxes[j] for j in kept if boxes[j].label is box.label]
        if thr == 0.0 and same:
            continue
        if not any(iou_fn(box, other) >= thr for other in same):
            kept.append(i)
    return kept


def reference_weight_search(detectors, gt_frames, label: Label, config, iou_fn=iou3d):
    """The ensemble command's greedy search, building the boxes of every merge.

    detectors and gt_frames are read_boxes results and config is shaped as
    default_config(). Each detector's boxes get its index as source id; per
    newcomer, one PairPool per frame merges at each grid weight, and each
    merge is scored with match_frame per frame (the ground truth's frames,
    then the others) and reference_average_precision. Returns the merged
    frames and the step lines.
    """
    search, scoring = config["ensemble"], config["metrics"]
    level = Difficulty(scoring["difficulty"])

    def ap(frames):
        ledgers, gt_count = [], 0
        for fid in dict.fromkeys([*gt_frames, *frames]):
            gts = split_difficulty([box for box in gt_frames[fid].boxes if box.label is label]
                                   if fid in gt_frames else [], level)
            dets = [box for box in frames[fid].boxes if box.label is label] if fid in frames else []
            ledgers.append(match_frame(dets, gts, scoring["iou_thr"][label.value], iou_fn))
            gt_count += len(gts)
        return reference_average_precision(ledgers, gt_count)[0]

    current, *newcomers = [
        {fid: replace(frame, boxes=[replace(box, source_id=k) for box in frame.boxes])
         for fid, frame in frames.items()} for k, frames in enumerate(detectors)]
    current_score = ap(current)
    steps = [f"detector_0 score={current_score!r}"]
    for index, newcomer in enumerate(newcomers, start=1):
        pools = {}
        for fid in dict.fromkeys([*current, *newcomer]):
            a, b = current.get(fid), newcomer.get(fid)
            pools[fid] = PairPool(a if a is not None else DetectionSet(fid, [], 0, b.timestamp),
                                  b if b is not None else DetectionSet(fid, [], 0, a.timestamp))
        merges = []
        for weight in search["weight_grid"]:
            merged = {fid: pool.merge(1.0, weight, search["nms_iou"][label.value])
                      for fid, pool in pools.items()}
            merges.append((ap(merged), weight, merged))
        # max keeps the first of equal scores: the earliest weight.
        best_score, weight, best = max(merges, key=lambda merge: merge[0])
        if best_score - current_score < search["stop_delta"]:
            steps.append(f"detector_{index} skipped (best gain "
                         f"{best_score - current_score!r} < {search['stop_delta']!r})")
            break
        current, current_score = best, best_score
        steps.append(f"detector_{index} weight={float(weight)!r} score={best_score!r}")
    return current, steps


def reference_fixed_assign(
    anchors: Sequence[Box3D], gts: Sequence[Box3D], pos_thr: float, neg_thr: float
) -> AssignmentResult:
    """Fixed assignment with one argmax per anchor, then the best-anchor
    rescue per ground truth in order, on scalar IoUs."""
    n = len(anchors)
    labels = [AnchorLabel.NEGATIVE] * n
    gt_indices: List[Optional[int]] = [None] * n
    if not anchors or not gts:
        return AssignmentResult(labels, gt_indices)

    iou = reference_iou_matrix(anchors, gts, bev_iou)

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


def reference_adaptive_assign(
    anchors: Sequence[Box3D], gts: Sequence[Box3D], k: int
) -> AssignmentResult:
    """Adaptive assignment whose k nearest candidates come from a full
    stable argsort of the center distances, each IoU scored on its own."""
    n = len(anchors)
    labels = [AnchorLabel.NEGATIVE] * n
    gt_indices: List[Optional[int]] = [None] * n
    centers = np.array([(a.cx, a.cy) for a in anchors], dtype=np.float64).reshape(n, 2)
    thresholds: List[float] = []
    best_iou = [-1.0] * n
    for j, gt in enumerate(gts):
        dist = np.hypot(centers[:, 0] - gt.cx, centers[:, 1] - gt.cy)
        candidates = np.argsort(dist, kind="stable")[:k]
        ious = np.array([bev_iou(anchors[int(i)], gt) for i in candidates])
        threshold = float(ious.mean() + ious.std())
        thresholds.append(threshold)
        for i, value in zip(candidates, ious):
            i = int(i)
            if value >= threshold and gt.contains_bev(anchors[i].cx, anchors[i].cy):
                if value > best_iou[i]:
                    best_iou[i] = float(value)
                    labels[i] = AnchorLabel.POSITIVE
                    gt_indices[i] = j
    return AssignmentResult(labels, gt_indices, adaptive_thresholds=thresholds)


def reference_iou_matrix(rows: Sequence[Box3D], cols: Sequence[Box3D], iou_fn) -> np.ndarray:
    """iou_fn(rows[i], cols[j]) for every pair, row by row."""
    values = [[iou_fn(a, b) for b in cols] for a in rows]
    return np.array(values, dtype=np.float64).reshape(len(rows), len(cols))


def reference_associate(tracks: Sequence[Box3D], detections: Sequence[Box3D], iou_min: float,
                        iou_fn) -> Tuple[List[Tuple[int, int]], List[int], List[int]]:
    """associate from all-pairs overlaps: per label, by name, every track and
    detection pair of the label is scored, then matched by the library's
    hungarian on 1 - IoU (tests/test_matching.py checks the solver)."""
    matches: List[Tuple[int, int]] = []
    for label in sorted({b.label for b in tracks}, key=lambda l: l.value):
        t_idx = [i for i, b in enumerate(tracks) if b.label is label]
        d_idx = [j for j, b in enumerate(detections) if b.label is label]
        if d_idx:
            iou = reference_iou_matrix([tracks[i] for i in t_idx],
                                       [detections[j] for j in d_idx], iou_fn)
            matches += [(t_idx[r], d_idx[c]) for r, c in hungarian(1.0 - iou)
                        if iou[r, c] >= iou_min]
    matches.sort()
    matched_tracks = {i for i, _ in matches}
    matched_dets = {j for _, j in matches}
    return (matches, [i for i in range(len(tracks)) if i not in matched_tracks],
            [j for j in range(len(detections)) if j not in matched_dets])


def reference_mota_motp(tracked, gt, iou_thr: float, iou_fn, pair_fn=None) -> MotResult:
    """CLEAR-MOT as mota_motp defines it, with each carried-over pair scored
    by pair_fn (iou_fn if None) and every pair of the rest by iou_fn."""
    pair_fn = iou_fn if pair_fn is None else pair_fn
    total_gt = fp = fn = ids = match_count = 0
    motp_terms: List[float] = []
    prev: Dict[int, int] = {}
    last: Dict[int, int] = {}
    for gts, hyps in zip(gt, tracked):
        gt_by_id = {box.track_id: box for box in gts}
        hyp_by_id = {box.track_id: box for box in hyps}
        total_gt += len(gts)
        matches: Dict[int, int] = {}
        for g_id, h_id in prev.items():
            if g_id in gt_by_id and h_id in hyp_by_id:
                value = pair_fn(gt_by_id[g_id], hyp_by_id[h_id])
                if value >= iou_thr:
                    matches[g_id] = h_id
                    motp_terms.append(1.0 - value)
        rem_g = [box for box in gts if box.track_id not in matches]
        rem_h = [box for box in hyps if box.track_id not in set(matches.values())]
        if rem_g and rem_h:
            iou = reference_iou_matrix(rem_g, rem_h, iou_fn)
            for r, c in hungarian(1.0 - iou):
                if iou[r, c] >= iou_thr:
                    matches[rem_g[r].track_id] = rem_h[c].track_id
                    motp_terms.append(1.0 - float(iou[r, c]))
        fn += len(gts) - len(matches)
        fp += len(hyps) - len(matches)
        ids += sum(g_id in last and last[g_id] != h_id for g_id, h_id in matches.items())
        last.update(matches)
        prev = matches
    match_count = len(motp_terms)
    motp = _left_sum(motp_terms) / match_count if match_count else float("nan")
    mota = 1.0 - (fn + fp + ids) / total_gt if total_gt else float("nan")
    return MotResult(mota, motp, fp, fn, ids)


def reference_soft_nms(
    boxes: Sequence[Box3D], sigma: float, score_floor: float, iou_fn
) -> List[Box3D]:
    """Soft-NMS over a pool list, rescoring every same-label survivor each pick."""
    pool: List[Tuple[int, Box3D, float]] = [(i, box, box.score) for i, box in enumerate(boxes)]
    kept: List[Box3D] = []
    while pool:
        best = 0
        for idx in range(1, len(pool)):
            if pool[idx][2] > pool[best][2]:
                best = idx
        _, box, score = pool.pop(best)
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


def reference_candidates(rows: Sequence[Box3D], cols: Sequence[Box3D]) -> List[List[int]]:
    """Each row box's ascending indices of the column boxes whose
    circumscribed circles can touch, from the scalar reject's IEEE
    operations, d^2 <= (ra + rb)^2, on one dense (len(rows), len(cols))
    matrix of every pair."""
    a, b = (np.array([(box.cx, box.cy, 0.5 * math.hypot(box.length, box.width))
                      for box in side], dtype=np.float64).reshape(len(side), 3)
            for side in (rows, cols))
    with np.errstate(over="ignore"):  # huge coordinates or sizes overflow to inf
        dx = a[:, 0:1] - b[:, 0]
        dy = a[:, 1:2] - b[:, 1]
        reach = a[:, 2:3] + b[:, 2]
        hits = dx * dx + dy * dy <= reach * reach
    return [np.flatnonzero(row).tolist() for row in hits]


def reference_argmax_soft_nms(
    boxes: Sequence[Box3D], sigma: float, score_floor: float, iou_fn
) -> List[Box3D]:
    """Soft-NMS that takes each next box by a masked np.argmax over the live
    scores (its first maximum, so ties go to the lower index), then decays
    the live same-label candidates of :func:`reference_candidates` in index
    order, calling iou_fn(best, other) on each; at a label's first pick the
    boxes of the label still under score_floor go."""
    scores = np.array([box.score for box in boxes], dtype=np.float64)
    alive = np.ones(len(boxes), dtype=bool)
    candidates = reference_candidates(boxes, boxes)
    floored = set()
    kept: List[Box3D] = []
    while alive.any():
        i = int(np.argmax(np.where(alive, scores, -np.inf)))
        box = boxes[i]
        alive[i] = False
        kept.append(replace(box, score=float(scores[i])))
        for j in candidates[i]:
            if alive[j] and boxes[j].label is box.label:
                scores[j] *= math.exp(-iou_fn(box, boxes[j]) ** 2 / sigma)
                if scores[j] < score_floor:
                    alive[j] = False
        if box.label not in floored:
            floored.add(box.label)
            for j in np.flatnonzero(alive & (scores < score_floor)).tolist():
                if boxes[j].label is box.label:
                    alive[j] = False
    return kept


def _left_sum(values: Iterable[float]) -> float:
    """values added to 0.0 one at a time, as the built-in sum adds floats
    before Python 3.12; from 3.12 on it compensates for rounding."""
    total = 0.0
    for value in values:
        total += value
    return total


def compensated_sum(values, start=0, _builtin_sum=sum):
    """The built-in sum of Python 3.12 and later on floats: Neumaier's
    compensated summation from 0.0. Any other input goes to the built-in sum
    of the running interpreter, so that a test can put this one in its place."""
    values = list(values)
    if start != 0 or not values or not all(type(v) is float for v in values):
        return _builtin_sum(values, start)
    total = compensation = 0.0
    for x in values:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


def reference_box_vote(
    nms_boxes: Sequence[Box3D], original_boxes: Sequence[Box3D], iou_thr: float, iou_fn
) -> List[Box3D]:
    """Box voting that scores every original against every surviving box."""
    out: List[Box3D] = []
    for box in nms_boxes:
        voters = [o for o in original_boxes
                  if o.label is box.label and iou_fn(o, box) > iou_thr]
        if not voters:
            out.append(box)
            continue
        n = len(voters)
        out.append(replace(
            box,
            cx=_left_sum(o.cx for o in voters) / n,
            cy=_left_sum(o.cy for o in voters) / n,
            cz=_left_sum(o.cz for o in voters) / n,
            length=_left_sum(o.length for o in voters) / n,
            width=_left_sum(o.width for o in voters) / n,
            height=_left_sum(o.height for o in voters) / n,
        ))
    return out


def reference_match_frame(
    dets: Sequence[Box3D], gts: Sequence[Box3D], iou_thr: float, iou_fn
) -> MatchLedger:
    """Greedy score-ordered matching that scores each detection against every gt."""
    scores = [det.score for det in dets]
    order = sorted(range(len(dets)), key=lambda i: (-scores[i], i))
    return reference_match(dets, gts, iou_thr, iou_fn, order, scores)


def reference_match(
    dets: Sequence[Box3D], gts: Sequence[Box3D], iou_thr: float, iou_fn,
    order: Sequence[int], scores: Sequence[float],
) -> MatchLedger:
    """dets[i] at scores[i] for each i of order, matched greedily in that order
    against every gt, each overlap computed afresh; the ledger's columns are
    filled by position once every detection is matched."""
    gt_matched = [False] * len(gts)
    gt_index: Dict[int, Optional[int]] = {}
    weight: Dict[int, float] = {}
    for i in order:
        det = dets[i]
        best_j = -1
        best_iou = 0.0
        for j, gt in enumerate(gts):
            if gt_matched[j]:
                continue
            value = iou_fn(det, gt)
            if value >= iou_thr and value > best_iou:
                best_iou = value
                best_j = j
        if best_j >= 0:
            gt_matched[best_j] = True
            gt_index[i] = best_j
            weight[i] = max(0.0, 1.0 - heading_error(det.heading, gts[best_j].heading) / math.pi)
        else:
            gt_index[i] = None
            weight[i] = 0.0
    return MatchLedger([scores[i] for i in order], [gt_index[i] for i in order],
                       [weight[i] for i in order], gt_matched)


def assignment_vectors(
    rows: int, cols: int
) -> Iterable[Tuple[Optional[int], ...]]:
    """All complete matchings as per-row column vectors, in lexicographic
    order with the unassigned sentinel (None) sorting after every column."""
    needed = min(rows, cols)

    def rec(row: int, used: frozenset, vec: Tuple, matched: int):
        if row == rows:
            if matched == needed:
                yield vec
            return
        rows_left = rows - row - 1
        for c in range(cols):
            if c in used:
                continue
            if matched + 1 + min(rows_left, cols - len(used) - 1) >= needed:
                yield from rec(row + 1, used | {c}, vec + (c,), matched + 1)
        if matched + min(rows_left, cols - len(used)) >= needed:
            yield from rec(row + 1, used, vec + (None,), matched)

    yield from rec(0, frozenset(), (), 0)


def brute_force_assignment(cost: np.ndarray) -> Tuple[List[Tuple[int, int]], float]:
    """Exhaustive minimum-cost matching; first optimum found is the
    lexicographically smallest assignment vector."""
    cost = np.asarray(cost, dtype=np.float64)
    rows, cols = cost.shape
    best_vec: Optional[Tuple[Optional[int], ...]] = None
    best_total = math.inf
    for vec in assignment_vectors(rows, cols):
        total = sum(cost[r, c] for r, c in enumerate(vec) if c is not None)
        if total < best_total - 1e-12:
            best_total = total
            best_vec = vec
    assert best_vec is not None
    pairs = [(r, c) for r, c in enumerate(best_vec) if c is not None]
    return pairs, float(best_total)


def reference_hungarian(cost) -> List[Tuple[int, int]]:
    """The lexicographically smallest optimal matching, found by re-solving.

    Rows are fixed in order. Each takes the smallest column for which fixing
    the pair and solving the remaining rows and columns with
    linear_sum_assignment still gives a total within 1e-9 * max(1, |best|)
    of the best; a row that can take none stays unassigned. That is
    O(rows * cols) solves, against the single solve of
    lidarpost.matching.hungarian.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.size == 0:
        return []
    n_rows, n_cols = cost.shape
    needed = min(n_rows, n_cols)
    row_ind, col_ind = linear_sum_assignment(cost)
    best_total = float(cost[row_ind, col_ind].sum())
    tol = 1e-9 * max(1.0, abs(best_total))

    def completion_cost(rows: List[int], cols: List[int]) -> float:
        if not rows or not cols:
            return 0.0
        sub = cost[np.ix_(rows, cols)]
        r, c = linear_sum_assignment(sub)
        return float(sub[r, c].sum())

    result: List[Tuple[int, int]] = []
    avail = list(range(n_cols))
    fixed_cost = 0.0
    for r in range(n_rows):
        rows_after = list(range(r + 1, n_rows))
        for c in avail:
            rest = [x for x in avail if x != c]
            if len(result) + 1 + min(len(rows_after), len(rest)) != needed:
                continue
            total = fixed_cost + cost[r, c] + completion_cost(rows_after, rest)
            if abs(total - best_total) <= tol:
                result.append((r, c))
                avail.remove(c)
                fixed_cost += float(cost[r, c])
                break
    return result


def reference_sweep_hungarian(cost) -> List[Tuple[int, int]]:
    """The single-solve tie-break with one reverse sweep for every row that
    has an open column within budget below its own, dummy columns included.

    This is lidarpost.matching.hungarian before it learnt which rows cannot
    move: it keeps no sweep from one row to the next and groups no rows, so
    it is fast enough for benchmark-sized matrices but pays for every row.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.size == 0:
        return []
    n_rows, n_cols = cost.shape
    n = max(n_rows, n_cols)
    square = np.zeros((n, n))
    square[:n_rows, :n_cols] = cost
    _, col_of_row = linear_sum_assignment(square)
    budget = 1e-9 * max(1.0, abs(float(square[np.arange(n), col_of_row].sum())))
    row_of_col = np.empty(n, dtype=np.intp)
    row_of_col[col_of_row] = np.arange(n)
    rc = _reduced_costs(square, col_of_row, row_of_col)
    for r in range(n_rows):
        t = col_of_row[r]
        if not ((row_of_col[:t] > r) & (rc[r, :t] <= budget)).any():
            continue
        # Least reduced cost of freeing each column by moving rows after r
        # along alternating paths that end with t taken.
        dist = np.full(n, np.inf)
        toward = np.full(n, -1, dtype=np.intp)
        dist[t] = 0.0
        movable = np.flatnonzero(row_of_col > r)
        movers = row_of_col[movable]
        frontier = np.array([t])
        while frontier.size and movable.size:
            via = rc[np.ix_(movers, frontier)] + dist[frontier]
            pick = via.argmin(axis=1)
            best = np.take_along_axis(via, pick[:, None], axis=1)[:, 0]
            better = (best < dist[movable]) & (best <= budget)
            improved = movable[better]
            dist[improved] = best[better]
            toward[improved] = frontier[pick[better]]
            frontier = improved
        fits = rc[r, :t] + dist[:t] <= budget
        if not fits.any():
            continue
        c = int(np.argmax(fits))
        budget -= float(rc[r, c] + dist[c])
        if dist[c] > 0.0:
            shift = np.minimum(dist, dist[c])
            later = rc[r + 1:]
            later += shift - shift[col_of_row[r + 1:]][:, None]
            np.maximum(later, 0.0, out=later)
        row, col = r, c
        while True:
            holder = row_of_col[col]
            col_of_row[row] = col
            row_of_col[col] = row
            if col == t:
                break
            row, col = holder, toward[col]
        if dist[c] > 0.0:
            rc[np.arange(r + 1, n), col_of_row[r + 1:]] = 0.0
    return [(r, int(c)) for r, c in enumerate(col_of_row[:n_rows]) if c < n_cols]


def reference_ap(outcomes: Sequence[Tuple[float, bool]], gt_count: int) -> float:
    """Naive all-point PR integration over (score, is_tp) pairs."""
    ordered = sorted(outcomes, key=lambda o: -o[0])
    if gt_count == 0:
        return 1.0 if not ordered else 0.0
    if not ordered:
        return 0.0
    precisions: List[float] = []
    recalls: List[float] = []
    tp = 0
    for rank, (_, is_tp) in enumerate(ordered, start=1):
        tp += int(is_tp)
        precisions.append(tp / rank)
        recalls.append(tp / gt_count)
    ap = 0.0
    prev_recall = 0.0
    for i in range(len(ordered)):
        ap += (recalls[i] - prev_recall) * max(precisions[i:])
        prev_recall = recalls[i]
    return ap


def reference_pr_points(ledgers: Iterable[MatchLedger], gt_count: int) -> List[PrPoint]:
    """The precision-recall points as one loop over the ledgers' rows, zipped
    from their columns and sorted by descending score, that adds each rank's
    counts to running totals."""
    rows = [row for ledger in ledgers
            for row in zip(ledger.scores, ledger.gt_index, ledger.heading_weight)]
    rows.sort(key=lambda row: -row[0])
    points: List[PrPoint] = []
    tp = 0
    weighted_tp = 0.0
    for rank, (_, gt_index, heading_weight) in enumerate(rows, start=1):
        if gt_index is not None:
            tp += 1
            weighted_tp += heading_weight
        precision = tp / rank
        recall = tp / gt_count if gt_count > 0 else 0.0
        points.append(PrPoint(recall, precision, min(weighted_tp / rank, precision)))
    return points


def reference_average_precision(
    ledgers: Iterable[MatchLedger], gt_count: int
) -> Tuple[float, float]:
    """AP and APH from :func:`reference_pr_points`: the envelopes as a list of
    tuples built from the right, integrated point by point."""
    check("gt_count", gt_count, NON_NEGATIVE)
    ledgers = list(ledgers)
    points = reference_pr_points(ledgers, gt_count)
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


def reference_point_error(points) -> Optional[str]:
    """The message PointCloud raises for an (N, 4) or (N, 5) array-like, found
    by a scan of one row at a time, or None for a cloud it accepts."""
    for index, row in enumerate(np.asarray(points, dtype=np.float64).tolist()):
        values = row + [0.0] * (5 - len(row))
        if not all(map(math.isfinite, values)):
            return f"record {index}: non-finite value"
        for name, value in (("intensity", values[3]), ("t", values[4])):
            if value < 0.0:
                return f"record {index}: {name} must be non-negative, got {value!r}"
    return None


class ReferenceGrid(NamedTuple):
    coords: np.ndarray
    counts: np.ndarray
    features: np.ndarray
    point_voxel: np.ndarray
    dropped_points: int
    dropped_voxels: int


def reference_voxelize(points: np.ndarray, cfg, capped: bool) -> ReferenceGrid:
    """Bucket points one at a time in arrival order, keeping running sums.

    With capped=False every in-range point is stored (dynamic mode). With
    capped=True a voxel keeps its first max_points_per_voxel arrivals and
    only the first max_voxels voxels to appear are created (hard mode).
    """
    r = cfg.range
    nx, ny, nz = cfg.grid_shape
    ids: Dict[Tuple[int, int, int], int] = {}
    counts: List[int] = []
    sums: List[List[float]] = []
    refused = set()
    point_voxel = [-1] * len(points)
    dropped_points = 0
    for i, row in enumerate(points):
        x, y, z, intensity, t = (float(v) for v in row)
        if not (r.x_min <= x <= r.x_max and r.y_min <= y <= r.y_max
                and r.z_min <= z <= r.z_max):
            continue
        key = (
            min(int((x - r.x_min) / cfg.vx), nx - 1),
            min(int((y - r.y_min) / cfg.vy), ny - 1),
            min(int((z - r.z_min) / cfg.vz), nz - 1),
        )
        voxel = ids.get(key)
        if voxel is None:
            if capped and (key in refused or len(ids) >= cfg.max_voxels):
                refused.add(key)
                dropped_points += 1
                continue
            voxel = ids[key] = len(ids)
            counts.append(1)
            sums.append([x, y, z, intensity, t])
        elif capped and counts[voxel] >= cfg.max_points_per_voxel:
            dropped_points += 1
            continue
        else:
            counts[voxel] += 1
            s = sums[voxel]
            s[0] += x
            s[1] += y
            s[2] += z
            s[3] += intensity
            s[4] += t
        point_voxel[i] = voxel
    return ReferenceGrid(
        coords=np.array(list(ids), dtype=np.int64).reshape(-1, 3),
        counts=np.array(counts, dtype=np.int64),
        features=np.array(sums, dtype=np.float64).reshape(-1, 5)
        / np.array(counts, dtype=np.float64).reshape(-1, 1),
        point_voxel=np.array(point_voxel, dtype=np.int64),
        dropped_points=dropped_points,
        dropped_voxels=len(refused),
    )


def reference_group(
    cloud: PointCloud,
    cfg: VoxelConfig,
    mode: VoxelMode,
    max_points_per_voxel: int,
    max_voxels: int,
) -> VoxelGrid:
    """The grouping step of the voxelizer with three sorts: np.unique of the
    cell keys, a stable argsort of its inverse for each point's rank in its
    voxel, and a stable argsort of the first arrivals to number the voxels."""
    inside = np.flatnonzero(cfg.range.contains(cloud.points))
    nx, ny, nz = cfg.grid_shape
    r = cfg.range
    lo = np.array([r.x_min, r.y_min, r.z_min])
    edge = np.array([cfg.vx, cfg.vy, cfg.vz])
    cells = np.floor((cloud.points[inside, :3] - lo) / edge).astype(np.int64)
    cells = np.minimum(cells, np.array(cfg.grid_shape) - 1)
    keys = (cells[:, 0] * ny + cells[:, 1]) * nz + cells[:, 2]
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    # Rank of each point among the points of its voxel, in arrival order.
    by_key = np.argsort(inverse, kind="stable")
    rank = np.empty(len(keys), dtype=np.int64)
    rank[by_key] = np.arange(len(keys)) - np.repeat(np.cumsum(counts) - counts, counts)
    # Renumber voxels by the arrival of their first point.
    arrival = np.argsort(first, kind="stable")
    renumber = np.empty_like(arrival)
    renumber[arrival] = np.arange(len(arrival))
    voxel = renumber[inverse]

    stored = (rank < max_points_per_voxel) & (voxel < max_voxels)
    num_voxels = min(len(first), max_voxels)
    voxel = voxel[stored]
    kept = inside[stored]
    members = cloud.points[kept]
    stored_counts = np.bincount(voxel, minlength=num_voxels)
    # bincount adds in arrival order, as a running per-voxel sum would.
    sums = [np.bincount(voxel, weights=column, minlength=num_voxels) for column in members.T]
    point_voxel = np.full(len(cloud), -1, dtype=np.int64)
    point_voxel[kept] = voxel
    return VoxelGrid(
        coords=cells[first[arrival[:num_voxels]]],
        counts=stored_counts,
        features=np.column_stack(sums) / stored_counts[:, None],
        point_voxel=point_voxel,
        mode=mode,
        dropped_points=len(keys) - len(voxel),
        dropped_voxels=len(first) - num_voxels,
    )


# Constant-velocity transition and position-only observation matrices.
_F = np.eye(STATE_DIM)
_F[0, 7] = _F[1, 8] = _F[2, 9] = 1.0
_H = np.zeros((OBS_DIM, STATE_DIM))
_H[:OBS_DIM, :OBS_DIM] = np.eye(OBS_DIM)


def reference_predict(state: TrackState, config: TrackerConfig) -> TrackState:
    """One track's Kalman predict with 2-D matrix products."""
    mean = _F @ state.mean
    cov = _F @ state.covariance @ _F.T + config.process_noise * np.eye(STATE_DIM)
    cov = 0.5 * (cov + cov.T)
    return TrackState._trusted(
        mean,
        cov,
        state.id,
        hits=state.hits,
        time_since_update=state.time_since_update + 1,
        age=state.age + 1,
        label=state.label,
    )


def reference_update(state: TrackState, det: Box3D, config: TrackerConfig) -> TrackState:
    """One track's Kalman update with 2-D matrix products, the heading flip
    and wraps taken one float at a time."""
    heading = correct_heading_flip(det.heading, float(state.mean[3]))
    z = np.array(
        [det.cx, det.cy, det.cz, heading, det.length, det.width, det.height],
        dtype=np.float64,
    )
    residual = z - _H @ state.mean
    residual[3] = wrap_angle(residual[3])
    p = state.covariance
    r = config.measurement_noise * np.eye(OBS_DIM)
    s = _H @ p @ _H.T + r
    gain = np.linalg.solve(s, _H @ p).T
    mean = state.mean + gain @ residual
    mean[3] = wrap_angle(mean[3])
    joseph = np.eye(STATE_DIM) - gain @ _H
    cov = joseph @ p @ joseph.T + gain @ r @ gain.T
    cov = 0.5 * (cov + cov.T)
    return TrackState._trusted(
        mean,
        cov,
        state.id,
        hits=state.hits + 1,
        time_since_update=0,
        age=state.age,
        label=state.label,
    )


def reference_new_track(det: Box3D, track_id: int) -> TrackState:
    mean = np.array(
        [det.cx, det.cy, det.cz, det.heading, det.length, det.width, det.height,
         0.0, 0.0, 0.0],
        dtype=np.float64,
    )
    cov = np.eye(STATE_DIM)
    cov[7, 7] = cov[8, 8] = cov[9, 9] = _INITIAL_VELOCITY_VAR
    return TrackState(mean, cov, track_id, hits=1, time_since_update=0, age=1,
                      label=det.label)


class ReferenceTracker:
    """One TrackState per track, stepped with reference_predict,
    reference_update and the public associate, reported with
    dataclasses.replace."""

    def __init__(self, config: TrackerConfig) -> None:
        self.config = config
        self.tracks: List[TrackState] = []
        self.tracks_created = 0
        self._last_timestamp: Optional[float] = None

    def step(self, detections: DetectionSet) -> List[Box3D]:
        if (
            self._last_timestamp is not None
            and detections.timestamp < self._last_timestamp
        ):
            raise ValueError(
                f"frames must arrive in temporal order: {detections.timestamp!r} "
                f"after {self._last_timestamp!r}"
            )
        self._last_timestamp = detections.timestamp
        cfg = self.config

        states = [reference_predict(t, cfg) for t in self.tracks]
        track_boxes = [s.to_box() for s in states]
        det_boxes = detections.boxes
        matches, _, unmatched_dets = associate(track_boxes, det_boxes, cfg.iou_min)

        reported_det: Dict[int, Box3D] = {}
        for ti, dj in matches:
            states[ti] = reference_update(states[ti], det_boxes[dj], cfg)
            reported_det[states[ti].id] = det_boxes[dj]
        for dj in unmatched_dets:
            state = reference_new_track(det_boxes[dj], self.tracks_created)
            self.tracks_created += 1
            states.append(state)
            reported_det[state.id] = det_boxes[dj]

        self.tracks = [s for s in states if s.time_since_update <= cfg.max_age]

        reported: List[Box3D] = []
        for state in self.tracks:
            if state.time_since_update == 0 and (
                state.hits >= cfg.min_hits or state.age <= cfg.min_hits
            ):
                reported.append(replace(reported_det[state.id], track_id=state.id))
        return reported


def reference_write_boxes(sets, path) -> None:
    """One dict and one json.dumps per box."""
    if isinstance(sets, Mapping):
        sets = sets.values()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for ds in sets:
            for box in ds.boxes:
                record = {
                    "frame_id": ds.frame_id,
                    "timestamp": ds.timestamp,
                    "cx": box.cx,
                    "cy": box.cy,
                    "cz": box.cz,
                    "l": box.length,
                    "w": box.width,
                    "h": box.height,
                    "heading": box.heading,
                    "score": box.score,
                    "label": box.label.value,
                }
                for key in ("track_id", "difficulty", "num_points", "source_id"):
                    value = getattr(box, key)
                    if value is not None:
                        record[key] = value
                fh.write(json.dumps(record, allow_nan=False) + "\n")
