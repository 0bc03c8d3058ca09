"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written with different algorithms or data
layouts than the package code: Monte-Carlo IoU instead of polygon clipping,
a mark-suppressed NMS scan instead of check-against-kept, exhaustive
enumeration instead of the assignment solver, a tie-break that re-solves a
sub-matrix for every candidate pair instead of one solve and a walk over its
tight edges, a naive quadratic PR integration instead of the vectorized
envelope, and a per-point first-arrival voxelizer instead of array grouping.
The all-pairs IoU consumers (matrix, soft-NMS, voting, greedy matching) call
iou_fn on every pair, where the library calls it on candidate pairs only, and
the weighted two-detector merge pools and scores its boxes afresh for every
weight, where the library pools a frame once for a whole weight grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from lidarpost.geometry import Box3D, Label, heading_error
from lidarpost.metrics import DetectionOutcome, MatchLedger


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


def reference_ensemble_pair(a, b, w_a: float, w_b: float, iou_thr: float, iou_fn):
    """Weighted two-detector merge, pooled afresh for one weight pair.

    One dataclasses.replace per box stamps its source id and another scales
    its score by its detector's weight, then the mark-suppressed scan keeps
    the survivors in keep order.
    """
    stamped = [replace(box, source_id=s.source_id) for s in (a, b) for box in s.boxes]
    weights = [w_a] * len(a.boxes) + [w_b] * len(b.boxes)
    boxes = [replace(box, score=box.score * w) for box, w in zip(stamped, weights)]
    keep = reference_nms(boxes, iou_thr, iou_fn)
    return replace(a, boxes=[boxes[i] for i in keep])


def reference_iou_matrix(rows: Sequence[Box3D], cols: Sequence[Box3D], iou_fn) -> np.ndarray:
    """iou_fn(rows[i], cols[j]) for every pair, row by row."""
    values = [[iou_fn(a, b) for b in cols] for a in rows]
    return np.array(values, dtype=np.float64).reshape(len(rows), len(cols))


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
            cx=sum(o.cx for o in voters) / n,
            cy=sum(o.cy for o in voters) / n,
            cz=sum(o.cz for o in voters) / n,
            length=sum(o.length for o in voters) / n,
            width=sum(o.width for o in voters) / n,
            height=sum(o.height for o in voters) / n,
        ))
    return out


def reference_match_frame(
    dets: Sequence[Box3D], gts: Sequence[Box3D], iou_thr: float, iou_fn
) -> MatchLedger:
    """Greedy score-ordered matching that scores each detection against every gt."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    gt_matched = [False] * len(gts)
    outcome_by_det: List[Optional[DetectionOutcome]] = [None] * len(dets)
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
            weight = max(0.0, 1.0 - heading_error(det.heading, gts[best_j].heading) / math.pi)
            outcome_by_det[i] = DetectionOutcome(det.score, True, best_j, weight)
        else:
            outcome_by_det[i] = DetectionOutcome(det.score, False, None, 0.0)
    return MatchLedger([outcome_by_det[i] for i in order], gt_matched)


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
