"""The candidate-pair kernel and its consumers against the all-pairs oracles.

candidate_columns keeps every pair whose circumscribed circles can touch.
iou_matrix, nms, soft_nms, box_vote, match_frame, associate and mota_motp
call a custom iou_fn on those pairs alone, so their outputs must equal the
all-pairs bodies kept in oracles.py exactly, and their iou_fn calls must be
the oracle's calls with the non-candidate pairs left out (mota_motp also
asks each carried-over pair, as its oracle does). With bev_iou or iou3d
itself they take the batched kernel, and must return the same outputs. A
PairPool reused over a weight grid must merge exactly as the oracle pooled
afresh for each weight, and score each ordered candidate pair at most once.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarpost import geometry
from dataclasses import replace

from lidarpost.ensemble import PairPool, box_vote, ensemble_pair, nms, soft_nms
from lidarpost.geometry import (
    Box3D,
    DetectionSet,
    Label,
    bev_iou,
    candidate_columns,
    candidate_pairs,
    iou3d,
    iou_matrix,
)
from lidarpost.metrics import match_frame, mota_motp
from lidarpost.tracker import associate
from oracles import (
    random_box,
    reference_argmax_soft_nms,
    reference_associate,
    reference_box_vote,
    reference_candidates,
    reference_check_on_visit,
    reference_ensemble_pair,
    reference_iou_matrix,
    reference_match_frame,
    reference_mota_motp,
    reference_nms,
    reference_soft_nms,
)

LABELS = list(Label)


def _scalar_keeps(a: Box3D, b: Box3D) -> bool:
    """The scalar circumscribed-circle test of bev_iou and iou3d."""
    ra = 0.5 * math.hypot(a.length, a.width)
    rb = 0.5 * math.hypot(b.length, b.width)
    dx = a.cx - b.cx
    dy = a.cy - b.cy
    return not dx * dx + dy * dy > (ra + rb) * (ra + rb)


def _random_frame(seed, n=80, span=30.0, mixed=False):
    rng = np.random.default_rng(seed)
    return [random_box(rng, span=span, label=LABELS[i % 3] if mixed else Label.VEHICLE)
            for i in range(n)]


def _clustered_frame(seed, objects=25, per_object=8, span=60.0):
    """Detect-like: jittered copies around each object, plus scattered boxes."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(objects):
        label = LABELS[k % 3]
        cx, cy = rng.uniform(-span, span, size=2)
        length, width = rng.uniform(0.8, 5.0), rng.uniform(0.6, 2.2)
        heading = rng.uniform(-math.pi, math.pi)
        for _ in range(per_object):
            out.append(Box3D(
                cx=float(cx + rng.normal(0.0, 0.3)), cy=float(cy + rng.normal(0.0, 0.3)),
                cz=float(rng.normal(0.0, 0.2)),
                length=float(length * rng.uniform(0.9, 1.1)),
                width=float(width * rng.uniform(0.9, 1.1)),
                height=float(rng.uniform(1.4, 1.8)),
                heading=float(heading + rng.normal(0.0, 0.1)),
                score=float(rng.uniform(0.0, 1.0)), label=label,
            ))
    out += [random_box(rng, span=span, label=LABELS[i % 3]) for i in range(20)]
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def _touching_pairs():
    """Pairs at exactly the circumscribed distance as the scalar test computes
    it, and one ulp either side, on the x axis and on a diagonal."""
    pairs = []
    for heading_a, heading_b in ((0.0, 0.0), (0.3, -1.1)):
        a = Box3D(0.0, 0.0, 0.0, 4.0, 2.0, 1.5, heading_a)
        b = Box3D(0.0, 0.0, 0.0, 3.0, 1.0, 1.5, heading_b)
        reach = 0.5 * math.hypot(a.length, a.width) + 0.5 * math.hypot(b.length, b.width)
        for direction in ((1.0, 0.0), (math.sqrt(0.5), math.sqrt(0.5))):
            cx, cy = reach * direction[0], reach * direction[1]
            for step in (-math.inf, 0.0, math.inf):
                x = cx if step == 0.0 else math.nextafter(cx, step)
                pairs.append((a, Box3D(x, cy, 0.0, 3.0, 1.0, 1.5, heading_b)))
    return pairs


def _overflow_rows_cols():
    """Rows and columns whose squared distances or reaches pass the float range."""
    rows = [Box3D(1e308, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0),
            Box3D(0.0, 0.0, 0.0, 1e308, 1e308, 1.0, 0.0)]
    cols = [Box3D(-1e308, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0),
            Box3D(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0)]
    return rows, cols


def _boundary_frame():
    return [box for pair in _touching_pairs() for box in pair]


FRAMES = {
    "random": _random_frame(1),
    "random-mixed": _random_frame(2, mixed=True),
    "dense-mixed": _random_frame(3, n=60, span=4.0, mixed=True),
    "clustered": _clustered_frame(4),
    "clustered-2": _clustered_frame(5, objects=15, per_object=12, span=20.0),
    "boundary": _boundary_frame(),
}


class Recorder:
    def __init__(self, iou_fn):
        self.iou_fn = iou_fn
        self.calls = []

    def __call__(self, a, b):
        self.calls.append((id(a), id(b)))
        return self.iou_fn(a, b)


def _candidate_ids(rows, cols):
    return {(id(rows[i]), id(cols[j]))
            for i, js in enumerate(candidate_columns(rows, cols)) for j in js}


def _on_candidates(calls, candidates, swap=False):
    return [c for c in calls if ((c[1], c[0]) if swap else c) in candidates]


class TestCandidateColumns:
    @pytest.mark.parametrize("name", sorted(FRAMES))
    def test_keeps_every_pair_the_scalar_test_keeps(self, name):
        boxes = FRAMES[name]
        rows, cols = boxes[::2], boxes[1::2]
        cand = candidate_columns(rows, cols)
        assert len(cand) == len(rows)
        for i, a in enumerate(rows):
            assert cand[i] == sorted(set(cand[i]))
            for j, b in enumerate(cols):
                if _scalar_keeps(a, b):
                    assert j in cand[i]

    def test_drops_pairs_beyond_the_slack(self):
        a = Box3D(0.0, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0)
        reach = math.hypot(4.0, 2.0)
        inside = [Box3D(reach * f, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0) for f in (0.5, 1.0)]
        outside = [Box3D(reach * f, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0) for f in (1.0 + 1e-6, 3.0)]
        assert candidate_columns([a], inside + outside) == [[0, 1]]

    def test_touching_pairs_and_one_ulp_either_side_agree_with_the_scalar_test(self):
        pairs = _touching_pairs()
        for a, b in pairs:
            assert candidate_columns([a], [b]) == [[0] if _scalar_keeps(a, b) else []]
            assert candidate_columns([b], [a]) == [[0] if _scalar_keeps(b, a) else []]
        for a, b in pairs[1::3]:  # the pairs at exactly the touching distance
            assert candidate_columns([a], [b]) == [[0]]
            assert candidate_columns([b], [a]) == [[0]]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", [*sorted(FRAMES), "overflow"])
    def test_drops_only_pairs_the_scalar_test_rejects(self, name):
        if name == "overflow":
            rows, cols = _overflow_rows_cols()
        else:
            rows, cols = FRAMES[name][::2], FRAMES[name][1::2]
        cand = candidate_columns(rows, cols)
        for i, a in enumerate(rows):
            for j, b in enumerate(cols):
                if j not in cand[i]:
                    assert not _scalar_keeps(a, b) and not _scalar_keeps(b, a)

    @pytest.mark.parametrize("n_rows, n_cols", [(3, 0), (0, 4), (0, 0)])
    def test_empty_sides(self, n_rows, n_cols):
        boxes = _random_frame(6, n=7)
        assert candidate_columns(boxes[:n_rows], boxes[:n_cols]) == [[] for _ in range(n_rows)]

    def test_one_list_against_itself_is_symmetric(self):
        boxes = FRAMES["clustered"]
        cand = candidate_columns(boxes, boxes)
        pairs = {(i, j) for i, js in enumerate(cand) for j in js}
        assert pairs == {(j, i) for i, j in pairs}
        assert all(i in cand[i] for i in range(len(boxes)))

    @pytest.mark.filterwarnings("error")
    def test_overflow_compares_like_the_scalar_test(self):
        # Squared distances and reaches past the float range are inf, in
        # NumPy as in the scalar test, and raise no warning.
        rows = [Box3D(1e308, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0),
                Box3D(0.0, 0.0, 0.0, 1e308, 1e308, 1.0, 0.0)]
        cols = [Box3D(-1e308, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0),
                Box3D(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0)]
        assert candidate_columns(rows, cols) == [[], [0, 1]]
        assert [[_scalar_keeps(a, b) for b in cols] for a in rows] == [[False, False],
                                                                       [True, True]]

    @pytest.mark.parametrize("cells", [1, 7, 100])
    def test_row_blocks_do_not_change_the_result(self, monkeypatch, cells):
        rows, cols = FRAMES["clustered"], FRAMES["random-mixed"]
        full = candidate_columns(rows, cols)
        monkeypatch.setattr(geometry, "_BLOCK_CELLS", cells)
        assert candidate_columns(rows, cols) == full


@pytest.mark.parametrize("name", sorted(FRAMES))
class TestAgainstAllPairs:
    @pytest.mark.parametrize("iou_fn", [bev_iou, iou3d])
    def test_iou_matrix(self, name, iou_fn):
        boxes = FRAMES[name]
        rows, cols = boxes[: len(boxes) // 2], boxes[len(boxes) // 2:]
        got, want = Recorder(iou_fn), Recorder(iou_fn)
        np.testing.assert_array_equal(iou_matrix(rows, cols, got),
                                      reference_iou_matrix(rows, cols, want))
        assert got.calls == _on_candidates(want.calls, _candidate_ids(rows, cols))

    @pytest.mark.parametrize("iou_thr", [0.0, 0.05, 0.3, 0.55, 0.7, 1.0])
    def test_nms(self, name, iou_thr):
        boxes = FRAMES[name]
        got = Recorder(bev_iou)
        assert nms(boxes, iou_thr, got) == reference_nms(boxes, iou_thr, bev_iou)
        assert set(got.calls) <= _candidate_ids(boxes, boxes)

    @pytest.mark.parametrize("sigma, score_floor", [(0.5, 0.001), (0.1, 0.3), (2.0, 0.0), (0.3, 0.6)])
    def test_soft_nms(self, name, sigma, score_floor):
        boxes = FRAMES[name]
        got, want = Recorder(bev_iou), Recorder(bev_iou)
        out = soft_nms(boxes, sigma, score_floor, got)
        ref = reference_soft_nms(boxes, sigma, score_floor, want)
        assert out == ref
        assert got.calls == _on_candidates(want.calls, _candidate_ids(boxes, boxes))

    @pytest.mark.parametrize("iou_thr", [0.05, 0.55, 1.0])
    def test_box_vote(self, name, iou_thr):
        originals = FRAMES[name]
        survivors = [originals[i] for i in reference_nms(originals, 0.3, bev_iou)]
        got, want = Recorder(bev_iou), Recorder(bev_iou)
        out = box_vote(survivors, originals, iou_thr, got)
        assert out == reference_box_vote(survivors, originals, iou_thr, want)
        # Calls are iou_fn(original, survivor): the candidate pairs are swapped.
        assert got.calls == _on_candidates(want.calls, _candidate_ids(survivors, originals),
                                           swap=True)

    @pytest.mark.parametrize("iou_fn", [bev_iou, iou3d])
    @pytest.mark.parametrize("iou_thr", [0.1, 0.5, 1.0])
    def test_match_frame(self, name, iou_fn, iou_thr):
        boxes = FRAMES[name]
        dets, gts = boxes[::2], boxes[1::2]
        got, want = Recorder(iou_fn), Recorder(iou_fn)
        out = match_frame(dets, gts, iou_thr, got)
        assert out == reference_match_frame(dets, gts, iou_thr, want)
        assert got.calls == _on_candidates(want.calls, _candidate_ids(dets, gts))

    @pytest.mark.parametrize("iou_fn", [bev_iou, iou3d])
    @pytest.mark.parametrize("iou_min", [0.0, 0.1, 0.5])
    def test_associate(self, name, iou_fn, iou_min):
        boxes = FRAMES[name]
        tracks, dets = boxes[::2], boxes[1::2]
        got, want = Recorder(iou_fn), Recorder(iou_fn)
        out = associate(tracks, dets, iou_min, got)
        assert out == reference_associate(tracks, dets, iou_min, want)
        assert associate(tracks, dets, iou_min, iou_fn) == out
        assert got.calls == _on_candidates(want.calls, _candidate_ids(tracks, dets))

    @pytest.mark.parametrize("iou_fn", [bev_iou, iou3d])
    @pytest.mark.parametrize("iou_thr", [0.1, 0.5, 1.0])
    def test_mota_motp(self, name, iou_fn, iou_thr):
        _check_mota_motp(*_scene_sequence(FRAMES[name]), iou_fn, iou_thr)


def _scene_sequence(boxes):
    """Three frames of one scene with track ids, ground truth the even boxes
    and hypotheses the odd ones: as is, with two hypothesis ids swapped, and
    with every hypothesis moved 0.7 m along x."""
    gts, hyps = boxes[::2], boxes[1::2]
    ids = list(range(100, 100 + len(hyps)))
    if len(ids) > 1:
        ids[0], ids[1] = ids[1], ids[0]
    gt_seq = [[b._with(track_id=k) for k, b in enumerate(gts)] for _ in range(3)]
    tracked = [[b._with(track_id=100 + k) for k, b in enumerate(hyps)],
               [b._with(track_id=i) for i, b in zip(ids, hyps)],
               [replace(b, cx=b.cx + 0.7, track_id=100 + k) for k, b in enumerate(hyps)]]
    return tracked, gt_seq


def _id_sequence(seed, frames=8, objects=30):
    """Objects of mixed labels moving at constant velocity, with ids. The
    hypotheses are jittered copies under ids of their own, with drops, false
    positives, and two objects that trade ids halfway."""
    rng = np.random.default_rng(seed)
    start = rng.uniform(-15.0, 15.0, size=(objects, 2))
    velocity = rng.normal(0.0, 0.8, size=(objects, 2))
    sizes = rng.uniform([1.0, 0.6, 1.4], [5.0, 2.2, 1.8], size=(objects, 3))
    headings = rng.uniform(-math.pi, math.pi, objects)
    tracked, gt = [], []
    for f in range(frames):
        gts, hyps = [], []
        for k in range(objects):
            x, y = start[k] + f * velocity[k]
            label = LABELS[k % 3]
            gts.append(Box3D(float(x), float(y), 0.0, *map(float, sizes[k]), float(headings[k]),
                             label=label, track_id=k))
            if rng.uniform() < 0.15:
                continue
            hyp_id = 500 + (k ^ 1 if k < 2 and f >= frames // 2 else k)
            hyps.append(Box3D(float(x + rng.normal(0.0, 0.3)), float(y + rng.normal(0.0, 0.3)),
                              float(rng.normal(0.0, 0.2)), *map(float, sizes[k]),
                              float(headings[k] + rng.normal(0.0, 0.1)), label=label,
                              track_id=hyp_id))
        for m in range(3):
            hyps.append(random_box(rng, span=15.0, label=LABELS[m])._with(track_id=900 + m))
        tracked.append(hyps)
        gt.append(gts)
    return tracked, gt


class TaggedRecorder:
    """An iou_fn log shared by two callables, each call tagged with its caller."""

    def __init__(self, iou_fn):
        self.iou_fn = iou_fn
        self.calls = []

    def tagged(self, tag):
        def call(a, b):
            self.calls.append((tag, id(a), id(b)))
            return self.iou_fn(a, b)
        return call


def _check_mota_motp(tracked, gt, iou_fn, iou_thr):
    got, want = Recorder(iou_fn), TaggedRecorder(iou_fn)
    out = mota_motp(tracked, gt, iou_thr, got)
    ref = reference_mota_motp(tracked, gt, iou_thr, want.tagged("rest"), want.tagged("pair"))
    assert repr(out) == repr(ref)  # by repr, so NaN equals NaN
    assert repr(mota_motp(tracked, gt, iou_thr, iou_fn)) == repr(out)
    candidates = set().union(*(_candidate_ids(gts, hyps) for hyps, gts in zip(tracked, gt)))
    assert got.calls == [(a, b) for tag, a, b in want.calls
                         if tag == "pair" or (a, b) in candidates]


class TestTrackingOnIdSequences:
    """associate and mota_motp on moving objects that carry ids."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("iou_fn", [bev_iou, iou3d])
    def test_associate_every_frame(self, seed, iou_fn):
        tracked, gt = _id_sequence(seed)
        for hyps, gts in zip(tracked, gt):
            got, want = Recorder(iou_fn), Recorder(iou_fn)
            out = associate(hyps, gts, 0.1, got)
            assert out == reference_associate(hyps, gts, 0.1, want)
            assert associate(hyps, gts, 0.1, iou_fn) == out
            assert got.calls == _on_candidates(want.calls, _candidate_ids(hyps, gts))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("iou_fn", [bev_iou, iou3d])
    @pytest.mark.parametrize("iou_thr", [0.1, 0.5])
    def test_mota_motp(self, seed, iou_fn, iou_thr):
        _check_mota_motp(*_id_sequence(seed), iou_fn, iou_thr)


class TestEdgeCases:
    def test_soft_nms_takes_a_nan_score_next_as_argmax_does(self):
        # bev_iou is NaN for boxes whose areas overflow; here an iou_fn gives
        # NaN for the pair (first, third), so the third box's score is NaN.
        # np.argmax takes a NaN for the maximum, so that box comes next.
        boxes = [Box3D(0.2 * k, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0, score=s)
                 for k, s in enumerate((0.9, 0.8, 0.7))]

        def iou_fn(a, b):
            return math.nan if (a, b) == (boxes[0], boxes[2]) else bev_iou(a, b)

        out = soft_nms(boxes, 0.5, 0.001, iou_fn)
        assert [box.cx for box in out] == [0.0, 0.4, 0.2]
        assert math.isnan(out[1].score) and out[0].score == 0.9 and out[2].score < 0.8

    def test_soft_nms_drops_far_boxes_that_start_under_the_floor(self):
        near = [Box3D(0.0, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0, score=s) for s in (0.9, 0.05)]
        far = [Box3D(100.0 * k, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0, score=s)
               for k, s in ((1, 0.1), (2, 0.2), (3, 0.25))]
        other = Box3D(200.0, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0, score=0.15, label=Label.CYCLIST)
        boxes = near + far + [other]
        out = soft_nms(boxes, 0.5, 0.18, bev_iou)
        assert out == reference_soft_nms(boxes, 0.5, 0.18, bev_iou)
        # The far VEHICLE boxes under the floor go with the first VEHICLE pick;
        # the lone CYCLIST under the floor survives: no CYCLIST pick precedes it.
        assert [(b.cx, b.score) for b in out] == [(0.0, 0.9), (300.0, 0.25), (200.0, 0.2),
                                                   (200.0, 0.15)]

    @pytest.mark.parametrize("iou_thr", [0.0, 1.0])
    def test_nms_extreme_thresholds_with_far_boxes(self, iou_thr):
        boxes = [Box3D(50.0 * k, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0, score=0.1 * k,
                       label=LABELS[k % 2]) for k in range(1, 7)]
        boxes.append(Box3D(300.0, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0, score=0.6, label=LABELS[0]))
        assert nms(boxes, iou_thr) == reference_nms(boxes, iou_thr, bev_iou)

    def test_empty_sides(self):
        boxes = FRAMES["random"][:5]
        assert nms([], 0.5) == []
        assert soft_nms([]) == []
        assert box_vote([], boxes) == []
        assert box_vote(boxes, []) == boxes
        assert match_frame([], boxes, 0.5) == reference_match_frame([], boxes, 0.5, iou3d)
        assert match_frame(boxes, [], 0.5) == reference_match_frame(boxes, [], 0.5, iou3d)


GRID = [round(0.1 * i, 1) for i in range(1, 11)]


def _sides(boxes, split):
    """Two detectors of one frame. Each box carries its index in the pool as
    num_points, so that an iou_fn can record calls by pooled index."""
    tagged = [replace(box, num_points=i) for i, box in enumerate(boxes)]
    return (DetectionSet("f", tagged[:split], 0, 0.5),
            DetectionSet("f", tagged[split:], 1, 0.5))


class PoolRecorder:
    """iou_fn that records each call as (later, kept) pooled indices."""

    def __init__(self):
        self.calls = []

    def __call__(self, a, b):
        self.calls.append((a.num_points, b.num_points))
        return bev_iou(a, b)


def _tie_frame():
    """Scores that tie exactly across sources once weighted: 0.5 at w_a = 1
    against 1.0 at w_b = 0.5, and 0.25 against 0.5 at w_b = 0.5."""
    a = [Box3D(0.0, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0, score=0.5),
         Box3D(20.0, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0, score=0.25),
         Box3D(40.0, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0, score=1.0, label=Label.CYCLIST)]
    b = [Box3D(0.5, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0, score=1.0),
         Box3D(20.5, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0, score=0.5),
         Box3D(40.5, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0, score=1.0, label=Label.CYCLIST)]
    return a + b, len(a)


POOL_FRAMES = {name: (boxes, len(boxes) // 2) for name, boxes in FRAMES.items()}
POOL_FRAMES["ties"] = _tie_frame()
POOL_FRAMES["empty-a"] = (FRAMES["random-mixed"][:30], 0)
POOL_FRAMES["empty-b"] = (FRAMES["random-mixed"][:30], 30)
POOL_FRAMES["empty"] = ([], 0)
# Every third box already carries a source id, as a merged set's boxes do.
POOL_FRAMES["stamped"] = ([replace(box, source_id=7) if i % 3 == 0 else box
                           for i, box in enumerate(FRAMES["random-mixed"][:30])], 15)


@pytest.mark.parametrize("name", sorted(POOL_FRAMES))
class TestPairPool:
    @pytest.mark.parametrize("iou_thr", [0.0, 0.3, 0.7, 1.0])
    def test_reused_pool_equals_fresh_oracle_for_each_weight(self, name, iou_thr):
        a, b = _sides(*POOL_FRAMES[name])
        pool = PairPool(a, b)
        # The integer weight 1 and weights on either side, over one pool.
        for w_a, w_b in [(1, w) for w in GRID] + [(w, 1.0) for w in GRID] + [(1, 1)]:
            got = pool.merge(w_a, w_b, iou_thr)
            want = reference_ensemble_pair(a, b, w_a, w_b, iou_thr, bev_iou)
            assert got == want
            assert ([(box.score, box.source_id) for box in got.boxes]
                    == [(box.score, box.source_id) for box in want.boxes])

    @pytest.mark.parametrize("iou_thr", [0.05, 0.3, 0.7, 1.0])
    def test_grid_scores_each_candidate_pair_once(self, name, iou_thr):
        boxes, split = POOL_FRAMES[name]
        a, b = _sides(boxes, split)
        pooled = a.boxes + b.boxes
        candidates = {(i, j) for i, js in enumerate(candidate_columns(pooled, pooled))
                      for j in js}
        got = PoolRecorder()
        pool = PairPool(a, b, got)
        wanted = set()
        for w in GRID:
            pool.merge(1.0, w, iou_thr)
            want = PoolRecorder()
            reference_ensemble_pair(a, b, 1.0, w, iou_thr, want)
            wanted.update(want.calls)
            # A fresh pool, as ensemble_pair builds, makes the oracle's calls
            # on candidate pairs, each once, though not in the oracle's order.
            fresh = PoolRecorder()
            ensemble_pair(a, b, 1.0, w, iou_thr, fresh)
            assert sorted(fresh.calls) == sorted(c for c in want.calls if c in candidates)
        assert len(got.calls) == len(set(got.calls))
        assert set(got.calls) == wanted & candidates


def test_ties_go_to_the_first_detector():
    a, b = _sides(*_tie_frame())
    merged = PairPool(a, b).merge(1, 0.5, 0.3)
    assert [(box.cx, box.score, box.source_id) for box in merged.boxes] == [
        (40.0, 1.0, 0), (0.0, 0.5, 0), (20.0, 0.25, 0)]


def test_nms_on_a_large_sparse_frame_stays_in_bounded_memory():
    # 5,000 boxes, most on a 10 m grid and the rest in small clusters. A
    # dense 5,000 x 5,000 float64 temporary alone would be 200 MB.
    rng = np.random.default_rng(8)
    boxes = [Box3D(10.0 * (k % 70), 10.0 * (k // 70), 0.0, 4.0, 2.0, 1.5,
                   float(rng.uniform(-math.pi, math.pi)), score=float(rng.uniform()))
             for k in range(4800)]
    boxes += [Box3D(5.0 + float(rng.normal(0.0, 0.2)), 5.0 + 10.0 * (k // 10), 0.0, 4.0, 2.0, 1.5,
                    0.0, score=float(rng.uniform())) for k in range(200)]
    tracemalloc.start()
    try:
        kept = nms(boxes, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert 4800 < len(kept) < 5000


@st.composite
def _clusters(draw):
    """Clustered boxes of mixed labels, scores often tied: jittered copies
    of a few objects, so most boxes have several same-label neighbours."""
    boxes = []
    for _ in range(draw(st.integers(1, 5))):
        cx, cy = draw(st.floats(-8.0, 8.0)), draw(st.floats(-8.0, 8.0))
        label = draw(st.sampled_from(LABELS))
        for _ in range(draw(st.integers(1, 6))):
            boxes.append(Box3D(cx + draw(st.floats(-1.0, 1.0)), cy + draw(st.floats(-1.0, 1.0)),
                               0.0, draw(st.floats(1.0, 5.0)), draw(st.floats(0.5, 2.5)), 1.5,
                               draw(st.floats(-math.pi, math.pi)),
                               score=draw(st.sampled_from([0.3, 0.6, 0.9]) | st.floats(0.0, 1.0)),
                               label=draw(st.sampled_from([label, label, LABELS[0]]))))
    return boxes


_THRESHOLDS = st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]) | st.fixed_dictionaries(
    {label.value: st.sampled_from([0.0, 0.3, 0.7, 1.0]) for label in LABELS})


class TestAsksTheCheckOnVisitPairs:
    """The suppression loop marks the neighbours of each kept box. It must
    ask exactly the ordered pairs (later, kept) that a check of each box
    against the kept boxes on its visit asks, left out the far pairs, and
    keep the same boxes."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_clusters(), _THRESHOLDS)
    def test_nms(self, boxes, iou_thr):
        got, want = Recorder(bev_iou), Recorder(bev_iou)
        assert nms(boxes, iou_thr, got) == reference_check_on_visit(boxes, iou_thr, want)
        assert sorted(got.calls) == sorted(_on_candidates(want.calls,
                                                          _candidate_ids(boxes, boxes)))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_clusters(), st.data(), _THRESHOLDS)
    def test_pair_pool(self, boxes, data, iou_thr):
        a, b = _sides(boxes, data.draw(st.integers(0, len(boxes))))
        w_a, w_b = data.draw(st.sampled_from([(1.0, w) for w in GRID] + [(0.5, 1.0)]))
        got = PoolRecorder()
        kept, scores = PairPool(a, b, got).keep(w_a, w_b, iou_thr)
        pooled = [replace(box, score=box.score * w)
                  for box, w in zip(a.boxes + b.boxes, [w_a] * len(a) + [w_b] * len(b))]
        want = PoolRecorder()
        assert kept == reference_check_on_visit(pooled, iou_thr, want)
        assert scores == [box.score for box in pooled]
        assert sorted(got.calls) == sorted(_on_candidates(want.calls, {
            (i, j) for i, js in enumerate(candidate_columns(pooled, pooled)) for j in js}))


def test_the_sweep_s_worst_case_stays_in_bounded_memory():
    # 5,000 boxes on one x, 1 m apart in y: every pair is in every row's
    # window, 25M pairs in all, though each box touches only a few. Next
    # neighbours overlap by 1/3, so the kept boxes are a maximal independent
    # set of the path 0-1-...-4999.
    rng = np.random.default_rng(9)
    boxes = [Box3D(0.0, 1.0 * k, 0.0, 4.0, 2.0, 1.5, 0.0, score=float(rng.uniform()))
             for k in range(5000)]
    tracemalloc.start()
    try:
        kept = nms(boxes, 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert 5000 // 3 <= len(kept) <= 2500


def _csr(rows_of_columns):
    pointers = [0]
    for js in rows_of_columns:
        pointers.append(pointers[-1] + len(js))
    return pointers, [j for js in rows_of_columns for j in js]


# Coordinates that repeat (many equal x), that reach past the float range,
# and any in a small square; sizes from 1e-3 to 1e3.
_COORDS = st.sampled_from([0.0, -0.0, 1.0, 2.5, -1e308, 1e308]) | st.floats(-20.0, 20.0)
_SIZES = st.sampled_from([1e-3, 1.0, 1e3, 1e308]) | st.floats(1e-3, 1e3)
_SWEEP_BOXES = st.builds(
    lambda cx, cy, length, width, heading, label: Box3D(cx, cy, 0.0, length, width, 1.0,
                                                        heading, label=label),
    _COORDS, _COORDS, _SIZES, _SIZES, st.floats(-math.pi, math.pi), st.sampled_from(LABELS))
_SPECIAL = [box for pair in _touching_pairs() for box in pair] + sum(_overflow_rows_cols(), [])


@st.composite
def _sweep_sides(draw):
    """Row and column boxes, either side possibly empty, mixing drawn boxes
    with touching pairs (and one ulp either side) and overflow rows."""
    def side():
        return draw(st.lists(_SWEEP_BOXES | st.sampled_from(_SPECIAL), max_size=14))
    rows = side()
    return rows, (rows if draw(st.booleans()) else side())


class TestSweepAgainstTheDenseTest:
    """The sweep's CSR pairs are the dense all-pairs test's, row by row, in
    ascending column order, at any chunk size; by label, they are the dense
    test's pairs of boxes that share a label."""

    @pytest.mark.filterwarnings("error")
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_sweep_sides(), st.sampled_from([1, 3, 1 << 18]))
    def test_pairs_equal_the_dense_test(self, sides, cells):
        rows, cols = sides
        want = reference_candidates(rows, cols)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "_BLOCK_CELLS", cells)
            assert candidate_pairs(rows, cols) == _csr(want)
            assert candidate_pairs(rows, cols, same_label=True) == _csr(
                [[j for j in js if cols[j].label is rows[i].label] for i, js in enumerate(want)])

    @pytest.mark.parametrize("name", sorted(FRAMES))
    def test_frames_equal_the_dense_test(self, name):
        boxes = FRAMES[name]
        assert candidate_columns(boxes, boxes) == reference_candidates(boxes, boxes)
        assert candidate_columns(boxes[::2], boxes[1::2]) == reference_candidates(boxes[::2],
                                                                                  boxes[1::2])

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6])
    def test_pairs_a_few_ulps_either_side_of_touching_off_the_origin(self, scale):
        # The window's ends and dx = a.cx - b.cx round; the reject decides.
        rng = np.random.default_rng(10)
        for _ in range(150):
            a = Box3D(float(rng.uniform(-50.0, 50.0)) * scale, 0.0, 0.0,
                      float(rng.uniform(1e-3, 5.0)) * scale, float(rng.uniform(1e-3, 5.0)) * scale,
                      1.0, 0.0)
            reach = 2.0 * (0.5 * math.hypot(a.length, a.width))
            cols = []
            for x in (a.cx - reach, a.cx + reach):
                for step in (-math.inf, math.inf):
                    for _ in range(4):
                        cols.append(Box3D(x, 0.0, 0.0, a.length, a.width, 1.0, 0.0))
                        x = math.nextafter(x, step)
            assert candidate_columns([a], cols) == reference_candidates([a], cols)

    def test_squares_that_underflow(self):
        # Boxes of 1e-300 m whose center distance of 1e-170 m squares to 0.0:
        # the reject keeps them, though the distance is far past the reach.
        rows = [Box3D(0.0, 0.0, 0.0, 1e-300, 1e-300, 1.0, 0.0)]
        cols = [Box3D(x, 0.0, 0.0, 1e-300, 1e-300, 1.0, 0.0) for x in (-1e-170, 1e-170, 1e-150)]
        assert candidate_columns(rows, cols) == reference_candidates(rows, cols) == [[0, 1]]

    def test_touching_pairs_and_overflow_rows(self):
        rows, cols = _overflow_rows_cols()
        assert candidate_columns(rows, cols) == reference_candidates(rows, cols) == [[], [0, 1]]
        for a, b in _touching_pairs():
            assert candidate_columns([a], [b]) == reference_candidates([a], [b])


def _hex(box):
    return [value.hex() if isinstance(value, float) else value
            for value in (getattr(box, f) for f in box.__dataclass_fields__)]


@st.composite
def _soft_nms_frames(draw):
    """Clusters of boxes, some exact copies, so that scores tie and decay to
    equal values; scores include -0.0, 0.0 and values under the floor."""
    boxes = []
    for _ in range(draw(st.integers(1, 4))):
        cx, cy = draw(st.floats(-6.0, 6.0)), draw(st.floats(-6.0, 6.0))
        label = draw(st.sampled_from(LABELS))
        for _ in range(draw(st.integers(1, 5))):
            box = Box3D(cx + draw(st.sampled_from([0.0, 0.5]) | st.floats(-1.0, 1.0)), cy, 0.0,
                        draw(st.floats(1.0, 5.0)), draw(st.floats(0.5, 2.5)), 1.5,
                        draw(st.floats(-math.pi, math.pi)),
                        score=draw(st.sampled_from([-0.0, 0.0, 0.0005, 0.3, 0.6, 0.9, 1.0])
                                   | st.floats(0.0, 1.0)),
                        label=draw(st.sampled_from([label, LABELS[0]])))
            boxes += [box] * draw(st.integers(1, 3))
    return boxes


class TestSoftNmsAgainstTheArgmaxLoop:
    """The heap picks the box that the masked argmax picks, so soft_nms keeps
    the same boxes, bit for bit, and asks iou_fn the same pairs in the same
    order."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_soft_nms_frames(), st.sampled_from([0.05, 0.5, 2.0]),
           st.sampled_from([0.0, 0.001, 0.3, 0.6]))
    def test_kept_boxes_and_calls(self, boxes, sigma, score_floor):
        got, want = Recorder(bev_iou), Recorder(bev_iou)
        out = soft_nms(boxes, sigma, score_floor, got)
        ref = reference_argmax_soft_nms(boxes, sigma, score_floor, want)
        assert [_hex(box) for box in out] == [_hex(box) for box in ref]
        assert got.calls == want.calls

    @pytest.mark.parametrize("name", sorted(FRAMES))
    def test_frames(self, name):
        boxes = FRAMES[name]
        got, want = Recorder(bev_iou), Recorder(bev_iou)
        out = soft_nms(boxes, 0.5, 0.001, got)
        assert [_hex(box) for box in out] == [
            _hex(box) for box in reference_argmax_soft_nms(boxes, 0.5, 0.001, want)]
        assert got.calls == want.calls
