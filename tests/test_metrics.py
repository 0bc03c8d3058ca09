import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lidarpost.geometry import Box3D, Label, iou3d
from lidarpost.metrics import (
    DEFAULT_IOU_THRESHOLDS,
    Difficulty,
    FrameMatcher,
    MatchLedger,
    MetricsConfig,
    average_precision,
    effective_difficulty,
    match_frame,
    mota_motp,
    pr_points,
    split_difficulty,
)
from oracles import reference_ap, reference_average_precision, reference_match, reference_pr_points


def _box(cx, cy, score=1.0, heading=0.0, l=4.0, w=2.0, h=1.5, cz=0.0,
         label=Label.VEHICLE, track_id=None, difficulty=None, num_points=None):
    return Box3D(cx=cx, cy=cy, cz=cz, length=l, width=w, height=h,
                 heading=heading, score=score, label=label, track_id=track_id,
                 difficulty=difficulty, num_points=num_points)


def _square(cx, cy, score=1.0, heading=0.0, track_id=None):
    """2x2 square footprint: invariant under 90-degree heading changes."""
    return Box3D(cx=cx, cy=cy, cz=0.0, length=2.0, width=2.0, height=2.0,
                 heading=heading, score=score, track_id=track_id)


def _shift_for_iou(t):
    """x-offset giving BEV/3D IoU exactly t for two aligned 4x2 boxes."""
    return 4.0 * (1.0 - t) / (1.0 + t)


class TestDefaults:
    def test_threshold_table(self):
        assert DEFAULT_IOU_THRESHOLDS[Label.VEHICLE] == 0.7
        assert DEFAULT_IOU_THRESHOLDS[Label.PEDESTRIAN] == 0.5
        assert DEFAULT_IOU_THRESHOLDS[Label.CYCLIST] == 0.5


class TestMetricsConfig:
    @pytest.mark.parametrize("iou_thr", [{}, {"VEHICLE": 0.7},
                                         {"VEHICLE": 0.7, "PEDESTRIAN": 0.5, "CYCLIST": 0.5,
                                          "TRUCK": 0.5}])
    def test_refuses_a_map_of_other_classes(self, iou_thr):
        with pytest.raises(ValueError) as refused:
            MetricsConfig(iou_thr=iou_thr)
        assert str(refused.value) == (
            f"iou_thr must name VEHICLE, PEDESTRIAN, CYCLIST and no other, got {list(iou_thr)!r}")

    def test_takes_the_classes_in_any_order(self):
        section = MetricsConfig(iou_thr={"CYCLIST": 0.4, "PEDESTRIAN": 0.5, "VEHICLE": 0.6})
        assert section.iou_thr["VEHICLE"] == 0.6


class TestMatchFrame:
    def test_single_true_positive(self):
        ledger = match_frame([_box(0.1, 0.0, 0.9)], [_box(0.0, 0.0)], iou_thr=0.5)
        assert ledger.scores == [0.9]
        assert ledger.gt_index == [0]
        assert ledger.gt_matched == [True]

    def test_each_gt_matched_at_most_once(self):
        gt = _box(0.0, 0.0)
        high = _box(0.1, 0.0, 0.9)
        low = _box(-0.1, 0.0, 0.8)
        ledger = match_frame([low, high], [gt], iou_thr=0.5)
        # rows are in descending-score processing order
        assert ledger.scores == [0.9, 0.8]
        assert ledger.gt_index == [0, None]

    def test_low_iou_is_false_positive(self):
        ledger = match_frame([_box(10.0, 0.0, 0.9)], [_box(0.0, 0.0)], iou_thr=0.5)
        assert ledger.gt_index == [None]
        assert ledger.heading_weight == [0.0]
        assert ledger.gt_matched == [False]

    def test_heading_weight_half_at_quarter_turn(self):
        det = _square(0.0, 0.0, score=0.9, heading=math.pi / 2.0)
        gt = _square(0.0, 0.0)
        ledger = match_frame([det], [gt], iou_thr=0.5)
        assert ledger.gt_index == [0]
        assert ledger.heading_weight[0] == pytest.approx(0.5, abs=1e-12)

    def test_takes_highest_iou_gt(self):
        near = _box(0.0, 0.0)
        far = _box(2.0, 0.0)
        det = _box(0.2, 0.0, 0.9)
        ledger = match_frame([det], [far, near], iou_thr=0.05)
        assert ledger.gt_index == [1]

    def test_iou_ties_go_to_lowest_gt_index(self):
        twin_a = _box(0.0, 0.0)
        twin_b = _box(0.0, 0.0)
        ledger = match_frame([_box(0.1, 0.0, 0.9)], [twin_a, twin_b], iou_thr=0.5)
        assert ledger.gt_index == [0]

    def test_score_ties_processed_by_index(self):
        gt = _box(0.0, 0.0)
        first = _box(0.1, 0.0, 0.8)
        second = _box(-0.1, 0.0, 0.8)
        ledger = match_frame([first, second], [gt], iou_thr=0.5)
        assert ledger.gt_index == [0, None]  # index 0 processed first on tie
        assert ledger.scores == [0.8, 0.8]

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            match_frame([], [], iou_thr=0.0)
        with pytest.raises(ValueError):
            match_frame([], [], iou_thr=1.0001)

    def test_matching_respects_threshold_boundary(self):
        gt = _box(0.0, 0.0)
        det = _box(_shift_for_iou(0.7), 0.0, 0.9)
        value = iou3d(det, gt)
        at = match_frame([det], [gt], iou_thr=value)  # >= keeps
        assert at.gt_index == [0]
        above = match_frame([det], [gt], iou_thr=min(1.0, value + 1e-9))
        assert above.gt_index == [None]


@st.composite
def _match_calls(draw):
    """A frame's detections and ground truths on a small grid, so that many
    pairs overlap, and several (order, scores) calls: each order a subset of
    the detections in any permutation, each scores list drawn anew, with ties."""
    def boxes(count):
        return [_box(draw(st.sampled_from([0.0, 0.3, 1.0, 2.5, 9.0])),
                     draw(st.sampled_from([0.0, 0.4, 1.5])),
                     heading=draw(st.sampled_from([0.0, 0.4, math.pi / 2.0, math.pi])))
                for _ in range(count)]

    dets = boxes(draw(st.integers(0, 6)))
    gts = boxes(draw(st.integers(0, 4)))
    calls = []
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.permutations(range(len(dets))))
        scores = draw(st.lists(st.sampled_from([0.0, 0.5, 0.9]) | st.floats(0.0, 1.0),
                               min_size=len(dets), max_size=len(dets)))
        calls.append((order[:draw(st.integers(0, len(dets)))], scores))
    return dets, gts, calls


class TestFrameMatcher:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_match_calls(), st.sampled_from([0.1, 0.5, 0.7]))
    def test_each_match_is_a_fresh_greedy_loop_in_its_order(self, case, iou_thr):
        dets, gts, calls = case
        asked = Counter()

        def counting_iou3d(det, gt):
            asked[id(det), id(gt)] += 1
            return iou3d(det, gt)

        matcher = FrameMatcher(dets, gts, iou_thr, counting_iou3d)
        for order, scores in calls:
            got = matcher.match(order, scores)
            want = reference_match(dets, gts, iou_thr, iou3d, order, scores)
            assert got.scores == want.scores
            assert got.gt_index == want.gt_index
            assert [w.hex() for w in got.heading_weight] == [w.hex() for w in want.heading_weight]
            assert got.gt_matched == want.gt_matched
        assert max(asked.values(), default=0) <= 1


class TestAveragePrecision:
    def test_single_true_positive_full_marks(self):
        ledger = match_frame([_box(0.0, 0.0, 0.9)], [_box(0.0, 0.0)], iou_thr=0.5)
        ap, aph = average_precision([ledger], gt_count=1)
        assert ap == pytest.approx(1.0, abs=1e-12)
        assert aph == pytest.approx(1.0, abs=1e-12)

    def test_quarter_turn_heading_halves_aph_only(self):
        det = _square(0.0, 0.0, score=0.9, heading=math.pi / 2.0)
        gt = _square(0.0, 0.0)
        ledger = match_frame([det], [gt], iou_thr=0.5)
        ap, aph = average_precision([ledger], gt_count=1)
        assert ap == pytest.approx(1.0, abs=1e-12)
        assert aph == pytest.approx(0.5, abs=1e-12)

    def test_worked_three_detection_example(self):
        # 2 gts; scored (TP 0.9, FP 0.8, TP 0.7) -> AP = 0.5 + 0.5 * 2/3
        gts = [_box(0.0, 0.0), _box(30.0, 0.0)]
        dets = [
            _box(0.0, 0.0, 0.9),
            _box(100.0, 0.0, 0.8),
            _box(30.0, 0.0, 0.7),
        ]
        ledger = match_frame(dets, gts, iou_thr=0.5)
        ap, aph = average_precision([ledger], gt_count=2)
        assert ap == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert aph == pytest.approx(5.0 / 6.0, abs=1e-12)  # headings aligned

    def test_no_detections_zero(self):
        ap, aph = average_precision([], gt_count=3)
        assert (ap, aph) == (0.0, 0.0)

    def test_no_gt_no_detections_is_perfect(self):
        assert average_precision([], gt_count=0) == (1.0, 1.0)

    def test_no_gt_with_detections_is_zero(self):
        ledger = match_frame([_box(0.0, 0.0, 0.9)], [], iou_thr=0.5)
        assert average_precision([ledger], gt_count=0) == (0.0, 0.0)

    def test_negative_gt_count_rejected(self):
        with pytest.raises(ValueError):
            average_precision([], gt_count=-1)

    def test_matches_reference_integration(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            ledgers = []
            gt_total = 0
            for _frame in range(int(rng.integers(1, 5))):
                gts = [
                    _box(20.0 * k, 0.0)
                    for k in range(int(rng.integers(0, 4)))
                ]
                gt_total += len(gts)
                dets = []
                for k, gt in enumerate(gts):
                    if rng.random() < 0.75:  # hit with some position noise
                        dets.append(
                            _box(
                                gt.cx + float(rng.uniform(-0.5, 0.5)),
                                float(rng.uniform(-0.3, 0.3)),
                                score=float(rng.random()),
                            )
                        )
                for _ in range(int(rng.integers(0, 3))):  # clutter
                    dets.append(
                        _box(
                            -100.0 - float(rng.uniform(0, 50)),
                            50.0,
                            score=float(rng.random()),
                        )
                    )
                ledgers.append(match_frame(dets, gts, iou_thr=0.5))
            ap, aph = average_precision(ledgers, gt_count=gt_total)
            flat = [(score, j is not None) for ledger in ledgers
                    for score, j in zip(ledger.scores, ledger.gt_index)]
            assert ap == pytest.approx(reference_ap(flat, gt_total), abs=1e-12)
            assert aph <= ap + 1e-12
            assert 0.0 <= aph <= 1.0

    def test_invariant_under_monotone_score_transform(self):
        rng = np.random.default_rng(72)
        gts = [_box(20.0 * k, 0.0) for k in range(4)]
        dets = [
            _box(20.0 * k + float(rng.uniform(-0.5, 0.5)), 0.0,
                 score=float(rng.uniform(0.1, 0.9)))
            for k in range(4)
        ] + [_box(-100.0, 50.0, score=float(rng.uniform(0.1, 0.9)))]
        base_ledger = match_frame(dets, gts, iou_thr=0.5)
        base = average_precision([base_ledger], gt_count=4)

        def transform(s):
            return 0.05 + 0.9 * s**3  # strictly monotone on [0, 1]

        warped = [
            Box3D(cx=d.cx, cy=d.cy, cz=d.cz, length=d.length, width=d.width,
                  height=d.height, heading=d.heading, score=transform(d.score),
                  label=d.label)
            for d in dets
        ]
        warped_ledger = match_frame(warped, gts, iou_thr=0.5)
        warped_result = average_precision([warped_ledger], gt_count=4)
        assert warped_result[0] == pytest.approx(base[0], abs=1e-12)
        assert warped_result[1] == pytest.approx(base[1], abs=1e-12)

    def test_extra_lowest_score_fp_never_increases_ap(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            gts = [_box(20.0 * k, 0.0) for k in range(3)]
            dets = [
                _box(20.0 * k + float(rng.uniform(-0.6, 0.6)), 0.0,
                     score=float(rng.uniform(0.2, 1.0)))
                for k in range(3)
            ]
            ledger = match_frame(dets, gts, iou_thr=0.5)
            base_ap, _ = average_precision([ledger], gt_count=3)
            with_fp = dets + [_box(-200.0, 0.0, score=0.01)]
            ledger_fp = match_frame(with_fp, gts, iou_thr=0.5)
            fp_ap, _ = average_precision([ledger_fp], gt_count=3)
            assert fp_ap <= base_ap + 1e-12


class TestPrPoints:
    def test_monotone_recall_and_clipped_heading_precision(self):
        rng = np.random.default_rng(74)
        gts = [_square(10.0 * k, 0.0) for k in range(5)]
        dets = [
            _square(10.0 * k + float(rng.uniform(-0.2, 0.2)), 0.0,
                    score=float(rng.random()),
                    heading=float(rng.uniform(-math.pi, math.pi)))
            for k in range(5)
        ]
        ledger = match_frame(dets, gts, iou_thr=0.5)
        points = pr_points([ledger], gt_count=5)
        assert len(points) == 5
        recalls = [p.recall for p in points]
        assert recalls == sorted(recalls)
        for p in points:
            assert p.heading_precision <= p.precision + 1e-12

    @pytest.mark.parametrize("curve", [pr_points, average_precision])
    def test_a_negative_gt_count_is_refused(self, curve):
        ledger = match_frame([_box(0.0, 0.0, 0.9)], [_box(0.0, 0.0)], iou_thr=0.5)
        with pytest.raises(ValueError) as refused:
            curve([ledger], -1)
        assert str(refused.value) == "gt_count must lie in [0, inf), got -1"


def _ledger(rows, gt_matched):
    """A ledger of (score, gt index or None, heading weight) rows."""
    return MatchLedger([row[0] for row in rows], [row[1] for row in rows],
                       [row[2] for row in rows], gt_matched)


# Few distinct scores, so that ties within and across frames are common.
_rows = st.tuples(
    st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0),
    st.none() | st.integers(0, 4),
    # A false positive's weight is not added, whatever it is.
    st.sampled_from([-0.0, 0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
)
_ledgers = st.lists(
    st.builds(_ledger, st.lists(_rows, max_size=6), st.lists(st.booleans(), max_size=4)),
    max_size=4,
)
_NEGATIVE_ZERO_WEIGHT = [_ledger([(0.5, 0, -0.0)], [True])]
_TIES_ACROSS_FRAMES = [
    _ledger([(0.5, None, 0.75), (0.5, 0, 0.25)], [True]),
    _ledger([], []),
    _ledger([(0.5, 0, 1.0), (0.0, 1, -0.0)], [True, True]),
]


class TestCurveAgainstReference:
    """pr_points and average_precision equal the per-rank loops of the
    oracle bit for bit: float.hex tells -0.0 from 0.0."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_ledgers, st.none() | st.integers(0, 12))
    @example([], 0)
    @example([], 3)
    @example([_ledger([], [False])], None)
    @example(_NEGATIVE_ZERO_WEIGHT, None)
    @example(_NEGATIVE_ZERO_WEIGHT, 0)
    @example(_TIES_ACROSS_FRAMES, None)
    @example(_TIES_ACROSS_FRAMES, 1)
    def test_points_and_precisions_are_the_reference_bits(self, ledgers, gt_count):
        # None: the ledgers' own ground-truth count; otherwise any count,
        # 0 and counts below the true positives among them.
        if gt_count is None:
            gt_count = sum(ledger.gt_count for ledger in ledgers)
        points = pr_points(iter(ledgers), gt_count)
        expected = reference_pr_points(ledgers, gt_count)
        assert [[v.hex() for v in p] for p in points] == [[v.hex() for v in p] for p in expected]
        assert all(type(v) is float for p in points for v in p)
        pair = average_precision(iter(ledgers), gt_count)
        assert [v.hex() for v in pair] == [v.hex() for v in reference_average_precision(
            ledgers, gt_count)]
        assert all(type(v) is float for v in pair)

    def test_a_leading_negative_zero_weight_adds_to_positive_zero(self):
        assert pr_points(_NEGATIVE_ZERO_WEIGHT, 1)[0].heading_precision.hex() == "0x0.0p+0"


class TestDifficulty:
    def test_explicit_label_wins(self):
        assert effective_difficulty(_box(0, 0, difficulty=2, num_points=100)) == 2
        assert effective_difficulty(_box(0, 0, difficulty=1, num_points=1)) == 1

    def test_sparse_point_fallback(self):
        assert effective_difficulty(_box(0, 0, num_points=3)) == 2
        assert effective_difficulty(_box(0, 0, num_points=5)) == 2
        assert effective_difficulty(_box(0, 0, num_points=6)) == 1

    def test_default_is_level_one(self):
        assert effective_difficulty(_box(0, 0)) == 1

    def test_split_levels(self):
        easy = _box(0, 0, difficulty=1)
        hard = _box(10, 0, difficulty=2)
        sparse = _box(20, 0, num_points=2)
        gts = [easy, hard, sparse]
        assert split_difficulty(gts, Difficulty.L1) == [easy]
        assert split_difficulty(gts, Difficulty.L2) == gts


class TestMotaMotp:
    def test_perfect_tracking(self):
        frames = []
        for frame in range(6):
            frames.append(
                [
                    _box(1.0 * frame, 0.0, track_id=0),
                    _box(40.0 + 1.0 * frame, 5.0, track_id=1),
                ]
            )
        result = mota_motp(frames, frames, iou_thr=0.5)
        assert result == (1.0, 0.0, 0, 0, 0)

    def test_formula_case(self):
        # 10 single-gt frames; one frame has the hypothesis far away -> 1 FN + 1 FP
        gt_frames = [[_box(0.0, 0.0, track_id=0)] for _ in range(10)]
        hyp_frames = [[_box(0.0, 0.0, track_id=5)] for _ in range(10)]
        hyp_frames[4] = [_box(100.0, 0.0, track_id=5)]
        result = mota_motp(hyp_frames, gt_frames, iou_thr=0.5)
        assert result.fn == 1
        assert result.fp == 1
        assert result.ids == 0
        assert result.mota == pytest.approx(0.8, abs=1e-12)

    def test_motp_mean_dissimilarity(self):
        # two frames, one match each, with IoUs exactly 0.9 and 0.7
        gt_frames = [[_box(0.0, 0.0, track_id=0)], [_box(0.0, 0.0, track_id=0)]]
        hyp_frames = [
            [_box(_shift_for_iou(0.9), 0.0, track_id=3)],
            [_box(_shift_for_iou(0.7), 0.0, track_id=3)],
        ]
        result = mota_motp(hyp_frames, gt_frames, iou_thr=0.5)
        assert result.motp == pytest.approx(0.2, abs=1e-9)
        assert result.mota == pytest.approx(1.0)

    def test_id_switch_detected(self):
        gt_frames = [[_box(0.0, 0.0, track_id=0)] for _ in range(6)]
        hyp_frames = [
            [_box(0.0, 0.0, track_id=10 if frame < 3 else 11)]
            for frame in range(6)
        ]
        result = mota_motp(hyp_frames, gt_frames, iou_thr=0.5)
        assert result.ids == 1
        assert result.fp == 0 and result.fn == 0
        assert result.mota == pytest.approx(1.0 - 1.0 / 6.0, abs=1e-12)

    def test_switch_counted_across_gap(self):
        # the gt disappears from coverage for a frame, then is found by a
        # different hypothesis id: still an id switch versus its last match
        gt_frames = [[_box(0.0, 0.0, track_id=0)] for _ in range(5)]
        hyp_frames = [
            [_box(0.0, 0.0, track_id=10)],
            [_box(0.0, 0.0, track_id=10)],
            [],  # dropout -> FN
            [_box(0.0, 0.0, track_id=11)],
            [_box(0.0, 0.0, track_id=11)],
        ]
        result = mota_motp(hyp_frames, gt_frames, iou_thr=0.5)
        assert result.fn == 1
        assert result.ids == 1

    def test_carry_over_prevents_spurious_switch(self):
        # a newcomer with higher IoU must not steal a still-valid match
        gt_frames = [[_box(0.0, 0.0, track_id=0)] for _ in range(3)]
        incumbent = _box(0.5, 0.0, track_id=10)  # IoU ~0.78
        newcomer = _box(0.2, 0.0, track_id=11)   # IoU ~0.90
        hyp_frames = [
            [incumbent],
            [incumbent, newcomer],
            [incumbent, newcomer],
        ]
        result = mota_motp(hyp_frames, gt_frames, iou_thr=0.5)
        assert result.ids == 0
        assert result.fp == 2  # the newcomer is surplus in frames 1 and 2
        assert result.fn == 0

    def test_zero_gt_is_nan_mota(self):
        result = mota_motp([[]], [[]], iou_thr=0.5)
        assert math.isnan(result.mota)
        assert math.isnan(result.motp)

    def test_no_matches_is_nan_motp(self):
        result = mota_motp(
            [[_box(100.0, 0.0, track_id=1)]],
            [[_box(0.0, 0.0, track_id=0)]],
            iou_thr=0.5,
        )
        assert math.isnan(result.motp)
        assert result.mota == pytest.approx(1.0 - 2.0 / 1.0)

    def test_frame_alignment_validation(self):
        with pytest.raises(ValueError):
            mota_motp([[]], [[], []], iou_thr=0.5)

    # A hypothesis 50 m from its ground truth: IoU 0, so no gate in (0, 1]
    # matches it; at a gate of 0 or NaN it used to score MOTA = MOTP = 1.
    _far = ([[_box(50.0, 0.0, track_id=1)]], [[_box(0.0, 0.0, track_id=0)]])

    @pytest.mark.parametrize("iou_thr", [math.nan, 0.0, -0.5, math.nextafter(1.0, 2.0),
                                         math.inf])
    def test_threshold_outside_zero_to_one_is_refused(self, iou_thr):
        with pytest.raises(ValueError, match="iou_thr must lie in"):
            mota_motp(*self._far, iou_thr=iou_thr)

    @pytest.mark.parametrize("iou_thr", [5e-324, 1.0])
    def test_threshold_at_each_bound_is_a_gate(self, iou_thr):
        result = mota_motp(*self._far, iou_thr=iou_thr)
        assert (result.fp, result.fn, result.mota) == (1, 1, -1.0)
        assert math.isnan(result.motp)

    def test_missing_and_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            mota_motp([[_box(0, 0)]], [[_box(0, 0, track_id=0)]], iou_thr=0.5)
        dup = [_box(0, 0, track_id=1), _box(30, 0, track_id=1)]
        with pytest.raises(ValueError):
            mota_motp([dup], [[_box(0, 0, track_id=0)]], iou_thr=0.5)
