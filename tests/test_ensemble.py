import builtins
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarpost.ensemble import (
    DEFAULT_NMS_IOU,
    DEFAULT_SOFT_NMS_FLOOR,
    DEFAULT_SOFT_NMS_SIGMA,
    DEFAULT_VOTE_IOU,
    DetectionSet,
    box_vote,
    ensemble_pair,
    merge_sources,
    nms,
    soft_nms,
)
from lidarpost.geometry import Box3D, Label, bev_iou
from oracles import (
    compensated_sum,
    random_box,
    reference_box_vote,
    reference_classwise_nms,
    reference_nms,
)


def _box(cx, cy, score, label=Label.VEHICLE, l=4.0, w=2.0, heading=0.0, cz=0.0, h=1.5,
         num_points=None, source_id=None):
    return Box3D(
        cx=cx, cy=cy, cz=cz, length=l, width=w, height=h, heading=heading,
        score=score, label=label, num_points=num_points, source_id=source_id,
    )


def _shift_for_iou(t):
    """x-offset producing BEV IoU exactly t between two 4x2 boxes."""
    return 4.0 * (1.0 - t) / (1.0 + t)


class TestDefaults:
    def test_documented_default_values(self):
        assert DEFAULT_NMS_IOU == {"VEHICLE": 0.7, "PEDESTRIAN": 0.5, "CYCLIST": 0.5}
        assert DEFAULT_VOTE_IOU == 0.55
        assert DEFAULT_SOFT_NMS_SIGMA == 0.5
        assert DEFAULT_SOFT_NMS_FLOOR == 0.001


class TestNms:
    def test_single_box_kept(self):
        assert nms([_box(0, 0, 0.9)], iou_thr=0.7) == [0]

    def test_three_box_example(self):
        a = _box(0.0, 0.0, 0.9)
        b = _box(_shift_for_iou(0.8), 0.0, 0.8)  # IoU(A,B) = 0.8
        c = _box(50.0, 50.0, 0.5)
        assert nms([a, b, c], iou_thr=0.7) == [0, 2]

    def test_threshold_is_strict_below(self):
        a = _box(0.0, 0.0, 0.9)
        b = _box(_shift_for_iou(0.7), 0.0, 0.8)  # IoU exactly ~0.7
        # at the threshold the later box is suppressed (kept needs < thr)
        iou = bev_iou(a, b)
        assert nms([a, b], iou_thr=iou) == [0]
        assert nms([a, b], iou_thr=iou + 1e-9) == [0, 1]

    def test_class_wise_suppression(self):
        a = _box(0.0, 0.0, 0.9, label=Label.VEHICLE)
        b = _box(0.1, 0.0, 0.8, label=Label.PEDESTRIAN)
        assert nms([a, b], iou_thr=0.1) == [0, 1]

    def test_keep_order_is_score_order(self):
        boxes = [_box(0, 0, 0.5), _box(30, 0, 0.9), _box(60, 0, 0.7)]
        assert nms(boxes, iou_thr=0.5) == [1, 2, 0]

    def test_score_ties_broken_by_lower_index(self):
        a = _box(0.0, 0.0, 0.8)
        b = _box(0.05, 0.0, 0.8)
        assert nms([a, b], iou_thr=0.5) == [0]

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            nms([_box(0, 0, 0.5)], iou_thr=1.5)
        with pytest.raises(ValueError):
            nms([_box(0, 0, 0.5)], iou_thr=-0.1)

    def test_empty_input(self):
        assert nms([], iou_thr=0.5) == []

    def test_matches_reference_scan(self):
        rng = np.random.default_rng(51)
        labels = [Label.VEHICLE, Label.PEDESTRIAN, Label.CYCLIST]
        for _ in range(100):
            n = int(rng.integers(0, 25))
            boxes = [
                random_box(rng, span=12.0, label=labels[int(rng.integers(0, 3))])
                for _ in range(n)
            ]
            thr = float(rng.uniform(0.05, 0.95))
            assert nms(boxes, iou_thr=thr) == reference_nms(boxes, thr, bev_iou)

    def test_kept_set_is_an_antichain(self):
        rng = np.random.default_rng(52)
        for _ in range(30):
            boxes = [random_box(rng, span=8.0) for _ in range(20)]
            thr = 0.3
            kept = nms(boxes, iou_thr=thr)
            for i, a in enumerate(kept):
                for b in kept[i + 1 :]:
                    assert bev_iou(boxes[a], boxes[b]) < thr

    def test_idempotent_on_kept_set(self):
        rng = np.random.default_rng(53)
        boxes = [random_box(rng, span=8.0) for _ in range(20)]
        kept = nms(boxes, iou_thr=0.3)
        survivors = [boxes[i] for i in kept]
        assert nms(survivors, iou_thr=0.3) == list(range(len(survivors)))


CLASS_NAMES = list(Label.__members__)
THRESHOLDS = st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0])


@st.composite
def classwise_frames(draw):
    """Up to 14 boxes crowded into a few meters, of all three classes or of
    one, with scores drawn from a short list so that some are shared."""
    labels = draw(st.sampled_from([tuple(Label)] + [(label,) for label in Label]))
    coord = st.floats(-3.0, 3.0)
    dim = st.floats(0.5, 4.0)
    score = st.sampled_from([0.2, 0.5, 0.9]) | st.floats(0.0, 1.0)
    return [
        Box3D(cx=draw(coord), cy=draw(coord), cz=0.0, length=draw(dim), width=draw(dim),
              height=1.5, heading=draw(st.floats(-3.0, 3.0)), score=draw(score),
              label=draw(st.sampled_from(labels)))
        for _ in range(draw(st.integers(0, 14)))
    ]


class TestClasswiseThresholds:
    """nms takes a map from every class name to its threshold and holds each
    class to its own, in one loop; the reference splits the frame by class."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(classwise_frames(), st.fixed_dictionaries({name: THRESHOLDS for name in CLASS_NAMES}),
           THRESHOLDS)
    def test_matches_one_scan_per_class(self, boxes, thresholds, thr):
        assert nms(boxes, thresholds) == reference_classwise_nms(boxes, thresholds, bev_iou)
        assert nms(boxes, thr) == nms(boxes, dict.fromkeys(CLASS_NAMES, thr))

    def test_each_class_gets_its_own_threshold(self):
        # Both pairs overlap at IoU 0.6: above the 0.5 pedestrian threshold
        # and below the 0.7 vehicle one.
        shift = _shift_for_iou(0.6)
        boxes = [_box(0.0, 0.0, 0.9), _box(shift, 0.0, 0.8),
                 _box(0.0, 0.0, 0.7, label=Label.PEDESTRIAN),
                 _box(shift, 0.0, 0.6, label=Label.PEDESTRIAN)]
        assert nms(boxes, DEFAULT_NMS_IOU) == [0, 1, 2]

    @pytest.mark.parametrize("thresholds", [
        {"VEHICLE": 0.7, "PEDESTRIAN": 0.5},
        {**DEFAULT_NMS_IOU, "TRUCK": 0.5},
        {**DEFAULT_NMS_IOU, "CYCLIST": 1.5},
        {**DEFAULT_NMS_IOU, "VEHICLE": -0.1},
        {**DEFAULT_NMS_IOU, "PEDESTRIAN": math.nan},
    ], ids=["missing", "unknown", "above-1", "below-0", "nan"])
    @pytest.mark.parametrize("count", [0, 4])
    def test_bad_map_raises_before_any_pair_is_scored(self, thresholds, count):
        calls = []

        def recording_iou(a, b):
            calls.append((a, b))
            return bev_iou(a, b)

        boxes = [_box(0.1 * i, 0.0, 0.9 - 0.1 * i, label=label)
                 for i, label in zip(range(count), [*Label, Label.VEHICLE])]
        with pytest.raises(ValueError, match="iou_thr"):
            nms(boxes, thresholds, iou_fn=recording_iou)
        assert calls == []


class TestSoftNms:
    def test_disjoint_scores_unchanged(self):
        boxes = [_box(0, 0, 0.9), _box(50, 0, 0.6)]
        out = soft_nms(boxes, sigma=0.5, score_floor=0.001)
        assert [b.score for b in out] == [0.9, 0.6]

    def test_gaussian_decay_value(self):
        # IoU 0.8 against the winner: 0.9 * exp(-0.64/0.5) = 0.2502335704078748
        a = _box(0.0, 0.0, 0.95)
        b = _box(_shift_for_iou(0.8), 0.0, 0.9)
        out = soft_nms([a, b], sigma=0.5, score_floor=0.001)
        assert len(out) == 2
        assert out[0].score == 0.95
        assert out[1].score == pytest.approx(0.2502335704078748, abs=1e-9)

    def test_output_sorted_by_final_score(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            boxes = [random_box(rng, span=6.0) for _ in range(15)]
            out = soft_nms(boxes, sigma=0.5, score_floor=0.001)
            scores = [b.score for b in out]
            assert scores == sorted(scores, reverse=True)

    def test_floor_discards_rescored_boxes_only(self):
        a = _box(0.0, 0.0, 0.9)
        b = _box(0.1, 0.0, 0.05)  # heavy overlap, rescored far below floor
        c = _box(50.0, 0.0, 0.02)  # low score but never rescored -> kept
        out = soft_nms([a, b, c], sigma=0.1, score_floor=0.01)
        kept_positions = [(box.cx, box.score) for box in out]
        assert (0.0, 0.9) in kept_positions
        assert (50.0, 0.02) in kept_positions
        assert len(out) == 2

    def test_different_labels_not_rescored(self):
        a = _box(0.0, 0.0, 0.9, label=Label.VEHICLE)
        b = _box(0.1, 0.0, 0.6, label=Label.PEDESTRIAN)
        out = soft_nms([a, b], sigma=0.1, score_floor=0.001)
        assert sorted(box.score for box in out) == [0.6, 0.9]

    def test_tiny_sigma_equals_hard_nms_on_clustered_scene(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            boxes = []
            tag = 0
            for cluster in range(5):
                base_x = 40.0 * (cluster % 3)
                base_y = 40.0 * (cluster // 3)
                for _ in range(int(rng.integers(1, 4))):
                    boxes.append(
                        _box(
                            base_x + float(rng.uniform(-0.3, 0.3)),
                            base_y + float(rng.uniform(-0.3, 0.3)),
                            score=float(rng.uniform(0.05, 1.0)),
                            num_points=tag,
                        )
                    )
                    tag += 1
            hard_kept = {boxes[i].num_points for i in nms(boxes, iou_thr=0.1)}
            soft_kept = {
                b.num_points
                for b in soft_nms(boxes, sigma=1e-6, score_floor=0.001)
            }
            assert hard_kept == soft_kept

    def test_validation(self):
        with pytest.raises(ValueError):
            soft_nms([_box(0, 0, 0.5)], sigma=0.0, score_floor=0.001)
        with pytest.raises(ValueError):
            soft_nms([_box(0, 0, 0.5)], sigma=0.5, score_floor=1.0)


class TestBoxVote:
    def test_two_voter_mean(self):
        kept = _box(0.0, 0.0, 0.9)
        other = _box(1.0, 0.0, 0.4)  # IoU (4-1)/(4+1) = 0.6 > 0.55
        voted = box_vote([kept], [kept, other], iou_thr=0.55)
        assert len(voted) == 1
        out = voted[0]
        assert out.cx == pytest.approx(0.5)
        assert out.cy == pytest.approx(0.0)
        assert out.score == 0.9          # score untouched
        assert out.heading == kept.heading  # heading untouched
        assert out.label is kept.label

    def test_geometry_mean_is_unweighted(self):
        kept = _box(0.0, 0.0, 0.9, l=4.0, w=2.0, h=1.5)
        other = Box3D(cx=0.5, cy=0.1, cz=0.4, length=4.4, width=2.2, height=1.7,
                      heading=0.0, score=0.1, label=Label.VEHICLE)
        voted = box_vote([kept], [kept, other], iou_thr=0.3)[0]
        assert voted.cx == pytest.approx(0.25)
        assert voted.cy == pytest.approx(0.05)
        assert voted.cz == pytest.approx(0.2)
        assert voted.length == pytest.approx(4.2)
        assert voted.width == pytest.approx(2.1)
        assert voted.height == pytest.approx(1.6)

    def test_self_vote_identity(self):
        kept = _box(1.0, 2.0, 0.7, heading=0.4)
        voted = box_vote([kept], [kept], iou_thr=0.55)[0]
        assert voted == kept

    def test_no_voters_passes_through(self):
        kept = _box(0.0, 0.0, 0.9)
        other = _box(1.0, 0.0, 0.4)  # IoU 0.6, below 0.99 threshold -> no voters...
        voted = box_vote([kept], [other], iou_thr=0.99)
        assert voted[0] == kept

    def test_strictly_above_threshold_required(self):
        kept = _box(0.0, 0.0, 0.9)
        other = _box(1.0, 0.0, 0.4)  # IoU exactly 0.6
        iou = bev_iou(kept, other)
        voted_at = box_vote([kept], [other], iou_thr=iou)  # strict > -> excluded
        assert voted_at[0] == kept
        # just below the threshold the lone voter's coordinates win outright
        voted_below = box_vote([kept], [other], iou_thr=iou - 1e-9)
        assert voted_below[0].cx == pytest.approx(1.0)
        assert voted_below[0].score == 0.9

    def test_different_label_voters_excluded(self):
        kept = _box(0.0, 0.0, 0.9, label=Label.VEHICLE)
        other = _box(0.1, 0.0, 0.8, label=Label.PEDESTRIAN)
        voted = box_vote([kept], [kept, other], iou_thr=0.3)[0]
        assert voted.cx == pytest.approx(0.0)

    def test_heading_and_score_never_touched(self):
        rng = np.random.default_rng(56)
        for _ in range(100):
            pool = [random_box(rng, span=4.0) for _ in range(8)]
            kept_indices = nms(pool, iou_thr=0.5)
            kept = [pool[i] for i in kept_indices]
            voted = box_vote(kept, pool, iou_thr=0.55)
            assert len(voted) == len(kept)
            for before, after in zip(kept, voted):
                assert after.heading == before.heading
                assert after.score == before.score
                assert after.label is before.label

    def test_means_add_left_to_right_whatever_the_python(self, monkeypatch):
        # 0.1 + 0.2 + 0.3 is 0.6000000000000001 added left to right, and 0.6
        # compensated, as the built-in sum adds from Python 3.12 on.
        kept = _box(0.2, 0.0, 0.9)
        pool = [_box(0.1, 0.0, 0.5), kept, _box(0.3, 0.0, 0.4)]
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        voted = box_vote([kept], pool, iou_thr=0.55)
        assert voted[0].cx == 0.20000000000000004
        assert voted == reference_box_vote([kept], pool, 0.55, bev_iou)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            box_vote([], [], iou_thr=0.0)
        with pytest.raises(ValueError):
            box_vote([], [], iou_thr=1.5)


class TestMergeSources:
    def test_concatenation_order_and_tagging(self):
        s0 = DetectionSet(frame_id="f", boxes=[_box(0, 0, 0.9), _box(9, 0, 0.8)], source_id=0)
        s1 = DetectionSet(frame_id="f", boxes=[], source_id=1)
        s2 = DetectionSet(
            frame_id="f", boxes=[_box(20, 0, 0.7), _box(30, 0, 0.6), _box(40, 0, 0.5)],
            source_id=2,
        )
        merged = merge_sources([s0, s1, s2])
        assert merged.frame_id == "f"
        assert [b.cx for b in merged.boxes] == [0, 9, 20, 30, 40]
        assert [b.source_id for b in merged.boxes] == [0, 0, 2, 2, 2]

    def test_boxes_with_a_source_id_keep_it(self):
        s0 = DetectionSet(frame_id="f", boxes=[_box(0, 0, 0.9), _box(9, 0, 0.8, source_id=1)],
                          source_id=0)
        s1 = DetectionSet(frame_id="f", boxes=[_box(20, 0, 0.7)], source_id=2)
        merged = merge_sources([s0, s1])
        assert [b.source_id for b in merged.boxes] == [0, 1, 2]

    def test_mixed_frames_rejected(self):
        s0 = DetectionSet(frame_id="a", boxes=[])
        s1 = DetectionSet(frame_id="b", boxes=[])
        with pytest.raises(ValueError):
            merge_sources([s0, s1])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            merge_sources([])

    def test_single_source_is_identity_modulo_tags(self):
        s0 = DetectionSet(frame_id="f", boxes=[_box(0, 0, 0.9)], source_id=7)
        merged = merge_sources([s0])
        assert merged.boxes[0].source_id == 7
        assert merged.boxes[0].cx == 0.0


class TestEnsemblePair:
    def test_score_scaling(self):
        a = DetectionSet(frame_id="f", boxes=[_box(0, 0, 0.5)], source_id=0)
        b = DetectionSet(frame_id="f", boxes=[_box(30, 0, 1.0)], source_id=1)
        out = ensemble_pair(a, b, 0.8, 0.6, iou_thr=0.7)
        scores = sorted(box.score for box in out.boxes)
        assert scores == [pytest.approx(0.4), pytest.approx(0.6)]

    def test_disjoint_union_with_full_weights(self):
        a = DetectionSet(frame_id="f", boxes=[_box(0, 0, 0.5)], source_id=0)
        b = DetectionSet(frame_id="f", boxes=[_box(30, 0, 0.9)], source_id=1)
        out = ensemble_pair(a, b, 1.0, 1.0, iou_thr=0.7)
        assert len(out.boxes) == 2

    def test_duplicate_suppressed_keeps_higher_weighted(self):
        shared = _box(0.0, 0.0, 0.9)
        a = DetectionSet(frame_id="f", boxes=[shared], source_id=0)
        b = DetectionSet(frame_id="f", boxes=[shared], source_id=1)
        out = ensemble_pair(a, b, 1.0, 0.6, iou_thr=0.7)
        assert len(out.boxes) == 1
        assert out.boxes[0].score == pytest.approx(0.9)
        assert out.boxes[0].source_id == 0

    def test_invalid_weights_rejected(self):
        a = DetectionSet(frame_id="f", boxes=[])
        b = DetectionSet(frame_id="f", boxes=[])
        for w in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                ensemble_pair(a, b, w, 1.0, iou_thr=0.7)

    def test_equals_nms_over_weighted_merge(self):
        rng = np.random.default_rng(57)
        for _ in range(20):
            boxes_a = [random_box(rng, span=10.0) for _ in range(8)]
            boxes_b = [random_box(rng, span=10.0) for _ in range(8)]
            a = DetectionSet(frame_id="f", boxes=boxes_a, source_id=0)
            b = DetectionSet(frame_id="f", boxes=boxes_b, source_id=1)
            out = ensemble_pair(a, b, 0.9, 0.7, iou_thr=0.5)

            def rescale(box, w, sid):
                score = min(1.0, max(0.0, box.score * w))
                return Box3D(
                    cx=box.cx, cy=box.cy, cz=box.cz, length=box.length,
                    width=box.width, height=box.height, heading=box.heading,
                    score=score, label=box.label, source_id=sid,
                )

            pool = [rescale(x, 0.9, 0) for x in boxes_a] + [
                rescale(x, 0.7, 1) for x in boxes_b
            ]
            expected = [pool[i] for i in nms(pool, iou_thr=0.5)]
            assert out.boxes == expected


class TestPermutationStability:
    def test_nms_survivor_set_stable_under_input_shuffle(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            boxes = [random_box(rng, span=10.0) for _ in range(15)]
            # make scores unique so ordering is fully determined by score
            boxes = [
                Box3D(
                    cx=b.cx, cy=b.cy, cz=b.cz, length=b.length, width=b.width,
                    height=b.height, heading=b.heading,
                    score=round(0.05 + 0.9 * i / 15.0, 6), label=b.label,
                )
                for i, b in enumerate(boxes)
            ]
            kept = {id(boxes[i]) for i in nms(boxes, iou_thr=0.4)}
            shuffled = list(boxes)
            rng.shuffle(shuffled)
            kept_shuffled = {id(shuffled[i]) for i in nms(shuffled, iou_thr=0.4)}
            assert kept == kept_shuffled
