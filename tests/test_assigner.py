import math

import numpy as np
import pytest

from lidarpost.assigner import AnchorLabel, AssignmentResult, adaptive_assign, fixed_assign
from lidarpost.geometry import Box3D, bev_iou
from oracles import random_box, reference_adaptive_assign


def _box(cx, cy, l=4.0, w=2.0, heading=0.0, cz=0.0, h=1.5):
    return Box3D(cx=cx, cy=cy, cz=cz, length=l, width=w, height=h, heading=heading)


def _shifted_pair_iou(t):
    """Center shift along x giving BEV IoU exactly t for two 4x2 boxes."""
    return 4.0 * (1.0 - t) / (1.0 + t)


class TestAssignmentResult:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AssignmentResult(labels=[AnchorLabel.NEGATIVE], gt_indices=[None, None])

    def test_positive_requires_gt_index(self):
        with pytest.raises(ValueError):
            AssignmentResult(labels=[AnchorLabel.POSITIVE], gt_indices=[None])
        with pytest.raises(ValueError):
            AssignmentResult(labels=[AnchorLabel.NEGATIVE], gt_indices=[0])

    def test_library_results_pass_the_check_they_skip(self):
        """fixed_assign and adaptive_assign build results without the check;
        rebuilt through the constructor, each passes it unchanged."""
        rng = np.random.default_rng(31)
        anchors = [random_box(rng, span=6.0) for _ in range(60)]
        gts = [random_box(rng, span=6.0) for _ in range(5)]
        for result in (fixed_assign(anchors, gts), fixed_assign(anchors, []),
                       adaptive_assign(anchors, gts), adaptive_assign(anchors, [])):
            assert AssignmentResult(result.labels, result.gt_indices,
                                    result.adaptive_thresholds) == result

    def test_caller_built_results_are_still_checked(self):
        rng = np.random.default_rng(32)
        anchors = [random_box(rng, span=6.0) for _ in range(60)]
        result = fixed_assign(anchors, [random_box(rng, span=6.0) for _ in range(5)])
        positive = result.labels.index(AnchorLabel.POSITIVE)
        labels = list(result.labels)
        labels[positive] = AnchorLabel.NEGATIVE
        with pytest.raises(ValueError, match="exactly for POSITIVE"):
            AssignmentResult(labels, result.gt_indices)
        with pytest.raises(ValueError, match="equal length"):
            AssignmentResult(result.labels, result.gt_indices[1:])


class TestFixedAssign:
    def test_threshold_semantics(self):
        gt = _box(0.0, 0.0)
        high = _box(_shifted_pair_iou(0.8), 0.0)   # IoU 0.8
        low = _box(_shifted_pair_iou(0.2), 0.0)    # IoU 0.2
        mid = _box(_shifted_pair_iou(0.5), 0.0)    # IoU 0.5
        result = fixed_assign([high, low, mid], [gt], pos_thr=0.6, neg_thr=0.45)
        assert result.labels == [
            AnchorLabel.POSITIVE,
            AnchorLabel.NEGATIVE,
            AnchorLabel.IGNORED,
        ]
        assert result.gt_indices == [0, None, None]

    def test_best_anchor_rescued_below_pos_threshold(self):
        gt = _box(0.0, 0.0)
        anchor = _box(_shifted_pair_iou(0.3), 0.0)  # IoU 0.3 < pos_thr
        far = _box(50.0, 50.0)
        result = fixed_assign([far, anchor], [gt], pos_thr=0.6, neg_thr=0.45)
        assert result.labels == [AnchorLabel.NEGATIVE, AnchorLabel.POSITIVE]
        assert result.gt_indices == [None, 0]

    def test_best_anchor_rule_requires_positive_iou(self):
        gt = _box(0.0, 0.0)
        far = _box(50.0, 50.0)
        result = fixed_assign([far], [gt], pos_thr=0.6, neg_thr=0.45)
        assert result.labels == [AnchorLabel.NEGATIVE]

    def test_argmax_ties_go_to_lowest_gt_index(self):
        # two identical gts: anchor Y ties on IoU and goes to gt 0 via the
        # threshold rule; anchor X is each gt's best anchor and the forcing
        # pass (applied per gt in ascending order) leaves it on the last gt.
        gt_a = _box(0.0, 0.0)
        gt_b = _box(0.0, 0.0)  # identical twin
        anchor_x = _box(0.2, 0.0)  # best anchor for both gts
        anchor_y = _box(0.5, 0.0)  # positive by threshold only
        result = fixed_assign([anchor_x, anchor_y], [gt_a, gt_b], pos_thr=0.3, neg_thr=0.1)
        assert result.labels == [AnchorLabel.POSITIVE, AnchorLabel.POSITIVE]
        assert result.gt_indices == [1, 0]

    def test_empty_gts_all_negative(self):
        anchors = [_box(0, 0), _box(1, 1)]
        result = fixed_assign(anchors, [], pos_thr=0.6, neg_thr=0.45)
        assert result.labels == [AnchorLabel.NEGATIVE, AnchorLabel.NEGATIVE]

    def test_empty_anchors_give_an_empty_result(self):
        result = fixed_assign([], [_box(0.0, 0.0), _box(5.0, 0.0)])
        assert result.labels == []
        assert result.gt_indices == []
        assert result.adaptive_thresholds is None

    def test_threshold_order_violation_rejected(self):
        with pytest.raises(ValueError):
            fixed_assign([_box(0, 0)], [_box(0, 0)], pos_thr=0.4, neg_thr=0.5)
        with pytest.raises(ValueError):
            fixed_assign([_box(0, 0)], [_box(0, 0)], pos_thr=1.2, neg_thr=0.5)
        with pytest.raises(ValueError):
            fixed_assign([_box(0, 0)], [_box(0, 0)], pos_thr=0.5, neg_thr=-0.1)

    def test_exhaustive_partition(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            anchors = [random_box(rng, span=8.0) for _ in range(15)]
            gts = [random_box(rng, span=8.0) for _ in range(3)]
            result = fixed_assign(anchors, gts, pos_thr=0.5, neg_thr=0.3)
            assert len(result.labels) == len(anchors)
            for label, gt_index in zip(result.labels, result.gt_indices):
                assert label in (
                    AnchorLabel.POSITIVE,
                    AnchorLabel.NEGATIVE,
                    AnchorLabel.IGNORED,
                )
                if label is AnchorLabel.POSITIVE:
                    assert gt_index is not None and 0 <= gt_index < len(gts)
                else:
                    assert gt_index is None

    def test_against_direct_rule_evaluation(self):
        rng = np.random.default_rng(42)
        pos_thr, neg_thr = 0.5, 0.3
        for _ in range(30):
            anchors = [random_box(rng, span=6.0) for _ in range(int(rng.integers(1, 20)))]
            gts = [random_box(rng, span=6.0) for _ in range(int(rng.integers(0, 4)))]
            result = fixed_assign(anchors, gts, pos_thr=pos_thr, neg_thr=neg_thr)

            # independent direct evaluation of the stated rules
            expected_labels = []
            expected_gts = []
            for anchor in anchors:
                ious = [bev_iou(anchor, gt) for gt in gts]
                best = max(ious) if ious else 0.0
                if ious and best >= pos_thr:
                    expected_labels.append(AnchorLabel.POSITIVE)
                    expected_gts.append(ious.index(best))
                elif best < neg_thr:
                    expected_labels.append(AnchorLabel.NEGATIVE)
                    expected_gts.append(None)
                else:
                    expected_labels.append(AnchorLabel.IGNORED)
                    expected_gts.append(None)
            for gi, gt in enumerate(gts):
                ious = [bev_iou(anchor, gt) for anchor in anchors]
                best = max(ious)
                if best > 0.0:
                    ai = ious.index(best)
                    expected_labels[ai] = AnchorLabel.POSITIVE
                    expected_gts[ai] = gi

            assert result.labels == expected_labels
            assert result.gt_indices == expected_gts


class TestAdaptiveAssign:
    def test_hand_computed_threshold(self):
        # Candidate IoUs 0.3 / 0.5 / 0.7: threshold = 0.5 + sqrt(0.08/3).
        gt = _box(0.0, 0.0)
        anchors = [
            _box(_shifted_pair_iou(0.3), 0.0),
            _box(_shifted_pair_iou(0.5), 0.0),
            _box(_shifted_pair_iou(0.7), 0.0),
        ]
        result = adaptive_assign(anchors, [gt], k=3)
        expected_thr = 0.5 + math.sqrt(0.08 / 3.0)
        assert result.adaptive_thresholds is not None
        assert result.adaptive_thresholds[0] == pytest.approx(expected_thr, abs=1e-9)
        assert result.adaptive_thresholds[0] == pytest.approx(0.66330, abs=1e-5)
        assert result.labels == [
            AnchorLabel.NEGATIVE,
            AnchorLabel.NEGATIVE,
            AnchorLabel.POSITIVE,
        ]
        assert result.gt_indices == [None, None, 0]

    def test_single_candidate_threshold_is_its_iou(self):
        gt = _box(0.0, 0.0)
        inside = _box(0.5, 0.0)  # center inside gt footprint
        result = adaptive_assign([inside], [gt], k=1)
        assert result.adaptive_thresholds[0] == pytest.approx(bev_iou(inside, gt))
        assert result.labels == [AnchorLabel.POSITIVE]

    def test_center_inside_requirement(self):
        gt = _box(0.0, 0.0)  # footprint x in [-2, 2]
        outside = _box(2.5, 0.0)  # overlaps but center outside
        result = adaptive_assign([outside], [gt], k=1)
        assert result.labels == [AnchorLabel.NEGATIVE]

    def test_no_ignored_band(self):
        rng = np.random.default_rng(43)
        anchors = [random_box(rng, span=6.0) for _ in range(25)]
        gts = [random_box(rng, span=6.0) for _ in range(3)]
        result = adaptive_assign(anchors, gts, k=5)
        assert AnchorLabel.IGNORED not in result.labels

    def test_multi_gt_anchor_goes_to_highest_iou(self):
        # one anchor centered between two gts, positive for both
        gt_a = _box(0.0, 0.0)
        gt_b = _box(0.6, 0.0)
        anchor = _box(0.5, 0.0)
        result = adaptive_assign([anchor], [gt_a, gt_b], k=1)
        # single candidate per gt -> threshold = own IoU -> positive for both;
        # winner is the gt with larger IoU (gt_b, centers 0.1 apart)
        assert result.labels == [AnchorLabel.POSITIVE]
        assert result.gt_indices == [1]

    def test_empty_gts_all_negative_with_empty_thresholds(self):
        result = adaptive_assign([_box(0, 0)], [], k=9)
        assert result.labels == [AnchorLabel.NEGATIVE]
        assert result.adaptive_thresholds == []

    def test_empty_anchors_rejected(self):
        with pytest.raises(ValueError):
            adaptive_assign([], [_box(0, 0)], k=9)

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            adaptive_assign([_box(0, 0)], [_box(0, 0)], k=0)

    def test_fewer_anchors_than_k_uses_all(self):
        # with 3 anchors, k=9 and k=3 see the same candidate set
        gt = _box(0.0, 0.0)
        anchors = [
            _box(_shifted_pair_iou(0.3), 0.0),
            _box(_shifted_pair_iou(0.5), 0.0),
            _box(_shifted_pair_iou(0.7), 0.0),
        ]
        wide = adaptive_assign(anchors, [gt], k=9)
        tight = adaptive_assign(anchors, [gt], k=3)
        assert wide.labels == tight.labels
        assert wide.gt_indices == tight.gt_indices
        assert wide.adaptive_thresholds == pytest.approx(tight.adaptive_thresholds)

    def test_posthoc_invariant(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            anchors = [random_box(rng, span=5.0) for _ in range(20)]
            gts = [random_box(rng, span=5.0) for _ in range(3)]
            result = adaptive_assign(anchors, gts, k=6)
            for ai, (label, gi) in enumerate(zip(result.labels, result.gt_indices)):
                if label is not AnchorLabel.POSITIVE:
                    continue
                gt = gts[gi]
                assert bev_iou(anchors[ai], gt) >= result.adaptive_thresholds[gi] - 1e-12
                assert gt.contains_bev(anchors[ai].cx, anchors[ai].cy)

    def test_against_direct_rule_evaluation(self):
        rng = np.random.default_rng(45)
        for trial in range(30):
            k = int(rng.integers(1, 8))
            anchors = [random_box(rng, span=5.0) for _ in range(int(rng.integers(1, 20)))]
            gts = [random_box(rng, span=5.0) for _ in range(int(rng.integers(1, 4)))]
            result = adaptive_assign(anchors, gts, k=k)

            # independent implementation with explicit tie keys
            per_anchor = [dict() for _ in anchors]
            thresholds = []
            for gi, gt in enumerate(gts):
                ranked = sorted(
                    range(len(anchors)),
                    key=lambda i: (
                        math.hypot(anchors[i].cx - gt.cx, anchors[i].cy - gt.cy),
                        i,
                    ),
                )[:k]
                ious = [bev_iou(anchors[i], gt) for i in ranked]
                mean = sum(ious) / len(ious)
                var = sum((v - mean) ** 2 for v in ious) / len(ious)
                thr = mean + math.sqrt(var)
                thresholds.append(thr)
                for i, v in zip(ranked, ious):
                    if v >= thr and gt.contains_bev(anchors[i].cx, anchors[i].cy):
                        per_anchor[i][gi] = v
            expected_labels = []
            expected_gts = []
            for cand in per_anchor:
                if not cand:
                    expected_labels.append(AnchorLabel.NEGATIVE)
                    expected_gts.append(None)
                else:
                    best_gi = min(cand, key=lambda gi: (-cand[gi], gi))
                    expected_labels.append(AnchorLabel.POSITIVE)
                    expected_gts.append(best_gi)

            assert result.labels == expected_labels, f"trial {trial}"
            assert result.gt_indices == expected_gts
            assert len(result.adaptive_thresholds) == len(gts)
            for got, want in zip(result.adaptive_thresholds, thresholds):
                assert got == pytest.approx(want, abs=1e-9)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(46)
        factor = 2.7
        for _ in range(10):
            anchors = [random_box(rng, span=5.0) for _ in range(12)]
            gts = [random_box(rng, span=5.0) for _ in range(2)]

            def scaled(box):
                return Box3D(
                    cx=box.cx * factor, cy=box.cy * factor, cz=box.cz * factor,
                    length=box.length * factor, width=box.width * factor,
                    height=box.height * factor, heading=box.heading,
                )

            base_fixed = fixed_assign(anchors, gts, pos_thr=0.5, neg_thr=0.3)
            scaled_fixed = fixed_assign(
                [scaled(a) for a in anchors], [scaled(g) for g in gts],
                pos_thr=0.5, neg_thr=0.3,
            )
            assert base_fixed.labels == scaled_fixed.labels
            assert base_fixed.gt_indices == scaled_fixed.gt_indices

            base_adaptive = adaptive_assign(anchors, gts, k=5)
            scaled_adaptive = adaptive_assign(
                [scaled(a) for a in anchors], [scaled(g) for g in gts], k=5
            )
            assert base_adaptive.labels == scaled_adaptive.labels
            assert base_adaptive.gt_indices == scaled_adaptive.gt_indices


class TestNearestCandidates:
    """adaptive_assign sorts only the distances at or below the k-th
    smallest; the oracle sorts them all (stable), so ties go to the lower
    anchor index in both."""

    @staticmethod
    def _grid(n_side, stride):
        """Anchors on a square grid, two headings per center, as a detector's
        anchor file lays them out: every distance is shared at least twice."""
        anchors = []
        for x in np.arange(n_side) * stride:
            for y in np.arange(n_side) * stride:
                for heading in (0.0, 1.5708):
                    anchors.append(Box3D(cx=float(x), cy=float(y), cz=-0.9, length=4.5,
                                         width=1.9, height=1.6, heading=heading))
        return anchors

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 9, 10, 49, 50, 51, 200])
    def test_grid_with_duplicate_centers_matches_the_oracle(self, k):
        rng = np.random.default_rng(k)
        anchors = self._grid(5, 1.5)
        # Ground truths on grid points, half-way between them and off the grid.
        gts = [_box(float(x), float(y), l=4.0, w=1.8, heading=float(h))
               for x, y, h in [(3.0, 3.0, 0.0), (2.25, 3.0, 0.3), (0.75, 0.75, 1.5708),
                               (*rng.uniform(0.0, 6.0, 2), rng.uniform(-3.0, 3.0))]]
        result = adaptive_assign(anchors, gts, k)
        expected = reference_adaptive_assign(anchors, gts, k)
        assert result.labels == expected.labels
        assert result.gt_indices == expected.gt_indices
        assert result.adaptive_thresholds == expected.adaptive_thresholds

    def test_k_at_and_beyond_the_anchor_count_matches_the_oracle(self):
        rng = np.random.default_rng(47)
        for trial in range(40):
            anchors = [random_box(rng, span=3.0) for _ in range(int(rng.integers(1, 9)))]
            # Copies put several anchors at one distance.
            anchors += anchors[: int(rng.integers(0, len(anchors) + 1))]
            gts = [random_box(rng, span=3.0) for _ in range(int(rng.integers(1, 4)))]
            for k in (len(anchors) - 1, len(anchors), len(anchors) + 1, 1000):
                if k < 1:
                    continue
                result = adaptive_assign(anchors, gts, k)
                expected = reference_adaptive_assign(anchors, gts, k)
                assert result.labels == expected.labels, (trial, k)
                assert result.gt_indices == expected.gt_indices, (trial, k)
                assert result.adaptive_thresholds == expected.adaptive_thresholds, (trial, k)
