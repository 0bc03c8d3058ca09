import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarpost.ensemble import DetectionSet
from lidarpost.geometry import Box3D, Label, iou3d
from lidarpost.tracker import (
    DEFAULT_CONFIG,
    OBS_DIM,
    STATE_DIM,
    Tracker,
    TrackerConfig,
    TrackState,
    _update_rows,
    associate,
    correct_heading_flip,
    hungarian,
    predict,
    update,
)
from oracles import (
    ReferenceTracker,
    brute_force_assignment,
    random_box,
    reference_predict,
    reference_update,
)


def _state(mean=None, cov=None, **kwargs):
    if mean is None:
        mean = np.zeros(STATE_DIM)
        mean[4:7] = (4.0, 2.0, 1.5)
    if cov is None:
        cov = np.eye(STATE_DIM)
    return TrackState(np.asarray(mean, dtype=float), cov, kwargs.pop("id", 0), **kwargs)


def _det(cx, cy, cz=0.0, heading=0.0, l=4.0, w=2.0, h=1.5, score=0.9,
         label=Label.VEHICLE):
    return Box3D(cx=cx, cy=cy, cz=cz, length=l, width=w, height=h,
                 heading=heading, score=score, label=label)


class TestTrackerConfig:
    def test_defaults(self):
        assert DEFAULT_CONFIG.iou_min == 0.1
        assert DEFAULT_CONFIG.max_age == 2
        assert DEFAULT_CONFIG.min_hits == 3
        assert DEFAULT_CONFIG.process_noise == 1.0
        assert DEFAULT_CONFIG.measurement_noise == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TrackerConfig(iou_min=1.5)
        with pytest.raises(ValueError):
            TrackerConfig(max_age=0)
        with pytest.raises(ValueError):
            TrackerConfig(min_hits=0)
        with pytest.raises(ValueError):
            TrackerConfig(process_noise=0.0)
        with pytest.raises(ValueError):
            TrackerConfig(measurement_noise=-1.0)

    @pytest.mark.parametrize("key", ["process_noise", "measurement_noise"])
    def test_noise_is_bounded_at_1e100(self, key):
        assert getattr(TrackerConfig(**{key: 1e100}), key) == 1e100
        with pytest.raises(ValueError, match=key):
            TrackerConfig(**{key: 1e101})


class TestTrackState:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TrackState(np.zeros(9), np.eye(STATE_DIM), 0)
        with pytest.raises(ValueError):
            TrackState(np.zeros(STATE_DIM), np.eye(9), 0)

    def test_symmetry_validation(self):
        cov = np.eye(STATE_DIM)
        cov[0, 1] = 0.5
        with pytest.raises(ValueError):
            TrackState(np.zeros(STATE_DIM), cov, 0)

    def test_counter_validation(self):
        with pytest.raises(ValueError):
            _state(hits=0)
        with pytest.raises(ValueError):
            _state(age=0)
        with pytest.raises(ValueError):
            _state(time_since_update=-1)
        with pytest.raises(ValueError):
            _state(id=-3)

    def test_internal_states_pass_the_public_checks(self):
        """predict, update and the tracker's births skip the checks; what
        they build must still pass them, with an exactly symmetric
        covariance."""
        rng = np.random.default_rng(73)
        tracker = Tracker()
        for f in range(6):
            boxes = [_det(float(4 * i + 0.1 * f + rng.normal(0.0, 0.05)), 0.0)
                     for i in range(3 + f % 2)]
            tracker.step(DetectionSet(f"f{f}", boxes, 0, float(f)))
            for s in tracker.tracks:
                assert s.mean.dtype == s.covariance.dtype == np.float64
                assert np.array_equal(s.covariance, s.covariance.T)
                TrackState(s.mean, s.covariance, s.id, s.hits,
                           s.time_since_update, s.age, s.label)

    def test_to_box_clamps_degenerate_dimensions(self):
        mean = np.zeros(STATE_DIM)
        mean[4:7] = (0.0, -1.0, 2.0)
        box = _state(mean=mean).to_box()
        assert box.length == 1e-3
        assert box.width == 1e-3
        assert box.height == 2.0
        assert box.track_id == 0


class TestPredict:
    def test_constant_velocity_motion(self):
        mean = np.zeros(STATE_DIM)
        mean[0] = 5.0
        mean[4:7] = (4.0, 2.0, 1.5)
        mean[7] = 0.5
        out = predict(_state(mean=mean))
        assert out.mean[0] == pytest.approx(5.5)
        assert out.mean[1] == 0.0
        assert out.mean[3] == 0.0
        np.testing.assert_array_equal(out.mean[4:7], mean[4:7])
        np.testing.assert_array_equal(out.mean[7:], mean[7:])

    def test_counters_increment(self):
        out = predict(_state())
        assert out.age == 2
        assert out.time_since_update == 1
        assert out.hits == 1

    def test_zero_velocity_trace_grows_by_exactly_q(self):
        # with zero velocity variance the transition leaves the trace alone,
        # so the growth is exactly trace(Q) = 10 * process_noise
        cov = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        mean = np.zeros(STATE_DIM)
        mean[:3] = (0.1, -0.2, 0.3)
        mean[4:7] = (4.0, 2.0, 1.5)
        state = TrackState(mean, cov, 0)
        out = predict(state)
        np.testing.assert_allclose(out.mean[:3], state.mean[:3], atol=1e-15)
        grown = np.trace(out.covariance) - np.trace(cov)
        assert grown == pytest.approx(10.0 * DEFAULT_CONFIG.process_noise, abs=1e-12)

    def test_positive_velocity_variance_grows_at_least_q(self):
        out = predict(_state())
        grown = np.trace(out.covariance) - np.trace(np.eye(STATE_DIM))
        assert grown >= 10.0 * DEFAULT_CONFIG.process_noise - 1e-12

    def test_two_predicts_equal_one_with_doubled_velocity(self):
        mean = np.zeros(STATE_DIM)
        mean[:3] = (1.0, 2.0, 0.5)
        mean[7:] = (0.3, -0.2, 0.1)
        twice = predict(predict(_state(mean=mean)))
        doubled = mean.copy()
        doubled[7:] *= 2.0
        once = predict(_state(mean=doubled))
        np.testing.assert_allclose(twice.mean[:3], once.mean[:3], atol=1e-12)

    def test_covariance_stays_symmetric(self):
        rng = np.random.default_rng(61)
        a = rng.normal(size=(STATE_DIM, STATE_DIM))
        cov = a @ a.T + STATE_DIM * np.eye(STATE_DIM)
        out = predict(TrackState(np.zeros(STATE_DIM), cov, 0))
        np.testing.assert_allclose(out.covariance, out.covariance.T, atol=1e-9)
        np.linalg.cholesky(out.covariance)


class TestCorrectHeadingFlip:
    def test_close_headings_unchanged(self):
        assert correct_heading_flip(0.4, 0.1) == pytest.approx(0.4)

    def test_far_heading_flipped(self):
        assert correct_heading_flip(3.2, 0.1) == pytest.approx(
            0.05840734641020706, abs=1e-12
        )

    def test_boundary_not_flipped(self):
        assert correct_heading_flip(math.pi / 2.0, 0.0) == pytest.approx(math.pi / 2.0)

    def test_result_equivalent_modulo_pi(self):
        rng = np.random.default_rng(62)
        for observed, reference in rng.uniform(-math.pi, math.pi, size=(200, 2)):
            corrected = correct_heading_flip(float(observed), float(reference))
            # corrected differs from observed by a multiple of pi
            k = (corrected - float(observed)) / math.pi
            assert abs(k - round(k)) < 1e-9
            # and is within pi/2 of the reference
            err = abs(math.remainder(corrected - float(reference), 2.0 * math.pi))
            assert err <= 0.5 * math.pi + 1e-9


class TestUpdate:
    def test_zero_residual_keeps_mean_contracts_covariance(self):
        mean = np.zeros(STATE_DIM)
        mean[:3] = (1.0, 2.0, 0.3)
        mean[4:7] = (4.0, 2.0, 1.5)
        state = _state(mean=mean)
        det = _det(1.0, 2.0, 0.3)
        out = update(state, det)
        np.testing.assert_allclose(out.mean, state.mean, atol=1e-12)
        assert np.trace(out.covariance) < np.trace(state.covariance)
        assert out.hits == 2
        assert out.time_since_update == 0

    def test_heading_flip_applied_inside_update(self):
        mean = np.zeros(STATE_DIM)
        mean[3] = 0.1
        mean[4:7] = (4.0, 2.0, 1.5)
        state = _state(mean=mean)
        det = _det(0.0, 0.0, 0.0, heading=3.2)
        tight = TrackerConfig(measurement_noise=1e-12)
        out = update(state, det, tight)
        assert out.mean[3] == pytest.approx(0.05840734641020706, abs=1e-6)

    def test_vanishing_measurement_noise_recovers_observation(self):
        rng = np.random.default_rng(63)
        tight = TrackerConfig(measurement_noise=1e-12)
        for _ in range(20):
            mean = np.zeros(STATE_DIM)
            mean[:3] = rng.uniform(-5, 5, size=3)
            mean[3] = rng.uniform(-1, 1)
            mean[4:7] = rng.uniform(1, 4, size=3)
            state = _state(mean=mean)
            det = _det(
                cx=float(mean[0] + rng.uniform(-0.5, 0.5)),
                cy=float(mean[1] + rng.uniform(-0.5, 0.5)),
                cz=float(mean[2] + rng.uniform(-0.2, 0.2)),
                heading=float(mean[3] + rng.uniform(-0.3, 0.3)),
                l=float(mean[4] + rng.uniform(-0.2, 0.2)),
                w=float(mean[5] + rng.uniform(-0.2, 0.2)),
                h=float(mean[6] + rng.uniform(-0.2, 0.2)),
            )
            out = update(state, det, tight)
            np.testing.assert_allclose(
                out.mean[:OBS_DIM],
                [det.cx, det.cy, det.cz, det.heading, det.length, det.width, det.height],
                atol=1e-6,
            )

    def test_residual_heading_wrapped_across_branch_cut(self):
        mean = np.zeros(STATE_DIM)
        mean[3] = 3.1
        mean[4:7] = (4.0, 2.0, 1.5)
        state = _state(mean=mean)
        det = _det(0.0, 0.0, heading=-3.1)  # only 2*pi - 6.2 away
        tight = TrackerConfig(measurement_noise=1e-12)
        out = update(state, det, tight)
        assert out.mean[3] == pytest.approx(-3.1, abs=1e-6)

    def test_covariance_stays_positive_definite(self):
        rng = np.random.default_rng(64)
        state = _state()
        for step in range(100):
            state = predict(state)
            det = _det(
                cx=float(state.mean[0] + rng.normal(0, 0.3)),
                cy=float(state.mean[1] + rng.normal(0, 0.3)),
                cz=float(state.mean[2] + rng.normal(0, 0.1)),
                heading=float(rng.uniform(-math.pi, math.pi)),
            )
            state = update(state, det)
            np.testing.assert_allclose(
                state.covariance, state.covariance.T, atol=1e-9
            )
            np.linalg.cholesky(state.covariance)


class TestHungarian:
    def test_two_by_two_diagonal(self):
        assert hungarian([[0.1, 0.9], [0.9, 0.1]]) == [(0, 0), (1, 1)]

    def test_single_cell(self):
        assert hungarian([[7.0]]) == [(0, 0)]

    def test_two_by_three(self):
        assert hungarian([[1.0, 2.0, 3.0], [2.0, 1.0, 3.0]]) == [(0, 0), (1, 1)]

    def test_empty_matrices(self):
        assert hungarian(np.zeros((0, 0))) == []
        assert hungarian(np.zeros((0, 3))) == []
        assert hungarian(np.zeros((3, 0))) == []

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            hungarian([[math.nan, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError):
            hungarian([[math.inf, 1.0], [1.0, 2.0]])

    def test_tie_single_column_prefers_first_row(self):
        assert hungarian([[5.0], [5.0]]) == [(0, 0)]

    def test_tie_uniform_square_is_identity(self):
        assert hungarian(np.ones((3, 3))) == [(0, 0), (1, 1), (2, 2)]

    def test_tie_uniform_wide_prefers_leading_columns(self):
        assert hungarian(np.ones((2, 3))) == [(0, 0), (1, 1)]

    def test_tie_uniform_tall_prefers_leading_rows(self):
        assert hungarian(np.ones((3, 2))) == [(0, 0), (1, 1)]

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(65)
        for _ in range(60):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 5))
            cost = rng.uniform(0.0, 1.0, size=(rows, cols))
            got = hungarian(cost)
            pairs, best_total = brute_force_assignment(cost)
            got_total = sum(cost[r, c] for r, c in got)
            assert got_total == pytest.approx(best_total, abs=1e-9)
            assert got == pairs

    def test_matches_brute_force_on_tie_heavy_matrices(self):
        rng = np.random.default_rng(66)
        for _ in range(120):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 5))
            cost = rng.integers(0, 3, size=(rows, cols)).astype(float)
            got = hungarian(cost)
            pairs, best_total = brute_force_assignment(cost)
            got_total = sum(cost[r, c] for r, c in got)
            assert got_total == pytest.approx(best_total, abs=1e-9)
            assert got == pairs, f"cost={cost.tolist()}"


class TestAssociate:
    def test_simple_match(self):
        track = _det(0.0, 0.0)
        det = _det(0.2, 0.0)
        matches, ut, ud = associate([track], [det], iou_min=0.1)
        assert matches == [(0, 0)]
        assert ut == [] and ud == []

    def test_gate_demotes_weak_overlap(self):
        track = _det(0.0, 0.0)
        det = _det(3.9, 0.0)  # tiny overlap, IoU << 0.5
        assert iou3d(track, det) < 0.5
        matches, ut, ud = associate([track], [det], iou_min=0.5)
        assert matches == []
        assert ut == [0] and ud == [0]

    @pytest.mark.parametrize("iou_min", [math.nan, -5e-324, math.nextafter(1.0, 2.0),
                                         -math.inf])
    def test_gate_outside_zero_to_one_is_refused(self, iou_min):
        with pytest.raises(ValueError, match="iou_min must lie in"):
            associate([_det(0.0, 0.0)], [_det(0.2, 0.0)], iou_min=iou_min)

    @pytest.mark.parametrize("iou_min, matches", [(0.0, [(0, 0)]), (1.0, [])])
    def test_gate_at_each_bound(self, iou_min, matches):
        # A box matches itself at either bound; disjoint boxes pair up only
        # at a gate of 0, where IoU 0 passes.
        assert associate([_det(0.0, 0.0)], [_det(0.0, 0.0)], iou_min)[0] == [(0, 0)]
        assert associate([_det(0.0, 0.0)], [_det(50.0, 0.0)], iou_min)[0] == matches

    def test_no_cross_label_matches(self):
        track = _det(0.0, 0.0, label=Label.VEHICLE)
        det = _det(0.0, 0.0, label=Label.PEDESTRIAN)
        matches, ut, ud = associate([track], [det], iou_min=0.1)
        assert matches == []
        assert ut == [0] and ud == [0]

    def test_outputs_partition_inputs(self):
        rng = np.random.default_rng(67)
        labels = [Label.VEHICLE, Label.PEDESTRIAN, Label.CYCLIST]
        for _ in range(30):
            tracks = [
                random_box(rng, span=10.0, label=labels[int(rng.integers(0, 3))])
                for _ in range(int(rng.integers(0, 6)))
            ]
            dets = [
                random_box(rng, span=10.0, label=labels[int(rng.integers(0, 3))])
                for _ in range(int(rng.integers(0, 6)))
            ]
            matches, ut, ud = associate(tracks, dets, iou_min=0.1)
            matched_t = [m[0] for m in matches]
            matched_d = [m[1] for m in matches]
            assert sorted(matched_t + ut) == list(range(len(tracks)))
            assert sorted(matched_d + ud) == list(range(len(dets)))
            for ti, dj in matches:
                assert tracks[ti].label is dets[dj].label
                assert iou3d(tracks[ti], dets[dj]) >= 0.1

    def test_three_by_three_matches_brute_force(self):
        rng = np.random.default_rng(68)
        for _ in range(40):
            tracks = [random_box(rng, span=4.0) for _ in range(3)]
            dets = [random_box(rng, span=4.0) for _ in range(3)]
            gate = 0.05
            matches, _, _ = associate(tracks, dets, iou_min=gate)

            iou = np.array([[iou3d(t, d) for d in dets] for t in tracks])
            pairs, _ = brute_force_assignment(1.0 - iou)
            expected = sorted((r, c) for r, c in pairs if iou[r, c] >= gate)
            assert matches == expected

    @staticmethod
    def _assert_sorted_partition(result, n_tracks, n_dets):
        matches, ut, ud = result
        for part in (matches, ut, ud):
            assert part == sorted(part)
        assert sorted([t for t, _ in matches] + ut) == list(range(n_tracks))
        assert sorted([d for _, d in matches] + ud) == list(range(n_dets))

    def test_label_on_one_side_only_stays_unmatched(self):
        cyclists_and_vehicle = [
            _det(0.0, 0.0, label=Label.CYCLIST),
            _det(20.0, 0.0, label=Label.VEHICLE),
            _det(40.0, 0.0, label=Label.CYCLIST),
        ]
        with_pedestrian = [
            _det(20.1, 0.0, label=Label.VEHICLE),
            _det(60.0, 0.0, label=Label.PEDESTRIAN),
            _det(40.1, 0.0, label=Label.CYCLIST),
            _det(0.1, 0.0, label=Label.CYCLIST),
        ]
        result = associate(cyclists_and_vehicle, with_pedestrian, iou_min=0.1)
        assert result == ([(0, 3), (1, 0), (2, 2)], [], [1])
        self._assert_sorted_partition(result, 3, 4)
        result = associate(with_pedestrian, cyclists_and_vehicle, iou_min=0.1)
        assert result == ([(0, 1), (2, 2), (3, 0)], [1], [])
        self._assert_sorted_partition(result, 4, 3)

    def test_empty_side(self):
        boxes = [_det(10.0 * i, 0.0, label=label)
                 for i, label in enumerate([Label.PEDESTRIAN, Label.VEHICLE, Label.CYCLIST])]
        result = associate(boxes, [], iou_min=0.1)
        assert result == ([], [0, 1, 2], [])
        self._assert_sorted_partition(result, 3, 0)
        result = associate([], boxes, iou_min=0.1)
        assert result == ([], [], [0, 1, 2])
        self._assert_sorted_partition(result, 0, 3)
        assert associate([], [], iou_min=0.1) == ([], [], [])


class TestTrackerStep:
    def test_first_frame_reports_with_first_id(self):
        tracker = Tracker(TrackerConfig(min_hits=1))
        out = tracker.step(DetectionSet(frame_id="0", boxes=[_det(1.0, 2.0)]))
        assert len(out) == 1
        assert out[0].track_id == 0
        assert out[0].cx == 1.0 and out[0].cy == 2.0

    def test_reported_box_is_the_matched_detection(self):
        tracker = Tracker(TrackerConfig(min_hits=1))
        det0 = _det(0.0, 0.0)
        tracker.step(DetectionSet(frame_id="0", boxes=[det0], timestamp=0.0))
        det1 = _det(0.4, 0.1, heading=0.05, score=0.77)
        out = tracker.step(DetectionSet(frame_id="1", boxes=[det1], timestamp=0.1))
        assert len(out) == 1
        reported = out[0]
        assert reported.track_id == 0
        # geometry and score are the detection's own, not the filtered mean
        assert (reported.cx, reported.cy, reported.cz) == (det1.cx, det1.cy, det1.cz)
        assert reported.heading == det1.heading
        assert reported.score == det1.score

    def test_new_tracks_get_fresh_ids_in_detection_order(self):
        tracker = Tracker(TrackerConfig(min_hits=1))
        out = tracker.step(
            DetectionSet(frame_id="0", boxes=[_det(0.0, 0.0), _det(30.0, 0.0)])
        )
        assert [b.track_id for b in out] == [0, 1]

    def test_track_deleted_after_max_age_and_id_not_reused(self):
        config = TrackerConfig(min_hits=1, max_age=1)
        tracker = Tracker(config)
        tracker.step(DetectionSet(frame_id="0", boxes=[_det(0.0, 0.0)], timestamp=0.0))
        assert len(tracker.tracks) == 1
        tracker.step(DetectionSet(frame_id="1", boxes=[], timestamp=0.1))
        assert len(tracker.tracks) == 1  # coasting, time_since_update = 1
        tracker.step(DetectionSet(frame_id="2", boxes=[], timestamp=0.2))
        assert len(tracker.tracks) == 0  # exceeded max_age
        out = tracker.step(
            DetectionSet(frame_id="3", boxes=[_det(0.0, 0.0)], timestamp=0.3)
        )
        assert out[0].track_id == 1  # fresh id, 0 never reissued

    def test_min_hits_gating_suppresses_coasted_tracks(self):
        # default min_hits=3: a track is reported while age <= 3 (grace) and
        # only on frames where it was actually updated
        tracker = Tracker(TrackerConfig(min_hits=3, max_age=2))
        out0 = tracker.step(DetectionSet(frame_id="0", boxes=[_det(0.0, 0.0)], timestamp=0.0))
        assert len(out0) == 1  # age 1 <= min_hits grace
        out1 = tracker.step(DetectionSet(frame_id="1", boxes=[], timestamp=0.1))
        assert out1 == []  # coasting, not updated this frame
        out2 = tracker.step(DetectionSet(frame_id="2", boxes=[_det(0.0, 0.0)], timestamp=0.2))
        assert len(out2) == 1

    def test_constant_velocity_object_keeps_one_id(self):
        tracker = Tracker(TrackerConfig(min_hits=1))
        ids = set()
        for frame in range(12):
            det = _det(0.8 * frame, -0.3 * frame, heading=0.2)
            out = tracker.step(
                DetectionSet(frame_id=str(frame), boxes=[det], timestamp=0.1 * frame)
            )
            assert len(out) == 1
            ids.add(out[0].track_id)
            assert out[0].cx == det.cx
        assert ids == {0}

    def test_two_well_separated_objects_keep_distinct_ids(self):
        tracker = Tracker(TrackerConfig(min_hits=1))
        for frame in range(8):
            dets = [
                _det(1.0 * frame, 0.0),
                _det(-40.0 - 1.0 * frame, 10.0),
            ]
            out = tracker.step(
                DetectionSet(frame_id=str(frame), boxes=dets, timestamp=0.1 * frame)
            )
            assert sorted(b.track_id for b in out) == [0, 1]
            by_id = {b.track_id: b for b in out}
            assert by_id[0].cx == pytest.approx(1.0 * frame)
            assert by_id[1].cx == pytest.approx(-40.0 - 1.0 * frame)

    def test_reported_ids_unique_within_frame(self):
        rng = np.random.default_rng(69)
        tracker = Tracker(TrackerConfig(min_hits=1))
        for frame in range(15):
            dets = [
                _det(20.0 * k + float(rng.uniform(-0.4, 0.4)),
                     float(rng.uniform(-0.4, 0.4)))
                for k in range(4)
            ]
            out = tracker.step(
                DetectionSet(frame_id=str(frame), boxes=dets, timestamp=0.1 * frame)
            )
            ids = [b.track_id for b in out]
            assert len(ids) == len(set(ids))

    def test_out_of_order_timestamps_rejected(self):
        tracker = Tracker(TrackerConfig(min_hits=1))
        tracker.step(DetectionSet(frame_id="0", boxes=[], timestamp=1.0))
        with pytest.raises(ValueError):
            tracker.step(DetectionSet(frame_id="1", boxes=[], timestamp=0.5))

    def test_equal_timestamps_allowed(self):
        tracker = Tracker(TrackerConfig(min_hits=1))
        tracker.step(DetectionSet(frame_id="0", boxes=[], timestamp=1.0))
        tracker.step(DetectionSet(frame_id="1", boxes=[], timestamp=1.0))

    def test_deterministic_replay(self):
        rng = np.random.default_rng(70)
        frames = []
        for frame in range(10):
            dets = [
                _det(
                    15.0 * k + float(rng.uniform(-0.5, 0.5)),
                    0.5 * frame + float(rng.uniform(-0.5, 0.5)),
                    score=float(rng.uniform(0.3, 1.0)),
                )
                for k in range(3)
            ]
            frames.append(DetectionSet(frame_id=str(frame), boxes=dets, timestamp=0.1 * frame))
        a = Tracker(TrackerConfig(min_hits=1))
        b = Tracker(TrackerConfig(min_hits=1))
        for frame_set in frames:
            assert a.step(frame_set) == b.step(frame_set)

    def test_tracks_created_counter(self):
        tracker = Tracker(TrackerConfig(min_hits=1))
        tracker.step(DetectionSet(frame_id="0", boxes=[_det(0, 0), _det(30, 0)]))
        assert tracker.tracks_created == 2

    @staticmethod
    def _frame_at(frame_id, boxes, timestamp):
        """A frame whose timestamp is set after construction, which refuses
        a non-finite one, so that the tracker's own check is what runs."""
        frame = DetectionSet(frame_id, boxes, 0, 0.0)
        frame.timestamp = timestamp
        return frame

    def test_non_finite_timestamp_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^frame timestamp must be finite"):
                Tracker().step(self._frame_at("0", [_det(0.0, 0.0)], bad))

    def test_rejected_nan_frame_keeps_the_order_check(self):
        """A NaN frame used to pass the order check, since every comparison
        with NaN is false, and then let any later frame through."""
        tracker = Tracker()
        tracker.step(DetectionSet("0", [], 0, 0.0))
        with pytest.raises(ValueError, match="^frame timestamp must be finite"):
            tracker.step(self._frame_at("1", [], math.nan))
        with pytest.raises(ValueError, match="temporal order"):
            tracker.step(DetectionSet("2", [], 0, -100.0))

    def test_tracks_are_copies(self):
        """Changing a state that tracks returned leaves the tracker as it was."""
        frames = [DetectionSet(str(f), [_det(0.5 * f, 0.0), _det(20.0, 0.2 * f)], 0, float(f))
                  for f in range(4)]
        touched, clean = Tracker(), Tracker()
        for frame in frames[:3]:
            touched.step(frame)
            clean.step(frame)
        for state in touched.tracks:
            state.mean[:] = 1e3
            state.covariance[:] = 0.0
            state.hits = state.age = 99
            state.time_since_update = 5
        _assert_same_boxes(touched.step(frames[3]), clean.step(frames[3]))
        _assert_same_states(touched.tracks, clean.tracks)


def _box_values(box: Box3D) -> list:
    """Each field as (type, repr): repr tells every float apart, -0.0 too."""
    return [(type(v), repr(v)) for v in (getattr(box, f.name) for f in fields(box))]


def _assert_same_boxes(got, want) -> None:
    assert [_box_values(b) for b in got] == [_box_values(b) for b in want]


def _assert_same_states(got, want) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        counters = (g.id, g.hits, g.time_since_update, g.age)
        assert counters == (w.id, w.hits, w.time_since_update, w.age)
        assert all(type(v) is int for v in counters)
        assert g.label is w.label
        assert g.mean.dtype == g.covariance.dtype == np.float64
        assert g.mean.shape == w.mean.shape and g.covariance.shape == w.covariance.shape
        assert g.mean.tobytes() == w.mean.tobytes()
        assert g.covariance.tobytes() == w.covariance.tobytes()


def _scene(rng, labels, n_objects, n_frames, drop, flip, steps, spread=15.0):
    """Frames of objects moving at constant velocity, seen with noise.

    Each detection is dropped with probability drop and reports the flipped
    heading with probability flip; a frame is empty with probability 0.1,
    and up to two false positives join it otherwise.
    """
    objects = [
        (rng.uniform(-spread, spread, 2), rng.uniform(-1.5, 1.5, 2), rng.uniform(-math.pi, math.pi),
         rng.uniform(0.5, 4.5, 3), labels[int(rng.integers(len(labels)))])
        for _ in range(n_objects)
    ]
    frames = []
    timestamp = 0.0
    for f in range(n_frames):
        timestamp += steps[f]
        boxes = []
        if rng.random() >= 0.1:
            for start, velocity, heading, dims, label in objects:
                if rng.random() < drop:
                    continue
                x, y = start + f * velocity + rng.normal(0.0, 0.2, 2)
                turned = heading + (math.pi if rng.random() < flip else 0.0)
                boxes.append(Box3D(float(x), float(y), float(rng.normal(0.0, 0.1)),
                                   *map(float, dims), heading=turned + float(rng.normal(0.0, 0.05)),
                                   score=float(rng.uniform()), label=label))
            boxes += [random_box(rng, spread, labels[int(rng.integers(len(labels)))])
                      for _ in range(int(rng.integers(3)))]
        frames.append(DetectionSet(f"f{f}", boxes, 0, timestamp))
    return frames


def _assert_steps_equal_reference(config, frames) -> None:
    tracker, reference = Tracker(config), ReferenceTracker(config)
    for frame in frames:
        _assert_same_boxes(tracker.step(frame), reference.step(frame))
        assert tracker.tracks_created == reference.tracks_created
        _assert_same_states(tracker.tracks, reference.tracks)


@st.composite
def _configs_and_scenes(draw):
    config = TrackerConfig(iou_min=draw(st.sampled_from([0.0, 0.1, 0.3])),
                           max_age=draw(st.integers(1, 3)), min_hits=draw(st.integers(1, 3)))
    labels = draw(st.sampled_from([[Label.VEHICLE], list(Label)]))
    n_frames = draw(st.integers(1, 8))
    frames = _scene(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        labels,
        n_objects=draw(st.integers(0, 8)),
        n_frames=n_frames,
        drop=draw(st.sampled_from([0.0, 0.3, 0.7])),
        flip=draw(st.sampled_from([0.0, 0.2])),
        steps=draw(st.lists(st.sampled_from([0.0, 0.1, 1.0]),
                            min_size=n_frames, max_size=n_frames)),
    )
    return config, frames


class TestAgainstReference:
    """The table tracker against the per-track reference: equal reported
    boxes with equal value types, equal ids and counters, and bit-equal
    means and covariances after every step."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_configs_and_scenes())
    def test_random_scenes(self, config_and_frames):
        _assert_steps_equal_reference(*config_and_frames)

    def test_dense_scene_in_three_classes(self):
        frames = _scene(np.random.default_rng(11), list(Label), n_objects=60, n_frames=15,
                        drop=0.1, flip=0.05, steps=[0.1] * 15, spread=40.0)
        _assert_steps_equal_reference(DEFAULT_CONFIG, frames)

    @pytest.mark.parametrize("start, later, message", [
        # A matched pair with no overlap gives a residual of inf: update()
        # wraps a heading of NaN.
        (-1e308, 1e308, "angle must be finite"),
        # A finite update whose next prediction overflows: to_box() names cx.
        (1.5e308, 1.79e308, "cx must be finite"),
    ])
    def test_non_finite_states_raise_what_the_reference_raises(self, start, later, message):
        config = TrackerConfig(iou_min=0.0, min_hits=1)
        frames = [DetectionSet(str(f), [_det(cx, 0.0)], 0, float(f))
                  for f, cx in enumerate([start, later, later, later])]
        errors = []
        for tracker in (Tracker(config), ReferenceTracker(config)):
            with pytest.raises(ValueError) as info, np.errstate(all="ignore"):
                for frame in frames:
                    tracker.step(frame)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        assert message in errors[0][1]


_NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308])


@st.composite
def _states_and_detections(draw):
    """A track state and a detection: headings at +-pi among them, observed
    headings within 1e-12 of the +-pi/2 flip, and states with one mean or
    covariance entry that is not finite or overflows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mean = rng.normal(0.0, 5.0, STATE_DIM)
    mean[3] = draw(st.sampled_from([math.pi, -math.pi]) | st.floats(-math.pi, math.pi))
    a = rng.normal(0.0, 1.0, (STATE_DIM, STATE_DIM))
    cov = draw(st.sampled_from([np.eye(STATE_DIM), a @ a.T + 0.1 * np.eye(STATE_DIM)]))
    where = draw(st.sampled_from(["none", "mean", "cov"]))
    if where == "mean":
        mean[draw(st.just(3) | st.integers(0, STATE_DIM - 1))] = draw(_NON_FINITE)
    elif where == "cov":
        i, j = draw(st.integers(0, STATE_DIM - 1)), draw(st.integers(0, STATE_DIM - 1))
        cov[i, j] = cov[j, i] = draw(_NON_FINITE)
    counters = [draw(st.integers(1, 50)) for _ in range(3)]
    state = TrackState._trusted(mean, cov, draw(st.integers(0, 99)), counters[0],
                                counters[1] - 1, counters[2], draw(st.sampled_from(list(Label))))
    flip = st.tuples(st.sampled_from([0.5 * math.pi, -0.5 * math.pi]), st.floats(-1e-12, 1e-12))
    near_flip = flip.map(lambda t: float(mean[3]) + t[0] + t[1] if math.isfinite(mean[3]) else 0.0)
    heading = draw(st.sampled_from([math.pi, -math.pi]) | st.floats(-math.pi, math.pi) | near_flip)
    det = _det(*map(float, rng.normal(0.0, 5.0, 3)), heading=heading,
               l=float(rng.uniform(0.5, 5.0)), w=float(rng.uniform(0.5, 5.0)))
    config = TrackerConfig(process_noise=draw(st.sampled_from([1.0, 0.01, 7.5])),
                           measurement_noise=draw(st.sampled_from([1.0, 1e-12, 3.0])))
    return state, det, config


def _result(fn, *args):
    """The state fn returns, as bytes and counters, or its exception."""
    try:
        with np.errstate(all="ignore"):
            out = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc), str(exc)
    counters = (out.id, out.hits, out.time_since_update, out.age, out.label)
    assert all(type(v) is int for v in counters[:4])
    assert out.mean.shape == (STATE_DIM,) and out.covariance.shape == (STATE_DIM, STATE_DIM)
    return out.mean.dtype, out.mean.tobytes(), out.covariance.tobytes(), counters


class TestOneRowAgainstReference:
    """predict and update run the stacked step on one row; the per-track
    reference_predict and reference_update are the oracle."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_states_and_detections())
    def test_predict_and_update_equal_the_reference(self, case):
        state, det, config = case
        assert _result(predict, state, config) == _result(reference_predict, state, config)
        assert _result(update, state, det, config) == _result(reference_update, state, det, config)

    def test_the_first_failing_row_raises_its_error(self):
        mean = np.zeros((2, STATE_DIM))
        mean[:, 4:7] = (4.0, 2.0, 1.5)
        mean[0, 0] = -1e308  # the cx residual overflows: the updated heading is NaN
        mean[1, 3] = math.inf  # the heading residual is not finite
        cov = np.stack([np.eye(STATE_DIM)] * 2)
        dets = [_det(1e308, 0.0), _det(0.0, 0.0)]
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError) as stacked:
                _update_rows(mean, cov, dets, DEFAULT_CONFIG)
            with pytest.raises(ValueError) as replayed:
                for i, det in enumerate(dets):
                    reference_update(TrackState(mean[i], cov[i], i), det, DEFAULT_CONFIG)
            with pytest.raises(ValueError, match="got -inf$"):
                _update_rows(mean[1:], cov[1:], dets[1:], DEFAULT_CONFIG)
        assert str(stacked.value) == str(replayed.value)
        assert str(stacked.value) == f"angle must be finite, got {np.float64(math.nan)!r}"
