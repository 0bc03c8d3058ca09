"""Release acceptance gate.

Each test here guards one shipping criterion for the toolkit and prints a
single PASS/FAIL line (bypassing output capture) so a test run shows the
acceptance scorecard at a glance. Criteria are property-based or checked
against the independent reference implementations in oracles.py; several
carry wall-clock budgets that are asserted alongside the numeric bounds.
"""

import itertools
import json
import math
import struct
import time
from contextlib import contextmanager

import numpy as np
import pytest

from lidarpost.assigner import AnchorLabel, adaptive_assign
from lidarpost.cli import run
from lidarpost.ensemble import DetectionSet, box_vote, nms, soft_nms
from lidarpost.geometry import Box3D, Label, bev_iou, iou3d
from lidarpost.metrics import average_precision, match_frame, mota_motp
from lidarpost.pointcloud import DEFAULT_DELTA, PointCloud, RangeSpec, concat_frames
from lidarpost.tracker import Tracker, TrackerConfig, TrackState, correct_heading_flip, hungarian, predict, update
from lidarpost.voxelizer import VoxelConfig, voxelize_dynamic, voxelize_hard
from oracles import mc_bev_iou, random_box, reference_ap, reference_nms


@pytest.fixture
def criterion(capsys):
    """Context manager that prints one uncaptured PASS/FAIL line per test."""

    @contextmanager
    def _criterion(number, name):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\nACCEPTANCE {number:02d} FAIL: {name}", flush=True)
            raise
        with capsys.disabled():
            print(f"\nACCEPTANCE {number:02d} PASS: {name}", flush=True)

    return _criterion


def _vehicle(cx, cy, cz=0.0, l=4.0, w=2.0, h=1.5, heading=0.0, score=0.5,
             track_id=None):
    return Box3D(cx=cx, cy=cy, cz=cz, length=l, width=w, height=h,
                 heading=heading, score=score, label=Label.VEHICLE,
                 track_id=track_id)


class TestAcceptance:
    def test_criterion_01_rotated_iou_matches_monte_carlo(self, criterion):
        with criterion(1, "rotated IoU within 0.01 of a 1e6-sample Monte-Carlo "
                          "oracle on 200 pairs, analytic cases to 1e-6, < 60 s"):
            start = time.perf_counter()
            rng = np.random.default_rng(101)
            worst = 0.0
            for trial in range(200):
                span = 2.0 if trial % 2 == 0 else 5.0
                a = random_box(rng, span=span)
                b = random_box(rng, span=span)
                estimate = mc_bev_iou(a, b, rng, samples=10**6)
                worst = max(worst, abs(bev_iou(a, b) - estimate))
            assert worst < 0.01

            # A unit square against its quarter-turn-diagonal twin overlaps
            # in a regular octagon: IoU is exactly 1/sqrt(2).
            square = _vehicle(0.0, 0.0, l=1.0, w=1.0, h=1.0)
            tilted = _vehicle(0.0, 0.0, l=1.0, w=1.0, h=1.0,
                              heading=math.pi / 4.0)
            assert bev_iou(square, tilted) == pytest.approx(
                1.0 / math.sqrt(2.0), abs=1e-6
            )
            # Unit cubes offset by half an edge: 3D IoU is exactly 1/3.
            cube = _vehicle(0.0, 0.0, cz=0.0, l=1.0, w=1.0, h=1.0)
            shifted = _vehicle(0.5, 0.0, cz=0.0, l=1.0, w=1.0, h=1.0)
            assert iou3d(cube, shifted) == pytest.approx(1.0 / 3.0, abs=1e-6)

            assert time.perf_counter() - start < 60.0

    def test_criterion_02_nms_matches_reference(self, criterion):
        with criterion(2, "greedy NMS equals an independent quadratic "
                          "reference on 500 frames; soft-NMS at sigma 1e-6 "
                          "reproduces hard keep-sets, < 10 s"):
            start = time.perf_counter()
            rng = np.random.default_rng(202)
            labels = list(Label)
            for _ in range(500):
                n = int(rng.integers(1, 31))
                boxes = [
                    random_box(rng, span=8.0,
                               label=labels[int(rng.integers(0, 3))])
                    for _ in range(n)
                ]
                thr = float(rng.uniform(0.2, 0.8))
                assert nms(boxes, thr) == reference_nms(boxes, thr, bev_iou)

            # Clustered frames: intra-cluster overlaps are all far above any
            # threshold and clusters never touch, so an effectively-zero
            # sigma must discard exactly what hard NMS discards.
            for _ in range(50):
                boxes = []
                tag = 0
                scores = rng.permutation(
                    np.linspace(0.2, 0.95, 20)
                ).tolist()
                for cluster in range(5):
                    for _ in range(int(rng.integers(1, 5))):
                        boxes.append(Box3D(
                            cx=40.0 * cluster + float(rng.uniform(-0.3, 0.3)),
                            cy=float(rng.uniform(-0.3, 0.3)),
                            cz=0.0, length=4.0, width=2.0, height=1.5,
                            heading=0.0, score=scores[tag],
                            label=Label.VEHICLE, num_points=tag,
                        ))
                        tag += 1
                hard_keep = {boxes[i].num_points for i in nms(boxes, 0.1)}
                soft = soft_nms(boxes, sigma=1e-6, score_floor=0.001)
                assert {b.num_points for b in soft} == hard_keep

            assert time.perf_counter() - start < 10.0

    def test_criterion_03_box_voting_exact_means(self, criterion):
        with criterion(3, "box voting averages voter geometry exactly and "
                          "never touches heading or score (1000 cases)"):
            kept = _vehicle(0.0, 2.0, cz=0.5, l=4.0, w=2.0, h=1.5,
                            heading=0.0, score=0.9)
            partner = _vehicle(1.0, 3.0, cz=1.5, l=5.0, w=2.5, h=2.0,
                               heading=0.0, score=0.4)
            voted = box_vote([kept], [kept, partner], iou_thr=0.25)
            assert len(voted) == 1
            # Dyadic inputs make the two-voter means exact in floating point.
            assert voted[0].cx == 0.5
            assert voted[0].cy == 2.5
            assert voted[0].cz == 1.0
            assert voted[0].length == 4.5
            assert voted[0].width == 2.25
            assert voted[0].height == 1.75
            assert voted[0].heading == kept.heading
            assert voted[0].score == kept.score

            # Four aligned voters: mean center is exactly 1.5.
            row = [_vehicle(float(i), 0.0, l=6.0, w=4.0, score=0.8 - 0.1 * i)
                   for i in range(4)]
            voted = box_vote([row[0]], row, iou_thr=0.25)
            assert voted[0].cx == 1.5
            assert voted[0].cy == 0.0
            assert voted[0].length == 6.0

            # An empty voter pool passes the kept box through unchanged.
            lone = box_vote([kept], [_vehicle(100.0, 100.0)], iou_thr=0.25)
            assert lone[0] == kept

            rng = np.random.default_rng(303)
            for _ in range(1000):
                k = random_box(rng)
                pool = [k]
                for _ in range(int(rng.integers(0, 4))):
                    pool.append(Box3D(
                        cx=k.cx + float(rng.uniform(-0.3, 0.3)),
                        cy=k.cy + float(rng.uniform(-0.3, 0.3)),
                        cz=k.cz, length=k.length, width=k.width,
                        height=k.height,
                        heading=float(rng.uniform(-math.pi, math.pi)),
                        score=float(rng.random()), label=k.label,
                    ))
                pool.append(random_box(rng, span=60.0))
                out = box_vote([k], pool, iou_thr=0.3)
                assert out[0].heading == k.heading
                assert out[0].score == k.score
                assert out[0].label is k.label

    def test_criterion_04_hungarian_matches_exhaustive_minimum(self, criterion):
        with criterion(4, "assignment cost equals the exhaustive permutation "
                          "minimum for 100 random matrices per size up to "
                          "7x7, < 30 s"):
            start = time.perf_counter()
            rng = np.random.default_rng(404)
            for n in range(1, 8):
                for trial in range(100):
                    if trial % 4 == 0:
                        cost = rng.integers(0, 6, size=(n, n)).astype(float)
                    else:
                        cost = rng.uniform(0.0, 10.0, size=(n, n))
                    pairs = hungarian(cost)
                    assert len(pairs) == n
                    total = sum(cost[r, c] for r, c in pairs)
                    best = min(
                        sum(cost[i, perm[i]] for i in range(n))
                        for perm in itertools.permutations(range(n))
                    )
                    assert total == pytest.approx(best, abs=1e-9)
            assert time.perf_counter() - start < 30.0

    def test_criterion_05_kalman_stability_and_heading_flip(self, criterion):
        with criterion(5, "covariance stays positive-definite over 1e4 "
                          "predict/update cycles; zero-residual update fixes "
                          "the mean and contracts the trace; flip arithmetic "
                          "matches 0.05841 to 1e-5"):
            config = TrackerConfig()
            rng = np.random.default_rng(505)
            state = TrackState(
                mean=np.array([0.0, 0.0, 0.5, 0.2, 4.0, 2.0, 1.5,
                               0.4, -0.2, 0.0]),
                covariance=np.eye(10),
                id=0,
            )
            for _ in range(10_000):
                state = predict(state, config)
                np.linalg.cholesky(state.covariance)
                det = Box3D(
                    cx=float(state.mean[0] + rng.normal(0.0, 0.3)),
                    cy=float(state.mean[1] + rng.normal(0.0, 0.3)),
                    cz=float(state.mean[2] + rng.normal(0.0, 0.1)),
                    length=4.0 + float(rng.uniform(-0.2, 0.2)),
                    width=2.0 + float(rng.uniform(-0.2, 0.2)),
                    height=1.5 + float(rng.uniform(-0.1, 0.1)),
                    heading=float(state.mean[3] + rng.normal(0.0, 0.1)),
                    score=0.9, label=Label.VEHICLE,
                )
                state = update(state, det, config)
                np.linalg.cholesky(state.covariance)

            fixed = TrackState(
                mean=np.array([1.0, 2.0, 0.5, 0.3, 4.0, 2.0, 1.5,
                               0.2, -0.1, 0.0]),
                covariance=np.eye(10),
                id=1,
            )
            same = Box3D(cx=1.0, cy=2.0, cz=0.5, length=4.0, width=2.0,
                         height=1.5, heading=0.3, score=1.0,
                         label=Label.VEHICLE)
            after = update(fixed, same, config)
            assert np.array_equal(after.mean, fixed.mean)
            assert np.trace(after.covariance) < np.trace(fixed.covariance)

            assert correct_heading_flip(3.2, 0.1) == pytest.approx(
                0.05840734641020706, abs=1e-5
            )
            assert correct_heading_flip(-3.0, 0.2) == pytest.approx(
                math.pi - 3.0, abs=1e-5
            )

    def test_criterion_06_closed_loop_tracking(self, criterion):
        with criterion(6, "tracking its own ground truth gives MOTA 1.0, "
                          "MOTP 0.0, zero switches; 10% dropped detections "
                          "with gaps <= max_age still give zero switches"):
            num_frames = 50
            # Power-of-two coordinates keep every box corner exactly
            # representable, so a perfect match scores an IoU of exactly 1.
            starts = [(48.0 * i, 8.0 * i) for i in range(5)]
            velocities = [(0.5, 0.25), (0.25, 0.0), (0.125, -0.125),
                          (-0.25, 0.125), (-0.125, -0.0625)]
            gt_seq = []
            for f in range(num_frames):
                frame = [
                    _vehicle(x0 + vx * f, y0 + vy * f, score=1.0, track_id=i)
                    for i, ((x0, y0), (vx, vy)) in enumerate(
                        zip(starts, velocities)
                    )
                ]
                gt_seq.append(frame)

            config = TrackerConfig(iou_min=0.1, max_age=2, min_hits=1)

            def run_tracker(drops):
                tracker = Tracker(config)
                reported = []
                for f, frame in enumerate(gt_seq):
                    dets = [
                        _vehicle(b.cx, b.cy, score=1.0)
                        for i, b in enumerate(frame)
                        if (i, f) not in drops
                    ]
                    reported.append(
                        tracker.step(DetectionSet(f"f{f}", dets, 0, 0.1 * f))
                    )
                return reported

            perfect = run_tracker(drops=set())
            result = mota_motp(perfect, gt_seq, 0.5)
            assert result.mota == 1.0
            assert result.motp == 0.0
            assert result.ids == 0
            assert result.fp == 0
            assert result.fn == 0

            # Drop roughly 10% of detections, never at birth and never more
            # than max_age consecutive frames per object.
            rng = np.random.default_rng(606)
            drops = set()
            for i in range(5):
                streak = 0
                for f in range(1, num_frames):
                    if streak < 2 and rng.random() < 0.12:
                        drops.add((i, f))
                        streak += 1
                    else:
                        streak = 0
            rate = len(drops) / (5 * num_frames)
            assert 0.05 <= rate <= 0.15
            assert any((i, f) in drops and (i, f + 1) in drops
                       for i in range(5) for f in range(num_frames - 1))

            with_gaps = run_tracker(drops)
            gapped = mota_motp(with_gaps, gt_seq, 0.5)
            assert gapped.ids == 0
            assert gapped.fp == 0

    def test_criterion_07_ap_matches_reference(self, criterion):
        with criterion(7, "AP equals an independent all-point PR integration "
                          "to 1e-9 on 200 random mini-scenes; APH <= AP; the "
                          "0.83333 worked example is exact"):
            rng = np.random.default_rng(707)
            for _ in range(200):
                num_gt = int(rng.integers(0, 6))
                gts = [
                    _vehicle(30.0 * j + float(rng.uniform(-1.0, 1.0)),
                             float(rng.uniform(-1.0, 1.0)),
                             heading=float(rng.uniform(-0.2, 0.2)),
                             score=1.0)
                    for j in range(num_gt)
                ]
                dets = []
                for gt in gts:
                    if rng.random() < 0.75:
                        dets.append(_vehicle(
                            gt.cx + float(rng.uniform(-0.5, 0.5)),
                            gt.cy + float(rng.uniform(-0.3, 0.3)),
                            heading=gt.heading + float(rng.uniform(-0.3, 0.3)),
                            score=float(rng.random()),
                        ))
                while len(dets) < int(rng.integers(0, 9)):
                    dets.append(_vehicle(
                        -200.0 - float(rng.uniform(0.0, 50.0)),
                        100.0, score=float(rng.random()),
                    ))
                ledger = match_frame(dets, gts, 0.5)
                ap, aph = average_precision([ledger], num_gt)
                flat = [(score, j is not None)
                        for score, j in zip(ledger.scores, ledger.gt_index)]
                assert ap == pytest.approx(reference_ap(flat, num_gt),
                                           abs=1e-9)
                assert aph <= ap + 1e-12

            gts = [_vehicle(0.0, 0.0, score=1.0), _vehicle(50.0, 0.0, score=1.0)]
            dets = [
                _vehicle(0.0, 0.0, score=0.9),     # matches the first object
                _vehicle(-50.0, 0.0, score=0.8),   # spurious
                _vehicle(50.0, 0.0, score=0.7),    # matches the second object
            ]
            ap, aph = average_precision([match_frame(dets, gts, 0.5)], 2)
            assert ap == pytest.approx(5.0 / 6.0, abs=1e-12)
            assert aph == pytest.approx(5.0 / 6.0, abs=1e-12)
            assert round(ap, 5) == 0.83333

    def test_criterion_08_voxelization_conserves_points(self, criterion):
        with criterion(8, "dynamic voxelization stores every in-range point "
                          "of a 1e5-point cloud; slack-capped hard mode "
                          "equals dynamic; drop counters match a direct "
                          "tally"):
            rng = np.random.default_rng(808)
            spec = RangeSpec(0.0, 4.0, 0.0, 4.0, 0.0, 2.0)
            points = [
                (
                    float(rng.uniform(-0.5, 4.5)),
                    float(rng.uniform(-0.5, 4.5)),
                    float(rng.uniform(-0.25, 2.25)),
                    float(rng.random()),
                    0.0,
                )
                for _ in range(100_000)
            ]
            cloud = PointCloud(np.array(points), "acc", 0.0)
            in_range = sum(
                1 for x, y, z, _, _ in points
                if 0.0 <= x <= 4.0 and 0.0 <= y <= 4.0 and 0.0 <= z <= 2.0
            )

            cfg = VoxelConfig(range=spec, vx=0.25, vy=0.25, vz=0.5,
                              max_points_per_voxel=200_000,
                              max_voxels=200_000)
            dynamic = voxelize_dynamic(cloud, cfg)
            assert dynamic.stored_points == in_range
            assert dynamic.dropped_points == 0
            assert dynamic.dropped_voxels == 0

            slack = voxelize_hard(cloud, cfg)
            assert slack.stored_points == in_range
            assert np.array_equal(slack.coords, dynamic.coords)
            assert np.array_equal(slack.counts, dynamic.counts)
            assert np.array_equal(slack.point_voxel, dynamic.point_voxel)
            assert np.allclose(slack.features, dynamic.features, atol=1e-12)

            # Independent first-arrival simulation of the capped grid.
            tight_cfg = VoxelConfig(range=spec, vx=0.25, vy=0.25, vz=0.5,
                                    max_points_per_voxel=3, max_voxels=150)
            counts = {}
            refused = set()
            tally_dropped = 0
            for x, y, z, _, _ in points:
                if not (0.0 <= x <= 4.0 and 0.0 <= y <= 4.0
                        and 0.0 <= z <= 2.0):
                    continue
                key = tuple(
                    min(int((value - lo) // edge), size - 1)
                    for value, lo, edge, size in (
                        (x, 0.0, 0.25, 16),
                        (y, 0.0, 0.25, 16),
                        (z, 0.0, 0.5, 4),
                    )
                )
                if key in counts:
                    if counts[key] < 3:
                        counts[key] += 1
                    else:
                        tally_dropped += 1
                elif len(counts) < 150:
                    counts[key] = 1
                else:
                    refused.add(key)
                    tally_dropped += 1
            tight = voxelize_hard(cloud, tight_cfg)
            assert tight.dropped_points == tally_dropped
            assert tight.dropped_voxels == len(refused)
            assert tight.stored_points == sum(counts.values())
            assert tight.stored_points + tight.dropped_points == in_range

    def test_criterion_09_adaptive_threshold_hand_case(self, criterion):
        with criterion(9, "candidate IoUs {0.3, 0.5, 0.7} give an adaptive "
                          "threshold of 0.66330 +/- 1e-5 and exactly one "
                          "positive anchor"):
            gt = _vehicle(0.0, 0.0, score=1.0)

            def anchor_with_iou(t):
                # Sliding an equal box along its length by 4(1-t)/(1+t)
                # produces an overlap of exactly t.
                return _vehicle(4.0 * (1.0 - t) / (1.0 + t), 0.0)

            anchors = [anchor_with_iou(t) for t in (0.3, 0.5, 0.7)]
            result = adaptive_assign(anchors, [gt], k=3)
            threshold = result.adaptive_thresholds[0]
            assert abs(threshold - 0.66330) < 1e-5
            assert result.labels == [
                AnchorLabel.NEGATIVE, AnchorLabel.NEGATIVE,
                AnchorLabel.POSITIVE,
            ]
            assert result.gt_indices[2] == 0
            assert gt.contains_bev(anchors[2].cx, anchors[2].cy)

    def test_criterion_10_concat_properties_and_cli_golden(
        self, criterion, tmp_path
    ):
        with criterion(10, "frame concatenation is length-additive with a "
                           "constant 0.1-tagged time channel; the CLI concat "
                           "output is byte-stable across runs"):
            assert DEFAULT_DELTA == 0.1
            rng = np.random.default_rng(1010)
            for _ in range(20):
                n = int(rng.integers(0, 41))
                m = int(rng.integers(0, 41))
                cur = PointCloud(
                    np.array([(*rng.uniform(-10, 10, 3), rng.random())
                              for _ in range(n)]).reshape(-1, 4),
                    "cur", 1.0,
                )
                prev = PointCloud(
                    np.array([(*rng.uniform(-10, 10, 3), rng.random())
                              for _ in range(m)]).reshape(-1, 4),
                    "prev", 0.9,
                )
                merged = concat_frames(cur, prev, 0.25)
                assert len(merged) == n + m
                times = merged.points[:, 4]
                assert all(t == 0.0 for t in times[:n])
                assert all(t == 0.25 for t in times[n:])
                default_merge = concat_frames(cur, prev)
                assert all(t == 0.1 for t in default_merge.points[n:, 4])

            # CLI golden: the 5-channel output must be the input records
            # with the time channel spliced in, identical on every run.
            cur_rows = [struct.pack("<4f", *rng.uniform(-10, 10, 3), 0.5)
                        for _ in range(25)]
            prev_rows = [struct.pack("<4f", *rng.uniform(-10, 10, 3), 0.25)
                         for _ in range(17)]
            cur_file = tmp_path / "cur.bin"
            prev_file = tmp_path / "prev.bin"
            cur_file.write_bytes(b"".join(cur_rows))
            prev_file.write_bytes(b"".join(prev_rows))
            golden = b"".join(
                [row + struct.pack("<f", 0.0) for row in cur_rows]
                + [row + struct.pack("<f", 0.1) for row in prev_rows]
            )
            out_a = tmp_path / "a.bin"
            out_b = tmp_path / "b.bin"
            args = ["concat", "--current", str(cur_file),
                    "--previous", str(prev_file)]
            assert run(args + ["--output", str(out_a)]) == 0
            assert run(args + ["--output", str(out_b)]) == 0
            assert out_a.read_bytes() == golden
            assert out_b.read_bytes() == golden

    def test_criterion_11_ensemble_pipeline_improves_ap(
        self, criterion, tmp_path
    ):
        with criterion(11, "merging two noisy detectors then suppressing and "
                           "voting raises AP by at least 0.005 over the best "
                           "single detector, < 30 s"):
            start = time.perf_counter()
            rng = np.random.default_rng(1111)
            num_frames = 20
            starts = [(45.0 * (i % 4), 45.0 * (i // 4)) for i in range(8)]
            velocities = [(float(rng.uniform(-0.3, 0.3)),
                           float(rng.uniform(-0.3, 0.3))) for _ in range(8)]

            def record(frame, cx, cy, heading, score, track_id=None):
                rec = {
                    "frame_id": f"f{frame:02d}", "timestamp": 0.1 * frame,
                    "cx": cx, "cy": cy, "cz": 0.0, "l": 4.0, "w": 2.0,
                    "h": 1.5, "heading": heading, "score": score,
                    "label": "VEHICLE",
                }
                if track_id is not None:
                    rec["track_id"] = track_id
                return rec

            gt_records = []
            for f in range(num_frames):
                for i, ((x0, y0), (vx, vy)) in enumerate(
                    zip(starts, velocities)
                ):
                    gt_records.append(record(
                        f, x0 + vx * f, y0 + vy * f, 0.0, 1.0, track_id=i
                    ))

            def detector(drop_rate, fp_count):
                records = []
                for rec in gt_records:
                    if rng.random() < drop_rate:
                        continue
                    records.append(record(
                        int(rec["frame_id"][1:]),
                        rec["cx"] + float(rng.uniform(-0.2, 0.2)),
                        rec["cy"] + float(rng.uniform(-0.2, 0.2)),
                        float(rng.uniform(-0.1, 0.1)),
                        float(rng.uniform(0.55, 0.95)),
                    ))
                for f in range(num_frames):
                    for _ in range(fp_count):
                        records.append(record(
                            f,
                            float(rng.uniform(-100.0, -40.0)),
                            float(rng.uniform(-100.0, -40.0)),
                            0.0,
                            float(rng.uniform(0.05, 0.45)),
                        ))
                records.sort(key=lambda r: r["frame_id"])
                return records

            det_a = detector(drop_rate=0.25, fp_count=2)
            det_b = detector(drop_rate=0.25, fp_count=2)

            def write(path, records):
                with open(path, "w", encoding="utf-8") as fh:
                    for rec in records:
                        fh.write(json.dumps(rec) + "\n")

            gt_file = tmp_path / "gt.jsonl"
            a_file = tmp_path / "det_a.jsonl"
            b_file = tmp_path / "det_b.jsonl"
            pool_file = tmp_path / "pool.jsonl"
            write(gt_file, gt_records)
            write(a_file, det_a)
            write(b_file, det_b)
            # Equal-weight merge of the two detectors, frame-aligned.
            write(pool_file, sorted(det_a + det_b,
                                    key=lambda r: r["frame_id"]))

            voted_file = tmp_path / "voted.jsonl"
            assert run(["vote", "--input", str(pool_file),
                        "--nms-iou", "0.45", "--vote-iou", "0.4",
                        "--class", "VEHICLE",
                        "--output", str(voted_file)]) == 0

            def evaluate(det_file):
                report = tmp_path / f"{det_file.stem}.report"
                assert run(["eval-det", "--detections", str(det_file),
                            "--gt", str(gt_file), "--iou", "0.5",
                            "--class", "VEHICLE",
                            "--output", str(report)]) == 0
                for line in report.read_text().splitlines():
                    if line.startswith("VEHICLE.AP="):
                        return float(line.split("=", 1)[1])
                raise AssertionError("report lacks an AP line")

            ap_a = evaluate(a_file)
            ap_b = evaluate(b_file)
            ap_voted = evaluate(voted_file)
            assert 0.5 < max(ap_a, ap_b) < 0.999
            assert ap_voted >= max(ap_a, ap_b) + 0.005
            assert time.perf_counter() - start < 30.0
