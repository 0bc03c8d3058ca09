"""Seeded fixture generator for the lidarpost benchmark.

``generate(workload, seed, out_dir, scale)`` writes the input files of one
workload and returns a manifest: the file paths plus the facts the output
checks need (point counts, ground-truth counts per class, frame count).
The same seed and scale always give byte-identical files.

Counts that drive the amount of work (objects per class, detections per
object, false positives, dropped detections) are fixed by the scale; the
seed only moves, sizes and scores the boxes and points. That keeps the work
per repetition nearly the same from seed to seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List

import numpy as np

WORKLOADS = ("sweep", "detect", "track")
CLASS_SHARE = (0.6, 0.25, 0.15)
# Mean (length, width, height) per class, in metres.
CLASS_DIMS = {
    "VEHICLE": (4.5, 1.9, 1.6),
    "PEDESTRIAN": (0.8, 0.8, 1.8),
    "CYCLIST": (1.8, 0.7, 1.7),
}
# Largest per-frame speed per class, in metres per frame step.
CLASS_SPEED = {"VEHICLE": 1.5, "PEDESTRIAN": 0.15, "CYCLIST": 0.5}
# Detections per true object in detector A, before permutation: mean 2.5,
# so 100 objects give 250 true detections per frame.
DETS_PER_OBJECT = (1, 1, 2, 2, 3, 3, 3, 4, 5, 1)
# Headings stay strictly inside (-pi, pi] after 4-decimal rounding, so a
# box read and written back keeps its exact heading value.
HEADING_MAX = 3.1415
VOXEL = (0.1, 0.1, 0.15)
RANGE_MIN = (-75.2, -75.2, -2.0)


@dataclass(frozen=True)
class Scale:
    sweep_points: int
    pile_share: float
    pile_voxels: int
    det_frames: int
    det_objects: int
    det_fp: int
    anchor_frames: int
    anchor_stride: float
    track_objects: int
    track_segments: int
    track_frames: int  # per segment
    track_drops: int
    track_fp: int


FULL = Scale(
    sweep_points=150_000,
    pile_share=0.3,
    pile_voxels=8,
    det_frames=10,
    det_objects=100,
    det_fp=50,
    anchor_frames=2,
    anchor_stride=1.5,
    track_objects=150,
    track_segments=3,
    track_frames=10,
    track_drops=15,
    track_fp=10,
)

TINY = Scale(
    sweep_points=3_000,
    pile_share=0.3,
    pile_voxels=4,
    det_frames=2,
    det_objects=10,
    det_fp=5,
    anchor_frames=1,
    anchor_stride=10.0,
    track_objects=12,
    track_segments=2,
    track_frames=3,
    track_drops=1,
    track_fp=1,
)


def class_counts(n: int) -> Dict[str, int]:
    """Objects per class for n objects: 60% / 25% / 15%, rest to CYCLIST."""
    vehicles = int(round(CLASS_SHARE[0] * n))
    pedestrians = int(round(CLASS_SHARE[1] * n))
    return {"VEHICLE": vehicles, "PEDESTRIAN": pedestrians, "CYCLIST": n - vehicles - pedestrians}


def _labels(n: int) -> List[str]:
    return [label for label, count in class_counts(n).items() for _ in range(count)]


def _r(value: float) -> float:
    return round(float(value), 4)


def _heading(value: float) -> float:
    wrapped = (value + math.pi) % (2.0 * math.pi) - math.pi
    return _r(min(max(wrapped, -HEADING_MAX), HEADING_MAX))


def _record(frame_id, timestamp, box, score, label, **optional) -> str:
    cx, cy, cz, length, width, height, heading = box
    record = {
        "frame_id": frame_id,
        "timestamp": timestamp,
        "cx": _r(cx),
        "cy": _r(cy),
        "cz": _r(cz),
        "l": _r(length),
        "w": _r(width),
        "h": _r(height),
        "heading": _heading(heading),
        "score": _r(score),
        "label": label,
    }
    record.update(optional)
    return json.dumps(record)


def _write_lines(path: Path, lines: List[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in lines))


def _object_box(rng, label: str, extent: float):
    length, width, height = (d * (1.0 + 0.05 * rng.standard_normal()) for d in CLASS_DIMS[label])
    cx, cy = rng.uniform(-extent, extent, 2)
    cz = 0.5 * height - 1.7 + 0.05 * rng.standard_normal()
    return [cx, cy, cz, length, width, height, rng.uniform(-HEADING_MAX, HEADING_MAX)]


def _jitter(rng, box, center_sd: float, clip: float):
    cx, cy, cz, length, width, height, heading = box
    dx, dy = np.clip(center_sd * rng.standard_normal(2), -clip, clip)
    return [
        cx + dx,
        cy + dy,
        cz + 0.05 * rng.standard_normal(),
        length * (1.0 + 0.03 * rng.standard_normal()),
        width * (1.0 + 0.03 * rng.standard_normal()),
        height * (1.0 + 0.03 * rng.standard_normal()),
        heading + 0.03 * rng.standard_normal(),
    ]


def _sweep(rng, scale: Scale, piled: bool) -> np.ndarray:
    """One 4-channel sweep; a piled sweep puts pile_share of it in a few voxels."""
    n = scale.sweep_points
    n_pile = int(round(scale.pile_share * n)) if piled else 0
    n_scatter = n - n_pile
    # Radii reach past the 75.2 m crop box and z past [-2, 4], so some
    # points fall out of range.
    r = 2.0 + 80.0 * rng.random(n_scatter) ** 1.5
    theta = rng.uniform(-math.pi, math.pi, n_scatter)
    xyz = np.stack([r * np.cos(theta), r * np.sin(theta), rng.normal(0.5, 1.5, n_scatter)], axis=1)
    if n_pile:
        cells = rng.integers((100, 100, 5), (1400, 1400, 35), size=(scale.pile_voxels, 3))
        centers = np.asarray(RANGE_MIN) + (cells + 0.5) * np.asarray(VOXEL)
        owner = rng.integers(0, scale.pile_voxels, n_pile)
        offsets = rng.uniform(-0.3, 0.3, (n_pile, 3)) * np.asarray(VOXEL)
        xyz = np.concatenate([xyz, centers[owner] + offsets])
    points = np.concatenate([xyz, rng.random((n, 1))], axis=1)
    return points[rng.permutation(n)].astype("<f4")


def _gen_sweep(rng, scale: Scale, out: Path) -> dict:
    previous = _sweep(rng, scale, piled=False)
    current = _sweep(rng, scale, piled=True)
    (out / "sweep_prev.bin").write_bytes(previous.tobytes())
    (out / "sweep_cur.bin").write_bytes(current.tobytes())
    return {
        "files": {"previous": "sweep_prev.bin", "current": "sweep_cur.bin"},
        "frames": 1,
    }


def _gen_detect(rng, scale: Scale, out: Path) -> dict:
    extent = 74.0
    gt_lines: List[str] = []
    a_lines: List[str] = []
    b_lines: List[str] = []
    anchor_lines: List[str] = []
    labels = _labels(scale.det_objects)
    reps = -(-scale.det_objects // len(DETS_PER_OBJECT))
    per_object = np.tile(DETS_PER_OBJECT, reps)[: scale.det_objects]
    b_missed = max(1, scale.det_objects // 10)
    for f in range(scale.det_frames):
        frame_id = f"f{f:03d}"
        timestamp = round(0.1 * f, 1)
        objects = [_object_box(rng, label, extent) for label in labels]
        for box, label in zip(objects, labels):
            difficulty = 1 if rng.random() < 0.8 else 2
            gt_lines.append(_record(frame_id, timestamp, box, 1.0, label, difficulty=difficulty))
        frame_a: List[str] = []
        frame_b: List[str] = []
        counts = rng.permutation(per_object)
        missed = set(rng.choice(scale.det_objects, b_missed, replace=False).tolist())
        for i, (box, label) in enumerate(zip(objects, labels)):
            quality = rng.uniform(0.4, 0.95)
            for k in range(counts[i]):
                score = np.clip(quality - 0.08 * k + 0.03 * rng.standard_normal(), 0.01, 0.99)
                frame_a.append(_record(frame_id, timestamp, _jitter(rng, box, 0.1, 0.3), score, label))
            if i not in missed:
                score = np.clip(0.8 * quality + 0.05 * rng.standard_normal(), 0.01, 0.99)
                frame_b.append(_record(frame_id, timestamp, _jitter(rng, box, 0.15, 0.3), score, label))
        for lines, fp in ((frame_a, scale.det_fp), (frame_b, scale.det_fp // 2)):
            for label in _labels(fp):
                box = _object_box(rng, label, extent)
                lines.append(_record(frame_id, timestamp, box, rng.uniform(0.05, 0.6), label))
        a_lines.extend(frame_a[i] for i in rng.permutation(len(frame_a)))
        b_lines.extend(frame_b[i] for i in rng.permutation(len(frame_b)))
        if f < scale.anchor_frames:
            length, width, height = CLASS_DIMS["VEHICLE"]
            grid = np.arange(-extent, extent + 1e-9, scale.anchor_stride)
            for x in grid:
                for y in grid:
                    for heading in (0.0, 0.5 * math.pi):
                        box = (x, y, 0.5 * height - 1.7, length, width, height, heading)
                        anchor_lines.append(_record(frame_id, timestamp, box, 1.0, "VEHICLE"))
    for name, lines in (("gt.jsonl", gt_lines), ("det_a.jsonl", a_lines),
                        ("det_b.jsonl", b_lines), ("anchors.jsonl", anchor_lines)):
        _write_lines(out / name, lines)
    return {
        "files": {"gt": "gt.jsonl", "det_a": "det_a.jsonl", "det_b": "det_b.jsonl",
                  "anchors": "anchors.jsonl"},
        "gt_per_class": {k: v * scale.det_frames for k, v in class_counts(scale.det_objects).items()},
        "frames": scale.det_frames,
    }


def _gen_track(rng, scale: Scale, out: Path) -> dict:
    """One scene cut into consecutive segments, each tracked from scratch."""
    labels = _labels(scale.track_objects)
    objects = [_object_box(rng, label, 70.0) for label in labels]
    speeds = [rng.uniform(0.0, CLASS_SPEED[label]) for label in labels]
    files = {}
    for segment in range(scale.track_segments):
        gt_lines: List[str] = []
        det_lines: List[str] = []
        for t in range(segment * scale.track_frames, (segment + 1) * scale.track_frames):
            frame_id = f"t{t:03d}"
            timestamp = round(0.1 * t, 1)
            dropped = set(rng.choice(scale.track_objects, scale.track_drops, replace=False).tolist())
            frame: List[str] = []
            for i, (box, label, speed) in enumerate(zip(objects, labels, speeds)):
                heading = box[6]
                moved = list(box)
                moved[0] += speed * t * math.cos(heading)
                moved[1] += speed * t * math.sin(heading)
                gt_lines.append(_record(frame_id, timestamp, moved, 1.0, label, track_id=i))
                if i in dropped:
                    continue
                det = _jitter(rng, moved, 0.15, 0.5)
                if rng.random() < 0.05:
                    det[6] += math.pi  # the detector reports the other end as the front
                frame.append(_record(frame_id, timestamp, det, rng.uniform(0.5, 1.0), label))
            for label in _labels(scale.track_fp):
                box = _object_box(rng, label, 70.0)
                frame.append(_record(frame_id, timestamp, box, rng.uniform(0.3, 0.7), label))
            det_lines.extend(frame[i] for i in rng.permutation(len(frame)))
        files[f"gt{segment}"] = f"track_gt_{segment}.jsonl"
        files[f"dets{segment}"] = f"track_dets_{segment}.jsonl"
        _write_lines(out / files[f"gt{segment}"], gt_lines)
        _write_lines(out / files[f"dets{segment}"], det_lines)
    return {
        "files": files,
        "segments": scale.track_segments,
        "gt_per_class": {k: v * scale.track_frames for k, v in class_counts(scale.track_objects).items()},
        "frames": scale.track_segments * scale.track_frames,
    }


_GENERATORS = {"sweep": _gen_sweep, "detect": _gen_detect, "track": _gen_track}


def generate(workload: str, seed: int, out_dir, scale: Scale = FULL) -> dict:
    """Write one workload's input files into out_dir and return its manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    manifest = _GENERATORS[workload](rng, scale, out)
    manifest["files"] = {key: str(out / name) for key, name in manifest["files"].items()}
    manifest["scale"] = asdict(scale)
    return manifest
