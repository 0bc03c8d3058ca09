"""Property tests for point and box files, range cropping and box overlaps,
driven by hypothesis."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lidarpost.cli import run
from lidarpost.geometry import Box3D, DetectionSet, Label, bev_iou, iou3d
from lidarpost.io import read_boxes, read_points, write_boxes, write_points
from lidarpost.pointcloud import PointCloud, RangeSpec, crop_range

FINITE = st.floats(allow_nan=False, allow_infinity=False, width=32)
NON_NEGATIVE = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False, width=32)
COORD = st.floats(min_value=-200.0, max_value=200.0, width=32)


@st.composite
def point_records(draw, channels, coord=FINITE, max_rows=40):
    """An (N, channels) float32 array of valid point records."""
    n = draw(st.integers(0, max_rows))
    xyz = draw(arrays(np.float32, (n, 3), elements=coord))
    rest = draw(arrays(np.float32, (n, channels - 3), elements=NON_NEGATIVE))
    return np.concatenate([xyz, rest], axis=1)


@pytest.mark.parametrize("channels", [4, 5])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_point_file_round_trips_exactly(tmp_path_factory, channels, data):
    records = data.draw(point_records(channels))
    path = tmp_path_factory.getbasetemp() / f"round_trip_{channels}.bin"
    write_points(PointCloud(records), path, channels=channels)
    assert path.read_bytes() == records.astype("<f4").tobytes()
    back = read_points(path, channels=channels)
    np.testing.assert_array_equal(back.points[:, :channels], records)
    if channels == 4:
        assert not back.points[:, 4].any()


@settings(max_examples=100, deadline=None)
@given(
    records=point_records(5, coord=COORD),
    lows=st.lists(st.floats(-150.0, 150.0), min_size=3, max_size=3),
    sizes=st.lists(st.floats(0.5, 200.0), min_size=3, max_size=3),
)
def test_crop_range_is_idempotent_and_keeps_order(records, lows, sizes):
    (x0, y0, z0), (dx, dy, dz) = lows, sizes
    spec = RangeSpec(x0, x0 + dx, y0, y0 + dy, z0, z0 + dz)
    cloud = PointCloud(records)
    once = crop_range(cloud, spec)
    np.testing.assert_array_equal(crop_range(once, spec).points, once.points)
    kept = [
        i for i, (x, y, z) in enumerate(cloud.points[:, :3].tolist())
        if spec.x_min <= x <= spec.x_max
        and spec.y_min <= y <= spec.y_max
        and spec.z_min <= z <= spec.z_max
    ]
    np.testing.assert_array_equal(once.points, cloud.points[kept])


@st.composite
def malformed_point_files(draw, channels):
    """Bytes of a point file that is truncated, or that has a NaN or a
    negative intensity written into one record."""
    records = draw(point_records(channels, max_rows=20).filter(len))
    kind = draw(st.sampled_from(["truncated", "nan", "negative intensity"]))
    if kind == "truncated":
        data = records.astype("<f4").tobytes()
        cut = draw(st.integers(1, len(data) - 1).filter(lambda k: k % (4 * channels)))
        return data[:cut]
    row = draw(st.integers(0, len(records) - 1))
    if kind == "nan":
        records[row, draw(st.integers(0, channels - 1))] = np.nan
    else:
        records[row, 3] = -draw(
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, width=32)
        )
    return records.astype("<f4").tobytes()


def _run_point_command(command, path, channels, workdir):
    if command == "voxelize":
        argv = ["voxelize", "--points", str(path)]
    else:
        good = workdir / "good.bin"
        good.write_bytes(np.zeros((1, channels), dtype="<f4").tobytes())
        argv = ["concat", "--current", str(path), "--previous", str(good)]
    return run(argv + ["--channels", str(channels), "--output", str(workdir / "out")])


@pytest.mark.parametrize("command", ["voxelize", "concat"])
@pytest.mark.parametrize("channels", [4, 5])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_malformed_point_files_exit_3(tmp_path_factory, command, channels, data):
    workdir = tmp_path_factory.getbasetemp()
    path = workdir / "bad.bin"
    path.write_bytes(data.draw(malformed_point_files(channels)))
    assert _run_point_command(command, path, channels, workdir) == 3


@pytest.mark.parametrize("command", ["voxelize", "concat"])
@settings(max_examples=60, deadline=None)
@given(payload=st.binary(max_size=200))
def test_arbitrary_point_bytes_never_exit_1(tmp_path_factory, command, payload):
    workdir = tmp_path_factory.getbasetemp()
    path = workdir / "any.bin"
    path.write_bytes(payload)
    assert _run_point_command(command, path, 5, workdir) in (0, 3)


# --- box files -------------------------------------------------------------

LABEL = st.sampled_from(list(Label))
OPTIONAL_ID = st.none() | st.integers(0, 2**53)


@st.composite
def boxes(draw, span=1e4, min_dim=1e-3, max_dim=1e3, ids=OPTIONAL_ID):
    """A valid Box3D; heading is any finite angle and gets wrapped."""
    coord = st.floats(-span, span)
    dim = st.floats(min_dim, max_dim)
    return Box3D(
        cx=draw(coord), cy=draw(coord), cz=draw(coord),
        length=draw(dim), width=draw(dim), height=draw(dim),
        heading=draw(st.floats(-1e3, 1e3)),
        score=draw(st.floats(0.0, 1.0)),
        label=draw(LABEL),
        track_id=draw(ids),
        difficulty=draw(st.none() | st.sampled_from([1, 2])),
        num_points=draw(OPTIONAL_ID),
        source_id=draw(OPTIONAL_ID),
    )


@st.composite
def detection_sets(draw, ids=OPTIONAL_ID, max_frames=4):
    """Frames with distinct ids and at least one box each, as read_boxes
    returns them: the set's own source_id is 0."""
    frame_ids = draw(st.lists(st.text(max_size=6), min_size=1, max_size=max_frames,
                              unique=True))
    return [
        DetectionSet(frame_id, draw(st.lists(boxes(ids=ids), min_size=1, max_size=4)),
                     timestamp=draw(st.floats(allow_nan=False, allow_infinity=False)))
        for frame_id in frame_ids
    ]


@settings(max_examples=100, deadline=None)
@given(sets=detection_sets())
def test_box_file_round_trips_exactly(tmp_path_factory, sets):
    path = tmp_path_factory.getbasetemp() / "boxes.jsonl"
    write_boxes(sets, path)
    back = read_boxes(path)
    assert list(back.values()) == sets
    again = tmp_path_factory.getbasetemp() / "again.jsonl"
    write_boxes(back, again)
    assert again.read_bytes() == path.read_bytes()


# JSON values that break a record's types or ranges when they replace one.
ODD_VALUES = st.sampled_from([
    None, True, "x", "", -1, 0, 1, -1.5, 1e308, -1e308, 10**400, [], {}, [1.0], "NaN",
])


@st.composite
def mutated_box_file(draw):
    """Bytes of a valid box file with track ids after one random edit: a
    value replaced, a key dropped, a line cut, or a byte changed."""
    sets = draw(detection_sets(ids=st.integers(0, 5), max_frames=3))
    lines = []
    for ds in sets:
        for box in ds.boxes:
            lines.append({
                "frame_id": ds.frame_id, "timestamp": ds.timestamp, "cx": box.cx,
                "cy": box.cy, "cz": box.cz, "l": box.length, "w": box.width,
                "h": box.height, "heading": box.heading, "score": box.score,
                "label": box.label.value, "track_id": box.track_id,
            })
    row = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["value", "drop", "cut", "byte"]))
    if kind == "value":
        lines[row][draw(st.sampled_from(sorted(lines[row])))] = draw(ODD_VALUES)
    elif kind == "drop":
        del lines[row][draw(st.sampled_from(sorted(lines[row])))]
    data = "".join(json.dumps(line) + "\n" for line in lines).encode()
    if kind == "cut":
        data = data[:draw(st.integers(0, len(data)))]
    elif kind == "byte":
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    return data


@settings(max_examples=60, deadline=None)
@given(data=mutated_box_file())
def test_mutated_box_files_never_exit_1(tmp_path_factory, data):
    workdir = tmp_path_factory.getbasetemp()
    bad = workdir / "bad.jsonl"
    bad.write_bytes(data)
    good = workdir / "good.jsonl"
    write_boxes([DetectionSet("f0", [Box3D(0, 0, 0, 4, 2, 1.5, 0, track_id=0)])], good)
    out = str(workdir / "out")
    for argv in (
        ["nms", "--input", str(bad), "--output", out],
        ["track", "--input", str(bad), "--output", out],
        ["eval-det", "--detections", str(bad), "--gt", str(good)],
        ["eval-det", "--detections", str(good), "--gt", str(bad)],
        ["eval-mot", "--tracked", str(bad), "--gt", str(good)],
        ["eval-mot", "--tracked", str(good), "--gt", str(bad)],
    ):
        assert run(argv) != 1, argv


# --- overlaps --------------------------------------------------------------

NEAR_BOXES = boxes(span=5.0, min_dim=0.1, max_dim=10.0)


@settings(max_examples=300, deadline=None)
@given(a=NEAR_BOXES, b=NEAR_BOXES)
def test_iou_lies_in_unit_interval_and_is_symmetric(a, b):
    for iou_fn in (bev_iou, iou3d):
        value = iou_fn(a, b)
        assert 0.0 <= value <= 1.0
        assert abs(value - iou_fn(b, a)) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(
    a=NEAR_BOXES,
    b=NEAR_BOXES,
    angle=st.floats(-math.pi, math.pi),
    shift=st.tuples(*[st.floats(-100.0, 100.0)] * 3),
)
def test_iou_is_invariant_under_one_rigid_motion_of_both_boxes(a, b, angle, shift):
    c, s = math.cos(angle), math.sin(angle)
    tx, ty, tz = shift

    def moved(box):
        return replace(box, cx=c * box.cx - s * box.cy + tx, cy=s * box.cx + c * box.cy + ty,
                       cz=box.cz + tz, heading=box.heading + angle)

    for iou_fn in (bev_iou, iou3d):
        assert abs(iou_fn(moved(a), moved(b)) - iou_fn(a, b)) <= 1e-9
