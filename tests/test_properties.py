"""Property tests for point files and range cropping, driven by hypothesis."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lidarpost.cli import run
from lidarpost.io import read_points, write_points
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
