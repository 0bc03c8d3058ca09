"""Clouds are stored column-major on every construction path.

Each way of making a cloud gives read-only float64 points whose columns
are contiguous, with the values of the same step done on a row-major
copy. The voxelizer reads those columns one at a time and must still equal
the per-point reference voxelizer exactly, and it must not use more memory
than the row-major grouping did.
"""

import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarpost.io import read_points, write_points
from lidarpost.pointcloud import (
    Axis,
    PointCloud,
    RangeSpec,
    concat_frames,
    crop_range,
    flip,
    global_rotate,
    global_scale,
)
from lidarpost.voxelizer import VoxelConfig, voxelize_dynamic, voxelize_hard
from oracles import reference_group, reference_voxelize

DELTA = 0.25
FACTOR = 1.03
ANGLE = 0.4
CROP = RangeSpec(-1.5, 1.5, -1.75, 2.0, -0.5, 0.75)


def _with_t(rows, t):
    out = np.array(rows, dtype=np.float64, order="C")
    out[:, 4] = t
    return out


def _read_back(rows, channels):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "points.bin"
        path.write_bytes(np.ascontiguousarray(rows[:, :channels]).astype("<f4").tobytes())
        cloud = read_points(path, channels)
    expected = rows.astype(np.float32).astype(np.float64)
    if channels == 4:
        expected[:, 4] = 0.0
    return cloud, expected


def _strided(rows):
    wide = np.zeros((2 * len(rows), 10))
    wide[::2, ::2] = rows
    view = wide[::2, ::2]
    assert len(rows) < 2 or not (view.flags.c_contiguous or view.flags.f_contiguous)
    return view


def _rotated(rows):
    c, s = math.cos(ANGLE), math.sin(ANGLE)
    x, y = rows[:, 0], rows[:, 1]
    return np.column_stack([c * x - s * y, s * x + c * y, rows[:, 2:]])


def _concat(rows):
    half = len(rows) // 2
    merged = concat_frames(PointCloud(rows[:half]), PointCloud(rows[half:]), DELTA)
    return merged, _with_t(rows, np.where(np.arange(len(rows)) < half, 0.0, DELTA))


# Each path makes a cloud from (N, 5) rows with t >= 0 and returns it with
# the points that the same step gives on a row-major copy of the rows.
PATHS = {
    "c_order": lambda rows: (PointCloud(rows), rows),
    "f_order": lambda rows: (PointCloud(np.asfortranarray(rows)), rows),
    "strided": lambda rows: (PointCloud(_strided(rows)), rows),
    "float32": lambda rows: (PointCloud(rows.astype(np.float32)),
                             rows.astype(np.float32).astype(np.float64)),
    "four_channels": lambda rows: (PointCloud(rows[:, :4]), _with_t(rows, 0.0)),
    "read_points_4": lambda rows: _read_back(rows, 4),
    "read_points_5": lambda rows: _read_back(rows, 5),
    "concat_frames": _concat,
    "crop_range": lambda rows: (crop_range(PointCloud(rows), CROP), rows[CROP.contains(rows)]),
    "flip_x": lambda rows: (flip(PointCloud(rows), [], Axis.X)[0], rows * [1, -1, 1, 1, 1]),
    "flip_y": lambda rows: (flip(PointCloud(rows), [], Axis.Y)[0], rows * [-1, 1, 1, 1, 1]),
    "global_scale": lambda rows: (global_scale(PointCloud(rows), [], FACTOR)[0],
                                  rows * [FACTOR, FACTOR, FACTOR, 1, 1]),
    "global_rotate": lambda rows: (global_rotate(PointCloud(rows), [], ANGLE)[0], _rotated(rows)),
}


def _rows(rng, n):
    return np.column_stack([
        rng.uniform(-2.0, 2.0, (n, 3)), rng.uniform(0.0, 10.0, n), rng.uniform(0.0, 1.0, n)])


def _assert_columnar(points):
    assert points.dtype == np.float64 and points.ndim == 2 and points.shape[1] == 5
    assert not points.flags.writeable
    assert points.flags.f_contiguous
    assert all(points[:, j].flags.c_contiguous for j in range(5))


class TestEveryPathIsColumnMajor:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 500])
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_points_are_read_only_contiguous_columns_with_row_major_values(self, path, n):
        rows = _rows(np.random.default_rng(n), n)
        cloud, expected = PATHS[path](rows)
        _assert_columnar(cloud.points)
        assert cloud.points.tobytes() == np.ascontiguousarray(expected).tobytes()

    @pytest.mark.parametrize("channels", [4, 5])
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_written_records_are_the_row_major_float32_bytes(self, path, channels, tmp_path):
        cloud, _ = PATHS[path](_rows(np.random.default_rng(11), 300))
        out = tmp_path / "out.bin"
        write_points(cloud, out, channels=channels)
        expected = np.ascontiguousarray(cloud.points[:, :channels]).astype("<f4").tobytes()
        assert out.read_bytes() == expected


def _lattice(lo, hi, edge):
    """Coordinates on the grid lines lo + k * edge, up to and on hi."""
    return [lo + k * edge for k in range(int(math.ceil((hi - lo) / edge)) + 1)] + [hi]


@st.composite
def _cases(draw):
    """Rows on grid lines, on both bounds, inside and just outside a small
    range, many piled on a few positions; tight caps; one path."""
    vx, vy, vz = (draw(st.sampled_from([0.1, 0.25, 0.3, 0.5, 0.7])) for _ in range(3))
    spec = RangeSpec(-1.5, 1.5, -1.5, 1.5, -0.5, 1.0)
    config = VoxelConfig(range=spec, vx=vx, vy=vy, vz=vz,
                         max_points_per_voxel=draw(st.integers(1, 4)),
                         max_voxels=draw(st.integers(1, 12)))
    axes = [(spec.x_min, spec.x_max, vx), (spec.y_min, spec.y_max, vy),
            (spec.z_min, spec.z_max, vz)]
    coordinate = [
        st.one_of(st.sampled_from(_lattice(lo, hi, edge)), st.floats(lo - 0.2, hi + 0.2))
        for lo, hi, edge in axes
    ]
    position = st.tuples(*coordinate)
    shared = draw(st.lists(position, min_size=1, max_size=3))
    rows = draw(st.lists(
        st.tuples(st.one_of(position, st.sampled_from(shared)),
                  st.floats(0.0, 10.0), st.floats(0.0, 1.0)),
        max_size=40,
    ))
    points = np.array([(*xyz, intensity, t) for xyz, intensity, t in rows]).reshape(-1, 5)
    return points, config, draw(st.sampled_from(sorted(PATHS)))


class TestVoxelizeEveryPathAgainstReference:
    """Both modes equal the per-point reference on clouds from every path.

    The features are compared bit for bit with one exception, the sign of a
    zero mean: the voxelizer's sums start from +0.0, so a voxel whose points
    all hold -0.0 in a channel averages to +0.0 there, where the reference's
    running sum, which starts from the first point, gives -0.0. Adding 0.0
    maps -0.0 to +0.0 and keeps every other value's bits. The grouping it
    replaced gave the same +0.0, and it is compared without that exception.
    """

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_cases())
    def test_equal_to_the_reference(self, case):
        rows, config, path = case
        cloud, _ = PATHS[path](rows)
        for voxelize, capped in ((voxelize_dynamic, False), (voxelize_hard, True)):
            grid = voxelize(cloud, config)
            ref = reference_voxelize(cloud.points, config, capped)
            np.testing.assert_array_equal(grid.coords, ref.coords)
            np.testing.assert_array_equal(grid.counts, ref.counts)
            assert (grid.features + 0.0).tobytes() == (ref.features + 0.0).tobytes()
            np.testing.assert_array_equal(grid.point_voxel, ref.point_voxel)
            assert (grid.dropped_points, grid.dropped_voxels) == (
                ref.dropped_points, ref.dropped_voxels)
            caps = (len(cloud), len(cloud)) if not capped else (
                config.max_points_per_voxel, config.max_voxels)
            assert grid.features.tobytes() == reference_group(
                cloud, config, grid.mode, *caps).features.tobytes()


def _sweep(rng, n, piled):
    """An (n, 4) sweep reaching past the default range; a piled sweep puts
    30% of its points in 8 voxels."""
    n_pile = int(0.3 * n) if piled else 0
    r = 2.0 + 80.0 * rng.random(n - n_pile) ** 1.5
    theta = rng.uniform(-math.pi, math.pi, n - n_pile)
    xyz = np.column_stack([r * np.cos(theta), r * np.sin(theta),
                           rng.normal(0.5, 1.5, n - n_pile)])
    if n_pile:
        voxel = np.array([0.1, 0.1, 0.15])
        centers = np.array([-75.2, -75.2, -2.0]) + (
            rng.integers((100, 100, 5), (1400, 1400, 35), size=(8, 3)) + 0.5) * voxel
        piles = centers[rng.integers(0, 8, n_pile)] + rng.uniform(-0.03, 0.03, (n_pile, 3))
        xyz = np.concatenate([xyz, piles])
    points = np.column_stack([xyz, rng.random(n)])
    return points[rng.permutation(n)].astype(np.float32)


class TestMemory:
    """The traced peak of one grouping of a 300k-point merge, as a multiple
    of the cloud's own bytes: the row-major grouping reached 2.45 and 2.06."""

    @pytest.fixture(scope="class")
    def merged(self):
        rng = np.random.default_rng(0)
        previous = PointCloud(_sweep(rng, 150_000, piled=False))
        current = PointCloud(_sweep(rng, 150_000, piled=True))
        return concat_frames(current, previous)

    @pytest.mark.parametrize("voxelize, bound", [(voxelize_dynamic, 2.5), (voxelize_hard, 2.1)])
    def test_traced_peak_of_one_grouping(self, merged, voxelize, bound):
        voxelize(merged)
        tracemalloc.start()
        try:
            grid = voxelize(merged)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.num_voxels >= 150_000
        assert peak <= bound * merged.points.nbytes, peak / merged.points.nbytes
