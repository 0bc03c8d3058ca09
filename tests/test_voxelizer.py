import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarpost.pointcloud import DEFAULT_RANGE, PointCloud, RangeSpec
from lidarpost.voxelizer import (
    VoxelConfig,
    VoxelMode,
    voxel_coords,
    voxelize_dynamic,
    voxelize_hard,
)
from oracles import reference_group, reference_voxelize


def _cloud(coords):
    points = np.array([(x, y, z, 0.0) for x, y, z in coords]).reshape(-1, 4)
    return PointCloud(points=points, frame_id="f", timestamp=0.0)


def _random_cloud(rng, n, spec):
    xs = rng.uniform(spec.x_min, spec.x_max, size=n)
    ys = rng.uniform(spec.y_min, spec.y_max, size=n)
    zs = rng.uniform(spec.z_min, spec.z_max, size=n)
    inten = rng.uniform(0.0, 1.0, size=n)
    ts = rng.uniform(0.0, 0.2, size=n)
    points = np.column_stack([xs, ys, zs, inten, ts])
    return PointCloud(points=points, frame_id="r", timestamp=0.0)


def _cells(grid):
    return [tuple(cell) for cell in grid.coords.tolist()]


def _voxel(grid, cell):
    """Row of the voxel at a grid cell."""
    return _cells(grid).index(cell)


def _members(grid, voxel):
    """Indices of the input points stored in a voxel, in arrival order."""
    return np.flatnonzero(grid.point_voxel == voxel).tolist()


def _coords(point):
    return np.array([point], dtype=np.float64)


SMALL_RANGE = RangeSpec(x_min=0.0, x_max=4.0, y_min=0.0, y_max=4.0, z_min=0.0, z_max=2.0)
SMALL_CONFIG = VoxelConfig(
    range=SMALL_RANGE, vx=1.0, vy=1.0, vz=1.0
)


class TestVoxelConfig:
    def test_default_grid_shape(self):
        config = VoxelConfig()
        assert config.grid_shape == (1504, 1504, 40)

    def test_grid_shape_rounds_up_partial_voxels(self):
        spec = RangeSpec(x_min=0.0, x_max=1.05, y_min=0.0, y_max=1.0, z_min=0.0, z_max=0.2)
        config = VoxelConfig(range=spec, vx=0.5, vy=0.5, vz=0.2)
        assert config.grid_shape == (3, 2, 1)

    def test_invalid_edges_rejected(self):
        with pytest.raises(ValueError):
            VoxelConfig(vx=0.0)
        with pytest.raises(ValueError):
            VoxelConfig(vy=-0.1)

    def test_invalid_caps_rejected(self):
        with pytest.raises(ValueError):
            VoxelConfig(max_points_per_voxel=0)
        with pytest.raises(ValueError):
            VoxelConfig(max_voxels=0)

    def test_absurd_grid_dimension_rejected(self):
        with pytest.raises(ValueError):
            VoxelConfig(vx=1e-8)

    def test_cell_count_beyond_int64_keys_rejected(self):
        # Every axis fits 32 bits, but 1.5e7 * 1.5e7 * 6e5 cells do not
        # fit the int64 linear key.
        with pytest.raises(ValueError, match="64-bit"):
            VoxelConfig(vx=1e-5, vy=1e-5, vz=1e-5)

    def test_edge_that_overflows_the_grid_shape_rejected(self):
        with pytest.raises(ValueError, match="32-bit"):
            VoxelConfig(vx=5e-324)


class TestVoxelIndex:
    def test_near_origin_point_with_defaults(self):
        cells = voxel_coords(_coords((0.05, 0.05, 0.05)), VoxelConfig())
        assert cells.tolist() == [[752, 752, 13]]

    def test_origin_corner_gets_zero_index(self):
        assert voxel_coords(_coords((0.0, 0.0, 0.0)), SMALL_CONFIG).tolist() == [[0, 0, 0]]

    def test_interior_point(self):
        assert voxel_coords(_coords((2.5, 0.5, 1.5)), SMALL_CONFIG).tolist() == [[2, 0, 1]]

    def test_out_of_range_returns_none(self):
        cloud = _cloud([(-0.1, 1.0, 1.0), (4.1, 1.0, 1.0), (1.0, 1.0, 2.5)])
        assert not SMALL_RANGE.contains(cloud.points).any()
        grid = voxelize_dynamic(cloud, SMALL_CONFIG)
        assert grid.point_voxel.tolist() == [-1, -1, -1]
        assert grid.num_voxels == 0

    def test_upper_boundary_clamps_into_last_voxel(self):
        assert voxel_coords(_coords((4.0, 4.0, 2.0)), SMALL_CONFIG).tolist() == [[3, 3, 1]]

    def test_points_beyond_the_range_clamp_into_the_grid(self):
        points = np.array([(-1e300, 2.5, 9.0), (1e300, -0.5, -3.0), (4.5, 1.5, 0.5)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = voxel_coords(points, SMALL_CONFIG)
        assert cells.tolist() == [[0, 2, 1], [3, 0, 0], [3, 1, 0]]
        assert all(cells[:, axis].flags.c_contiguous for axis in range(3))

    def test_default_config_boundary(self):
        cells = voxel_coords(_coords((75.2, 75.2, 4.0)), VoxelConfig())
        assert cells.tolist() == [[1503, 1503, 39]]

    def test_matches_direct_quantization(self):
        rng = np.random.default_rng(31)
        config = VoxelConfig()
        spec = config.range
        rows = []
        for _ in range(500):
            x = float(rng.uniform(spec.x_min - 5, spec.x_max + 5))
            y = float(rng.uniform(spec.y_min - 5, spec.y_max + 5))
            z = float(rng.uniform(spec.z_min - 1, spec.z_max + 1))
            rows.append((x, y, z))
        points = np.array(rows)
        inside = spec.contains(points)
        assert inside.tolist() == [
            spec.x_min <= x <= spec.x_max
            and spec.y_min <= y <= spec.y_max
            and spec.z_min <= z <= spec.z_max
            for x, y, z in rows
        ]
        nx, ny, nz = config.grid_shape
        expected = [
            (
                min(int((x - spec.x_min) // config.vx), nx - 1),
                min(int((y - spec.y_min) // config.vy), ny - 1),
                min(int((z - spec.z_min) // config.vz), nz - 1),
            )
            for x, y, z in points[inside]
        ]
        assert [tuple(c) for c in voxel_coords(points[inside], config).tolist()] == expected

    def test_quotient_is_truncated_not_floor_divided(self):
        # 1.0 // 0.1 == 9.0 but int(1.0 / 0.1) == 10: the cell follows the
        # true quotient, as the reference voxelizer computes it.
        spec = RangeSpec(0.0, 2.0, 0.0, 2.0, 0.0, 2.0)
        config = VoxelConfig(range=spec, vx=0.1, vy=0.1, vz=0.1)
        assert voxel_coords(_coords((1.0, 1.0, 1.0)), config).tolist() == [[10, 10, 10]]


class TestDynamicVoxelization:
    def test_single_voxel_mean_feature(self):
        cloud = _cloud([(0.2, 0.2, 0.2), (0.4, 0.6, 0.1), (0.9, 0.1, 0.6)])
        grid = voxelize_dynamic(cloud, SMALL_CONFIG)
        assert grid.mode is VoxelMode.DYNAMIC
        assert grid.num_voxels == 1
        voxel = _voxel(grid, (0, 0, 0))
        assert grid.counts[voxel] == 3
        np.testing.assert_allclose(
            grid.features[voxel], [0.5, 0.3, 0.3, 0.0, 0.0], atol=1e-12
        )

    def test_empty_cloud(self):
        grid = voxelize_dynamic(_cloud([]), SMALL_CONFIG)
        assert grid.num_voxels == 0
        assert grid.dropped_points == 0
        assert grid.dropped_voxels == 0

    def test_out_of_range_points_simply_absent(self):
        cloud = _cloud([(0.5, 0.5, 0.5), (9.0, 9.0, 9.0)])
        grid = voxelize_dynamic(cloud, SMALL_CONFIG)
        assert grid.stored_points == 1
        # dynamic mode never reports drops; out-of-range points are not stored
        assert grid.dropped_points == 0
        assert grid.dropped_voxels == 0

    def test_no_caps_in_dynamic_mode(self):
        coords = [(0.1 + 0.001 * i, 0.1, 0.1) for i in range(50)]
        config = VoxelConfig(
            range=SMALL_RANGE,
            vx=1.0,
            vy=1.0,
            vz=1.0,
            max_points_per_voxel=5,
            max_voxels=1,
        )
        grid = voxelize_dynamic(_cloud(coords), config)
        assert grid.counts[_voxel(grid, (0, 0, 0))] == 50
        assert grid.dropped_points == 0

    def test_point_conservation_and_mean_against_tally(self):
        rng = np.random.default_rng(32)
        config = VoxelConfig(
            range=SMALL_RANGE, vx=0.5, vy=0.5, vz=0.5
        )
        cloud = _random_cloud(rng, 2000, SMALL_RANGE)
        grid = voxelize_dynamic(cloud, config)
        assert grid.stored_points + grid.dropped_points == len(cloud)

        assert SMALL_RANGE.contains(cloud.points).all()
        tally = {}
        for index, cell in enumerate(voxel_coords(cloud.points, config).tolist()):
            tally.setdefault(tuple(cell), []).append(index)
        assert set(_cells(grid)) == set(tally)
        for cell, members in tally.items():
            voxel = _voxel(grid, cell)
            assert grid.counts[voxel] == len(members)
            arr = cloud.points[members]
            np.testing.assert_allclose(grid.features[voxel], arr.mean(axis=0), atol=1e-9)
            assert _members(grid, voxel) == members

    def test_insertion_order_preserved_within_voxel(self):
        cloud = _cloud([(0.1, 0.1, 0.1), (0.9, 0.9, 0.9), (0.5, 0.5, 0.5)])
        grid = voxelize_dynamic(cloud, SMALL_CONFIG)
        xs = cloud.points[_members(grid, _voxel(grid, (0, 0, 0))), 0]
        assert xs.tolist() == [0.1, 0.9, 0.5]


class TestHardVoxelization:
    def test_per_voxel_cap(self):
        coords = [(0.1, 0.1, 0.1), (0.2, 0.2, 0.2), (0.3, 0.3, 0.3)]
        config = VoxelConfig(
            range=SMALL_RANGE,
            vx=1.0,
            vy=1.0,
            vz=1.0,
            max_points_per_voxel=2,
        )
        grid = voxelize_hard(_cloud(coords), config)
        assert grid.mode is VoxelMode.HARD
        voxel = _voxel(grid, (0, 0, 0))
        assert grid.counts[voxel] == 2
        assert grid.point_voxel.tolist() == [voxel, voxel, -1]
        assert grid.dropped_points == 1
        assert grid.dropped_voxels == 0

    def test_voxel_budget_refuses_new_voxels(self):
        coords = [(0.5, 0.5, 0.5), (2.5, 2.5, 0.5), (2.6, 2.6, 0.5), (3.5, 0.5, 0.5)]
        config = VoxelConfig(
            range=SMALL_RANGE,
            vx=1.0,
            vy=1.0,
            vz=1.0,
            max_voxels=1,
        )
        grid = voxelize_hard(_cloud(coords), config)
        assert grid.num_voxels == 1
        assert _cells(grid) == [(0, 0, 0)]
        assert grid.dropped_points == 3
        assert grid.dropped_voxels == 2

    def test_first_arrival_wins_voxel_budget(self):
        coords = [(2.5, 2.5, 0.5), (0.5, 0.5, 0.5), (2.7, 2.7, 0.5)]
        config = VoxelConfig(
            range=SMALL_RANGE,
            vx=1.0,
            vy=1.0,
            vz=1.0,
            max_voxels=1,
        )
        grid = voxelize_hard(_cloud(coords), config)
        assert _cells(grid) == [(2, 2, 0)]
        assert grid.counts.tolist() == [2]

    def test_mean_feature_uses_stored_points_only(self):
        coords = [(0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (0.9, 0.9, 0.9)]
        config = VoxelConfig(
            range=SMALL_RANGE,
            vx=1.0,
            vy=1.0,
            vz=1.0,
            max_points_per_voxel=2,
        )
        grid = voxelize_hard(_cloud(coords), config)
        np.testing.assert_allclose(
            grid.features[_voxel(grid, (0, 0, 0))][:3], [0.25, 0.25, 0.25], atol=1e-12
        )

    def test_equals_dynamic_when_caps_not_binding(self):
        rng = np.random.default_rng(33)
        config = VoxelConfig(
            range=SMALL_RANGE,
            vx=0.5,
            vy=0.5,
            vz=0.5,
            max_points_per_voxel=10_000,
            max_voxels=10_000,
        )
        cloud = _random_cloud(rng, 1500, SMALL_RANGE)
        hard = voxelize_hard(cloud, config)
        dynamic = voxelize_dynamic(cloud, config)
        assert set(_cells(hard)) == set(_cells(dynamic))
        assert hard.dropped_points == dynamic.dropped_points == 0
        assert hard.dropped_voxels == 0
        for voxel, cell in enumerate(_cells(hard)):
            other = _voxel(dynamic, cell)
            assert hard.counts[voxel] == dynamic.counts[other]
            assert _members(hard, voxel) == _members(dynamic, other)
            np.testing.assert_allclose(
                hard.features[voxel], dynamic.features[other], atol=1e-12
            )

    def test_hard_is_prefix_subset_of_dynamic(self):
        rng = np.random.default_rng(34)
        config = VoxelConfig(
            range=SMALL_RANGE,
            vx=0.5,
            vy=0.5,
            vz=0.5,
            max_points_per_voxel=3,
            max_voxels=40,
        )
        cloud = _random_cloud(rng, 1200, SMALL_RANGE)
        hard = voxelize_hard(cloud, config)
        dynamic = voxelize_dynamic(cloud, config)
        assert set(_cells(hard)) <= set(_cells(dynamic))
        assert hard.num_voxels <= config.max_voxels
        for voxel, cell in enumerate(_cells(hard)):
            count = hard.counts[voxel]
            assert count <= config.max_points_per_voxel
            full = _members(dynamic, _voxel(dynamic, cell))
            assert _members(hard, voxel) == full[:count]

    def test_accounting_identity(self):
        rng = np.random.default_rng(35)
        for trial in range(10):
            config = VoxelConfig(
                range=SMALL_RANGE,
                vx=0.5,
                vy=0.5,
                vz=0.5,
                max_points_per_voxel=int(rng.integers(1, 5)),
                max_voxels=int(rng.integers(1, 60)),
            )
            cloud = _random_cloud(rng, 800, SMALL_RANGE)
            grid = voxelize_hard(cloud, config)
            assert grid.stored_points + grid.dropped_points == len(cloud)
            # every refused-voxel key is absent from the grid
            dynamic = voxelize_dynamic(cloud, config)
            refused = set(_cells(dynamic)) - set(_cells(grid))
            assert len(refused) == grid.dropped_voxels

    def test_determinism(self):
        rng = np.random.default_rng(36)
        cloud = _random_cloud(rng, 500, SMALL_RANGE)
        config = VoxelConfig(
            range=SMALL_RANGE,
            vx=0.5,
            vy=0.5,
            vz=0.5,
            max_points_per_voxel=2,
            max_voxels=30,
        )
        a = voxelize_hard(cloud, config)
        b = voxelize_hard(cloud, config)
        assert _cells(a) == _cells(b)
        np.testing.assert_array_equal(a.features, b.features)
        assert (a.dropped_points, a.dropped_voxels) == (b.dropped_points, b.dropped_voxels)


class TestAgainstReference:
    """The grouping must reproduce the per-point first-arrival voxelizer
    exactly: cells in order, counts, features, point map and counters."""

    @staticmethod
    def _check(points, config):
        cloud = PointCloud(points=points)
        for voxelize, capped in ((voxelize_dynamic, False), (voxelize_hard, True)):
            grid = voxelize(cloud, config)
            ref = reference_voxelize(cloud.points, config, capped)
            np.testing.assert_array_equal(grid.coords, ref.coords)
            np.testing.assert_array_equal(grid.counts, ref.counts)
            np.testing.assert_array_equal(grid.features, ref.features)
            np.testing.assert_array_equal(grid.point_voxel, ref.point_voxel)
            assert grid.dropped_points == ref.dropped_points
            assert grid.dropped_voxels == ref.dropped_voxels

    @pytest.mark.parametrize("seed", range(12))
    def test_random_clouds_with_piled_voxels(self, seed):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(1, 3000))
        spec = RangeSpec(-1.0, float(rng.uniform(0.5, 4.0)), 0.0,
                         float(rng.uniform(0.5, 4.0)), -0.5, 1.0)
        edges = rng.choice([0.1, 0.25, 0.3, 0.5, 1.0], size=3)
        config = VoxelConfig(range=spec, vx=float(edges[0]), vy=float(edges[1]),
                             vz=float(edges[2]),
                             max_points_per_voxel=int(rng.integers(1, 6)),
                             max_voxels=int(rng.integers(1, 200)))
        points = np.column_stack([
            rng.uniform(-1.2, 4.2, n), rng.uniform(-0.2, 4.2, n),
            rng.uniform(-0.7, 1.2, n), rng.random(n), 0.2 * rng.random(n),
        ])
        points[: n // 3, :3] = points[0, :3]  # a third of the cloud in one voxel
        self._check(points, config)

    def test_points_on_the_upper_bounds(self):
        rng = np.random.default_rng(950)
        points = np.column_stack([
            rng.uniform(0.0, 4.0, 300), rng.uniform(0.0, 4.0, 300),
            rng.uniform(0.0, 2.0, 300), rng.random(300), np.zeros(300),
        ])
        points[::3, 0] = 4.0
        points[::5, 1] = 4.0
        points[::7, 2] = 2.0
        self._check(points, VoxelConfig(range=SMALL_RANGE, vx=0.3, vy=0.7, vz=0.45,
                                        max_points_per_voxel=2, max_voxels=40))

    @pytest.mark.parametrize("lo", [0.0, -75.2, 3.3])
    def test_points_one_unit_above_the_lower_bound(self, lo):
        spec = RangeSpec(lo, lo + 2.0, lo, lo + 2.0, lo, lo + 2.0)
        offsets = [1.0, 0.3, 0.7, 1.0 - 1e-12, 1.0 + 1e-12, 0.0]
        points = np.array([(lo + a, lo + b, lo + c, 0.5, 0.0)
                           for a in offsets for b in offsets for c in offsets])
        self._check(points, VoxelConfig(range=spec, vx=0.1, vy=0.1, vz=0.1,
                                        max_points_per_voxel=3, max_voxels=50))

    def test_empty_cloud(self):
        self._check(np.zeros((0, 5)), SMALL_CONFIG)

    def test_all_points_out_of_range(self):
        rng = np.random.default_rng(951)
        points = np.column_stack([
            rng.uniform(5.0, 9.0, 200), rng.uniform(0.0, 4.0, 200),
            rng.uniform(0.0, 2.0, 200), rng.random(200), np.zeros(200),
        ])
        self._check(points, SMALL_CONFIG)

    @pytest.mark.parametrize("max_points, max_voxels", [(1, 1), (1, 7), (2, 1), (4, 3)])
    def test_tight_caps_and_budgets(self, max_points, max_voxels):
        rng = np.random.default_rng(952)
        config = VoxelConfig(range=DEFAULT_RANGE, max_points_per_voxel=max_points,
                             max_voxels=max_voxels)
        points = np.column_stack([
            rng.uniform(-80.0, 80.0, 2000), rng.uniform(-80.0, 80.0, 2000),
            rng.uniform(-3.0, 5.0, 2000), rng.random(2000), 0.1 * rng.random(2000),
        ])
        points[::4, :3] = points[1, :3]
        self._check(points, config)


# Keys (ix * ny + iy) * nz + iz reach (2**31 - 1)**2 * 2 - 1, within 2**33 of 2**63.
NEAR_KEY_LIMIT = VoxelConfig(
    range=RangeSpec(0.0, 2.0**31 - 1.0, 0.0, 2.0**31 - 1.0, 0.0, 2.0),
    vx=1.0, vy=1.0, vz=1.0, max_points_per_voxel=2, max_voxels=3,
)
_CONFIGS = [
    SMALL_CONFIG,
    VoxelConfig(range=SMALL_RANGE, vx=0.3, vy=0.7, vz=0.45),
    VoxelConfig(range=RangeSpec(-1.0, 1.5, -2.0, 0.5, -0.5, 1.0), vx=0.25, vy=0.5, vz=1.0),
    NEAR_KEY_LIMIT,
]


@st.composite
def _clouds(draw):
    """A config with caps of 1 to 4 points and 1 to 12 voxels, and up to 40
    points: coordinates inside, on either bound of or just beyond the range,
    many of them piled on a few shared positions."""
    config = replace(draw(st.sampled_from(_CONFIGS)),
                     max_points_per_voxel=draw(st.integers(1, 4)),
                     max_voxels=draw(st.integers(1, 12)))
    r = config.range
    axes = [(r.x_min, r.x_max), (r.y_min, r.y_max), (r.z_min, r.z_max)]
    coordinate = [
        st.one_of(st.floats(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo)), st.sampled_from([lo, hi]))
        for lo, hi in axes
    ]
    position = st.tuples(*coordinate)
    shared = draw(st.lists(position, min_size=1, max_size=3))
    rows = draw(st.lists(
        st.tuples(st.one_of(position, st.sampled_from(shared)),
                  st.floats(0.0, 10.0), st.floats(0.0, 1.0)),
        max_size=40,
    ))
    points = np.array([(*xyz, intensity, t) for xyz, intensity, t in rows]).reshape(-1, 5)
    return points, config


class TestAgainstReferenceGroup:
    """The one-sort grouping against the three-sort reference: every array
    equal byte for byte, and both drop counts equal, in both modes."""

    @staticmethod
    def _check(points, config):
        cloud = PointCloud(points=points)
        caps = {
            VoxelMode.DYNAMIC: (voxelize_dynamic, len(cloud), len(cloud)),
            VoxelMode.HARD: (voxelize_hard, config.max_points_per_voxel, config.max_voxels),
        }
        for mode, (voxelize, max_points, max_voxels) in caps.items():
            grid = voxelize(cloud, config)
            ref = reference_group(cloud, config, mode, max_points, max_voxels)
            assert grid.mode is ref.mode is mode
            for name in ("coords", "counts", "features", "point_voxel"):
                got, want = getattr(grid, name), getattr(ref, name)
                assert (got.dtype, got.shape) == (want.dtype, want.shape), name
                assert got.tobytes() == want.tobytes(), name
            assert (grid.dropped_points, grid.dropped_voxels) == (
                ref.dropped_points, ref.dropped_voxels)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_clouds())
    def test_equal_to_the_reference(self, case):
        self._check(*case)

    def test_empty_cloud(self):
        self._check(np.zeros((0, 5)), SMALL_CONFIG)

    def test_every_point_in_one_voxel(self):
        rng = np.random.default_rng(960)
        points = np.column_stack([
            rng.uniform(1.0, 2.0, (50, 3)), rng.random(50), 0.1 * rng.random(50)])
        for max_points in (1, 7, 50, 51):
            self._check(points, VoxelConfig(range=SMALL_RANGE, vx=1.0, vy=1.0, vz=1.0,
                                            max_points_per_voxel=max_points, max_voxels=1))

    def test_points_on_the_upper_bounds(self):
        corners = [(x, y, z, 0.5, 0.0) for x in (3.9, 4.0) for y in (3.9, 4.0)
                   for z in (1.9, 2.0)]
        points = np.array(corners * 3)
        for config in _CONFIGS[:3]:
            self._check(points, config)

    @pytest.mark.parametrize("max_points, max_voxels", [(1, 1), (1, 10**6), (10**6, 1)])
    def test_caps_of_one(self, max_points, max_voxels):
        rng = np.random.default_rng(961)
        points = np.column_stack([
            rng.uniform(-0.5, 4.5, 400), rng.uniform(-0.5, 4.5, 400),
            rng.uniform(-0.2, 2.2, 400), rng.random(400), np.zeros(400)])
        points[::3, :3] = points[0, :3]
        self._check(points, VoxelConfig(range=SMALL_RANGE, vx=0.5, vy=0.5, vz=0.5,
                                        max_points_per_voxel=max_points,
                                        max_voxels=max_voxels))

    def test_keys_near_the_int64_limit(self):
        top = 2.0**31 - 1.0
        points = np.array([
            (top, top, 2.0, 1.0, 0.0), (0.0, 0.0, 0.0, 2.0, 0.0), (top, top, 1.5, 3.0, 0.0),
            (top - 1.0, top, 2.0, 4.0, 0.0), (top, top, 2.0, 5.0, 0.0), (top, 0.0, 2.0, 6.0, 0.0),
            (top, top, 2.0, 7.0, 0.0),
        ])
        nx, ny, nz = NEAR_KEY_LIMIT.grid_shape
        assert 2**63 - 2**34 < nx * ny * nz <= 2**63 - 1
        self._check(points, NEAR_KEY_LIMIT)
        grid = voxelize_dynamic(PointCloud(points), NEAR_KEY_LIMIT)
        assert _cells(grid)[0] == (nx - 1, ny - 1, nz - 1)

    @pytest.mark.parametrize("count", [0, 1])
    def test_few_points_on_the_largest_grid(self, count):
        top = 2.0**31 - 1.0
        points = np.array([(top, top, 2.0, 1.0, 0.0)] * count).reshape(-1, 5)
        self._check(points, NEAR_KEY_LIMIT)

    @pytest.mark.parametrize("count", [2, 3])
    def test_points_in_the_last_cell_either_side_of_the_tagged_key_bound(self, count):
        # Tagged keys key * n + arrival fit in int64 for n = 2 in-range points
        # and not for n = 3; the hard cap of 2 keeps the first two arrivals.
        top = 2.0**31 - 1.0
        config = VoxelConfig(range=RangeSpec(0.0, top, 0.0, top, 0.0, 1.0),
                             vx=1.0, vy=1.0, vz=1.0, max_points_per_voxel=2, max_voxels=3)
        nx, ny, nz = config.grid_shape
        assert (nx, ny, nz) == (2**31 - 1, 2**31 - 1, 1)
        largest_tagged = (nx * ny * nz - 1) * count + count - 1
        if count == 2:
            assert 2**63 - 2**33 < largest_tagged <= 2**63 - 1
        else:
            assert largest_tagged > 2**63 - 1
        points = np.array([(top, top, 1.0, float(i), 0.5 * i) for i in range(count)])
        self._check(points, config)
        grid = voxelize_hard(PointCloud(points), config)
        assert _cells(grid) == [(nx - 1, ny - 1, nz - 1)]
        assert grid.point_voxel.tolist() == [0, 0, -1][:count]
