import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarpost.geometry import Box3D, wrap_angle
from lidarpost.pointcloud import (
    DEFAULT_DELTA,
    DEFAULT_RANGE,
    ROTATION_RANGE,
    SCALE_RANGE,
    Axis,
    PointCloud,
    RangeSpec,
    concat_frames,
    crop_range,
    flip,
    global_rotate,
    global_scale,
    sample_augmentation,
)
from oracles import reference_point_error


X, Y, Z, INTENSITY, T = range(5)


def _cloud(coords, frame_id="f", timestamp=0.0):
    points = np.array([(x, y, z, 0.0) for x, y, z in coords]).reshape(-1, 4)
    return PointCloud(points=points, frame_id=frame_id, timestamp=timestamp)


def _random_cloud(rng, n=50):
    points = [
        (
            float(rng.uniform(-60, 60)),
            float(rng.uniform(-60, 60)),
            float(rng.uniform(-2, 4)),
            float(rng.uniform(0, 1)),
            float(rng.uniform(0, 0.2)),
        )
        for _ in range(n)
    ]
    return PointCloud(points=np.array(points).reshape(-1, 5), frame_id="r", timestamp=1.0)


class TestPointValidation:
    def test_four_channels_default_time_to_zero(self):
        cloud = PointCloud(np.array([[1.0, 2.0, 3.0, 0.0]]))
        assert cloud.points.shape == (1, 5)
        assert cloud.points[0, INTENSITY] == 0.0
        assert cloud.points[0, T] == 0.0

    def test_validation_names_the_first_bad_record(self):
        with pytest.raises(ValueError, match="record 0: non-finite"):
            PointCloud(np.array([[math.nan, 0.0, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="record 1: intensity must be non-negative"):
            PointCloud(np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -0.5]]))
        with pytest.raises(ValueError, match="record 0: t must be non-negative"):
            PointCloud(np.array([[0.0, 0.0, 0.0, 0.0, -0.1], [math.inf, 0, 0, 0, 0]]))

    def test_other_shapes_rejected(self):
        for shape in ((3,), (2, 3), (2, 6), (1, 2, 5)):
            with pytest.raises(ValueError, match="expected an"):
                PointCloud(np.zeros(shape))

    def test_points_are_a_read_only_copy(self):
        given = np.array([[1.0, 2.0, 3.0, 0.5, 0.1]])
        cloud = PointCloud(given)
        given[0, X] = 9.0
        assert cloud.points[0, X] == 1.0
        with pytest.raises(ValueError):
            cloud.points[0, X] = 9.0


_VALUES = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, -1.0, -1e-300, 5e-324,
                     1e308, -1e308, 3.4e38]),
)


def _error(points):
    try:
        PointCloud(points)
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def _point_inputs(draw):
    """An (N, 4) or (N, 5) float32, float64 or int array, or a list of rows."""
    rows = draw(st.lists(st.lists(_VALUES, min_size=5, max_size=5), max_size=8))
    width = draw(st.sampled_from([4, 5]))
    values = np.array(rows, dtype=np.float64).reshape(-1, 5)[:, :width]
    kind = draw(st.sampled_from(["float64", "float32", "int", "list"]))
    if kind == "float32":
        with np.errstate(over="ignore"):
            return values.astype(np.float32)
    if kind == "int":
        return np.array([[draw(st.integers(-3, 3)) for _ in range(width)] for _ in rows],
                        dtype=np.int64).reshape(-1, width)
    # An empty list has shape (0,), which no cloud has.
    return values.tolist() if kind == "list" and rows else values


class TestOnePassCheck:
    """The constructor accepts and refuses exactly the clouds a scan of one
    row at a time does, with the same message."""

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(_point_inputs())
    def test_same_verdict_as_the_row_scan(self, points):
        assert _error(points) == reference_point_error(points)

    @pytest.mark.parametrize("width", [4, 5])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_value_anywhere(self, width, bad):
        for row in range(3):
            for column in range(width):
                points = np.full((3, width), 0.5)
                points[row, column] = bad
                for given_points in (points, points.astype(np.float32), points.tolist()):
                    assert _error(given_points) == f"record {row}: non-finite value"

    def test_signed_zeros_pass_and_negatives_are_named(self):
        assert _error(np.array([[0.0, 0.0, 0.0, -0.0, -0.0]])) is None
        assert _error([[1.0, 2.0, 3.0, 0.5, 0.0], [1.0, 2.0, 3.0, -1e-300, 0.0]]) == (
            "record 1: intensity must be non-negative, got -1e-300")
        assert _error(np.array([[1, 2, 3, 4, -2]])) == "record 0: t must be non-negative, got -2.0"
        assert _error(np.array([[0.0, 0.0, 0.0, -5.0, -1.0]], dtype=np.float32)) == (
            "record 0: intensity must be non-negative, got -5.0")

    def test_finite_rows_whose_sum_overflows_are_accepted(self):
        points = np.array([[1e308, 1e308, 1e308, 1e308, 1e308]] * 3)
        with np.errstate(over="ignore"):
            assert not math.isfinite(points.sum())
        np.testing.assert_array_equal(PointCloud(points).points, points)
        mixed = np.array([[1e308, -1e308, 1e308, 0.0], [-1e308, 1e308, -1e308, 1e308]])
        np.testing.assert_array_equal(PointCloud(mixed).points[:, :4], mixed)

    def test_an_overflowing_sum_still_names_the_first_bad_row(self):
        points = np.array([[1e308] * 5, [1e308] * 5, [0.0, 0.0, 0.0, 1.0, -0.5]])
        assert _error(points) == "record 2: t must be non-negative, got -0.5"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64, np.int32, list])
    @pytest.mark.parametrize("width", [4, 5])
    def test_every_input_kind_is_copied_to_float64(self, dtype, width):
        values = np.array([[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]])[:, :width]
        given_points = values.tolist() if dtype is list else values.astype(dtype)
        cloud = PointCloud(given_points)
        assert cloud.points.dtype == np.float64 and cloud.points.shape == (2, 5)
        expected = np.zeros((2, 5))
        expected[:, :width] = values
        np.testing.assert_array_equal(cloud.points, expected)
        assert not np.shares_memory(cloud.points, given_points)


class TestPointCloudContainer:
    def test_len_and_iter(self):
        cloud = _cloud([(1, 2, 3), (4, 5, 6)])
        assert len(cloud) == 2
        assert [row[X] for row in cloud.points] == [1.0, 4.0]

    def test_array_round_trip(self):
        rng = np.random.default_rng(0)
        cloud = _random_cloud(rng, n=20)
        arr = cloud.points
        assert arr.shape == (20, 5)
        assert arr.dtype == np.float64
        back = PointCloud(arr, frame_id=cloud.frame_id, timestamp=cloud.timestamp)
        np.testing.assert_array_equal(back.points, cloud.points)

    def test_from_array_accepts_four_channels(self):
        arr = np.array([[1.0, 2.0, 3.0, 0.5]])
        cloud = PointCloud(arr, frame_id="f", timestamp=0.0)
        assert cloud.points[0, INTENSITY] == 0.5
        assert cloud.points[0, T] == 0.0


class TestRangeSpec:
    def test_contains(self):
        points = np.array([
            (0.0, 0.0, 0.0), (75.2, -75.2, 4.0), (76.0, 0.0, 0.0), (0.0, 0.0, 4.5),
        ])
        assert DEFAULT_RANGE.contains(points).tolist() == [True, True, False, False]

    def test_invalid_extents_rejected(self):
        with pytest.raises(ValueError):
            RangeSpec(x_min=1.0, x_max=-1.0, y_min=-1, y_max=1, z_min=-1, z_max=1)
        with pytest.raises(ValueError):
            RangeSpec(x_min=0.0, x_max=0.0, y_min=-1, y_max=1, z_min=-1, z_max=1)

    def test_default_range_values(self):
        assert DEFAULT_RANGE.x_min == -75.2
        assert DEFAULT_RANGE.x_max == 75.2
        assert DEFAULT_RANGE.y_min == -75.2
        assert DEFAULT_RANGE.y_max == 75.2
        assert DEFAULT_RANGE.z_min == -2.0
        assert DEFAULT_RANGE.z_max == 4.0


class TestConcatFrames:
    def test_time_channel_tagging(self):
        current = _cloud([(1, 2, 3)], timestamp=10.0)
        previous = _cloud([(4, 5, 6)], timestamp=9.9)
        merged = concat_frames(current, previous)
        assert len(merged) == 2
        assert merged.points[0, T] == 0.0
        assert merged.points[0, X] == 1.0
        assert merged.points[1, T] == pytest.approx(DEFAULT_DELTA)
        assert merged.points[1, X] == 4.0

    def test_current_frame_metadata_kept(self):
        current = _cloud([(1, 2, 3)], frame_id="now", timestamp=10.0)
        previous = _cloud([(4, 5, 6)], frame_id="before", timestamp=9.9)
        merged = concat_frames(current, previous)
        assert merged.frame_id == "now"
        assert merged.timestamp == 10.0

    def test_custom_delta(self):
        merged = concat_frames(_cloud([(0, 0, 0)]), _cloud([(1, 1, 1)]), delta=0.25)
        assert merged.points[1, T] == 0.25

    def test_empty_frames(self):
        merged = concat_frames(_cloud([]), _cloud([(1, 1, 1)]))
        assert len(merged) == 1
        merged = concat_frames(_cloud([(1, 1, 1)]), _cloud([]))
        assert len(merged) == 1
        assert len(concat_frames(_cloud([]), _cloud([]))) == 0

    def test_invalid_delta_rejected(self):
        with pytest.raises(ValueError):
            concat_frames(_cloud([(0, 0, 0)]), _cloud([(1, 1, 1)]), delta=0.0)
        with pytest.raises(ValueError):
            concat_frames(_cloud([(0, 0, 0)]), _cloud([(1, 1, 1)]), delta=-0.1)
        with pytest.raises(ValueError):
            concat_frames(_cloud([(0, 0, 0)]), _cloud([(1, 1, 1)]), delta=math.inf)

    def test_length_and_time_partition_property(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a = _random_cloud(rng, n=int(rng.integers(0, 40)))
            b = _random_cloud(rng, n=int(rng.integers(0, 40)))
            merged = concat_frames(a, b, delta=0.1)
            assert len(merged) == len(a) + len(b)
            times = merged.points[:, T]
            assert all(t == 0.0 for t in times[: len(a)])
            assert all(t == 0.1 for t in times[len(a) :])
            # geometry untouched
            before = np.concatenate([a.points, b.points])
            np.testing.assert_array_equal(before[:, :4], merged.points[:, :4])


class TestCropRange:
    def test_keeps_interior_and_boundary(self):
        cloud = _cloud([(0, 0, 0), (75.2, 75.2, 4.0), (-75.2, -75.2, -2.0)])
        kept = crop_range(cloud, DEFAULT_RANGE)
        assert len(kept) == 3

    def test_drops_outside(self):
        cloud = _cloud([(76.0, 0, 0), (0, -80.0, 0), (0, 0, 4.1)])
        assert len(crop_range(cloud, DEFAULT_RANGE)) == 0

    def test_order_preserved_and_idempotent(self):
        rng = np.random.default_rng(22)
        cloud = _cloud(
            [
                (
                    float(rng.uniform(-100, 100)),
                    float(rng.uniform(-100, 100)),
                    float(rng.uniform(-5, 6)),
                )
                for _ in range(200)
            ],
            frame_id="c",
        )
        once = crop_range(cloud, DEFAULT_RANGE)
        twice = crop_range(once, DEFAULT_RANGE)
        np.testing.assert_array_equal(once.points, twice.points)
        r = DEFAULT_RANGE
        kept = [
            row for row in cloud.points
            if r.x_min <= row[X] <= r.x_max
            and r.y_min <= row[Y] <= r.y_max
            and r.z_min <= row[Z] <= r.z_max
        ]
        np.testing.assert_array_equal(once.points, np.array(kept).reshape(-1, 5))


class TestFlip:
    def test_flip_x_point_and_heading(self):
        cloud = _cloud([(1, 2, 3)])
        box = Box3D(cx=1, cy=2, cz=0, length=4, width=2, height=1, heading=0.5)
        new_cloud, new_boxes = flip(cloud, [box], axis=Axis.X)
        assert new_cloud.points[0, :3].tolist() == [1.0, -2.0, 3.0]
        assert new_boxes[0].cy == -2.0
        assert new_boxes[0].cx == 1.0
        assert new_boxes[0].heading == pytest.approx(-0.5)

    def test_flip_y_point_and_heading(self):
        cloud = _cloud([(1, 2, 3)])
        box = Box3D(cx=1, cy=2, cz=0, length=4, width=2, height=1, heading=0.5)
        new_cloud, new_boxes = flip(cloud, [box], axis=Axis.Y)
        assert new_cloud.points[0, :3].tolist() == [-1.0, 2.0, 3.0]
        assert new_boxes[0].cx == -1.0
        assert new_boxes[0].heading == pytest.approx(math.pi - 0.5)

    def test_involution(self):
        rng = np.random.default_rng(23)
        cloud = _random_cloud(rng, n=30)
        boxes = [
            Box3D(
                cx=float(rng.uniform(-10, 10)),
                cy=float(rng.uniform(-10, 10)),
                cz=0.0,
                length=4.0,
                width=2.0,
                height=1.5,
                heading=float(rng.uniform(-math.pi, math.pi)),
            )
            for _ in range(5)
        ]
        for axis in (Axis.X, Axis.Y):
            c2, b2 = flip(*flip(cloud, boxes, axis=axis), axis=axis)
            for before, after in zip(cloud.points, c2.points):
                assert before[X] == pytest.approx(after[X], abs=1e-12)
                assert before[Y] == pytest.approx(after[Y], abs=1e-12)
            for before, after in zip(boxes, b2):
                assert before.cx == pytest.approx(after.cx, abs=1e-12)
                assert before.cy == pytest.approx(after.cy, abs=1e-12)
                assert math.cos(before.heading) == pytest.approx(math.cos(after.heading), abs=1e-12)
                assert math.sin(before.heading) == pytest.approx(math.sin(after.heading), abs=1e-12)

    def test_an_axis_name_is_not_an_axis(self):
        cloud = _random_cloud(np.random.default_rng(26), n=3)
        with pytest.raises(ValueError) as refused:
            flip(cloud, [], "X")
        assert str(refused.value) == "axis must be Axis.X or Axis.Y, got 'X'"

    def test_pairwise_distances_preserved(self):
        rng = np.random.default_rng(24)
        cloud = _random_cloud(rng, n=20)
        flipped, _ = flip(cloud, [], axis=Axis.X)
        a = cloud.points[:, :3]
        b = flipped.points[:, :3]
        da = np.linalg.norm(a[:, None, :] - a[None, :, :], axis=-1)
        db = np.linalg.norm(b[:, None, :] - b[None, :, :], axis=-1)
        assert np.allclose(da, db, atol=1e-9)


class TestGlobalScale:
    def test_identity(self):
        rng = np.random.default_rng(25)
        cloud = _random_cloud(rng, n=10)
        box = Box3D(cx=1, cy=1, cz=0, length=4, width=2, height=1, heading=0.1)
        c2, b2 = global_scale(cloud, [box], factor=1.0)
        np.testing.assert_array_equal(c2.points[:, :3], cloud.points[:, :3])
        assert b2[0] == box

    def test_scales_centers_and_dimensions(self):
        cloud = _cloud([(10.0, 0.0, 0.0)])
        box = Box3D(cx=1.0, cy=-2.0, cz=0.5, length=4.0, width=2.0, height=1.0, heading=0.3)
        c2, b2 = global_scale(cloud, [box], factor=0.95)
        assert c2.points[0, X] == pytest.approx(9.5)
        assert b2[0].cx == pytest.approx(0.95)
        assert b2[0].cy == pytest.approx(-1.9)
        assert b2[0].cz == pytest.approx(0.475)
        assert b2[0].length == pytest.approx(3.8)
        assert b2[0].width == pytest.approx(1.9)
        assert b2[0].height == pytest.approx(0.95)
        assert b2[0].heading == pytest.approx(0.3)

    def test_intensity_and_time_untouched(self):
        cloud = PointCloud(
            points=np.array([[1, 1, 1, 0.7, 0.1]]),
            frame_id="f",
            timestamp=0.0,
        )
        c2, _ = global_scale(cloud, [], factor=2.0)
        assert c2.points[0, INTENSITY] == 0.7
        assert c2.points[0, T] == 0.1

    def test_distances_scale_exactly(self):
        rng = np.random.default_rng(26)
        cloud = _random_cloud(rng, n=15)
        factor = 1.05
        scaled, _ = global_scale(cloud, [], factor=factor)
        a = cloud.points[:, :3]
        b = scaled.points[:, :3]
        da = np.linalg.norm(a[:, None, :] - a[None, :, :], axis=-1)
        db = np.linalg.norm(b[:, None, :] - b[None, :, :], axis=-1)
        assert np.allclose(db, factor * da, rtol=1e-12, atol=1e-12)

    def test_non_positive_factor_rejected(self):
        cloud = _cloud([(1, 1, 1)])
        for factor in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                global_scale(cloud, [], factor=factor)


class TestGlobalRotate:
    def test_quarter_turn(self):
        cloud = _cloud([(1.0, 0.0, 2.0)])
        box = Box3D(cx=1.0, cy=0.0, cz=0.0, length=4, width=2, height=1, heading=0.0)
        c2, b2 = global_rotate(cloud, [box], angle=math.pi / 2.0)
        p = c2.points[0]
        assert p[X] == pytest.approx(0.0, abs=1e-9)
        assert p[Y] == pytest.approx(1.0, abs=1e-9)
        assert p[Z] == 2.0
        assert b2[0].cx == pytest.approx(0.0, abs=1e-9)
        assert b2[0].cy == pytest.approx(1.0, abs=1e-9)
        assert b2[0].heading == pytest.approx(math.pi / 2.0)

    def test_heading_wraps(self):
        box = Box3D(cx=0, cy=0, cz=0, length=1, width=1, height=1, heading=3.0)
        _, b2 = global_rotate(_cloud([]), [box], angle=1.0)
        assert b2[0].heading == pytest.approx(wrap_angle(4.0))

    def test_inverse_composition(self):
        rng = np.random.default_rng(27)
        cloud = _random_cloud(rng, n=20)
        angle = 0.7
        once, _ = global_rotate(cloud, [], angle=angle)
        back, _ = global_rotate(once, [], angle=-angle)
        for before, after in zip(cloud.points, back.points):
            assert before[X] == pytest.approx(after[X], abs=1e-9)
            assert before[Y] == pytest.approx(after[Y], abs=1e-9)
            assert before[Z] == after[Z]

    def test_distances_preserved(self):
        rng = np.random.default_rng(28)
        cloud = _random_cloud(rng, n=20)
        rotated, _ = global_rotate(cloud, [], angle=-1.2)
        a = cloud.points[:, :3]
        b = rotated.points[:, :3]
        da = np.linalg.norm(a[:, None, :] - a[None, :, :], axis=-1)
        db = np.linalg.norm(b[:, None, :] - b[None, :, :], axis=-1)
        assert np.allclose(da, db, atol=1e-9)

    def test_matches_the_scalar_formula_exactly(self):
        rng = np.random.default_rng(29)
        cloud = _random_cloud(rng, n=50)
        angle = 0.37
        rotated, _ = global_rotate(cloud, [], angle=angle)
        c, s = math.cos(angle), math.sin(angle)
        expected = [
            [c * x - s * y, s * x + c * y, z, i, t]
            for x, y, z, i, t in cloud.points.tolist()
        ]
        assert rotated.points.tolist() == expected

    def test_non_finite_angle_rejected(self):
        with pytest.raises(ValueError):
            global_rotate(_cloud([]), [], angle=math.nan)


class TestSampleAugmentation:
    def test_deterministic_for_fixed_seed(self):
        assert sample_augmentation(1234) == sample_augmentation(1234)

    def test_fields_within_documented_ranges(self):
        for seed in range(500):
            sample = sample_augmentation(seed)
            assert isinstance(sample.flip_x, bool)
            assert isinstance(sample.flip_y, bool)
            assert SCALE_RANGE[0] <= sample.scale <= SCALE_RANGE[1]
            assert ROTATION_RANGE[0] <= sample.angle <= ROTATION_RANGE[1]

    def test_distribution_statistics(self):
        n = 100_000
        flips_x = 0
        flips_y = 0
        scale_sum = 0.0
        angle_min = math.inf
        angle_max = -math.inf
        for seed in range(n):
            sample = sample_augmentation(seed)
            flips_x += sample.flip_x
            flips_y += sample.flip_y
            scale_sum += sample.scale
            angle_min = min(angle_min, sample.angle)
            angle_max = max(angle_max, sample.angle)
        assert 0.49 <= flips_x / n <= 0.51
        assert 0.49 <= flips_y / n <= 0.51
        assert abs(scale_sum / n - 1.0) <= 0.001
        assert angle_min >= -math.pi / 4.0
        assert angle_max <= math.pi / 4.0
        # the draws should actually explore the extremes
        assert angle_min <= -math.pi / 4.0 + 0.01
        assert angle_max >= math.pi / 4.0 - 0.01

    def test_defaults_constants(self):
        assert DEFAULT_DELTA == 0.1
        assert SCALE_RANGE == (0.95, 1.05)
        assert ROTATION_RANGE == (-math.pi / 4.0, math.pi / 4.0)
