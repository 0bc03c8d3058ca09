import math
import tracemalloc
from dataclasses import fields, replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lidarpost.geometry import (
    BOX_DOMAINS,
    Box3D,
    DetectionSet,
    Label,
    bev_iou,
    clip_convex,
    heading_error,
    iou3d,
    iou_matrix,
    polygon_area,
    score_order,
    unchecked_box,
    wrap_angle,
    wrap_angles,
)
from oracles import mc_bev_iou, random_box


class TestWrapAngle:
    def test_identity_inside_range(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(1.5) == 1.5
        assert wrap_angle(-3.0) == -3.0

    def test_three_pi_maps_to_pi(self):
        assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi, abs=1e-12)

    def test_negative_pi_maps_to_positive_pi(self):
        assert wrap_angle(-math.pi) == math.pi

    def test_pi_stays_pi(self):
        assert wrap_angle(math.pi) == math.pi

    def test_result_always_in_half_open_range(self):
        rng = np.random.default_rng(7)
        for theta in rng.uniform(-50.0, 50.0, size=500):
            wrapped = wrap_angle(float(theta))
            assert -math.pi < wrapped <= math.pi

    def test_two_pi_periodicity(self):
        rng = np.random.default_rng(8)
        for theta in rng.uniform(-10.0, 10.0, size=200):
            a = wrap_angle(float(theta))
            b = wrap_angle(float(theta) + 2.0 * math.pi)
            assert a == pytest.approx(b, abs=1e-9)

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                wrap_angle(bad)

    def test_array_form_is_bit_identical(self):
        rng = np.random.default_rng(10)
        edges = [k * math.pi for k in range(-7, 8)]
        near = [math.nextafter(e, d) for e in edges for d in (-math.inf, math.inf)]
        theta = np.concatenate([
            rng.uniform(-50.0, 50.0, 5000), rng.uniform(-1e12, 1e12, 1000),
            np.array(edges + near + [0.0, -0.0, 1.7e308, -1.7e308, 5e-324, -5e-324]),
        ])
        got = wrap_angles(theta)
        want = np.array([wrap_angle(float(t)) for t in theta])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


_PI_MULTIPLES = [k * math.pi for k in (1, 2, 3, 7, 1e6, 2**52, 1e16, 1e300)]
_PI_EDGES = [s * e for e in _PI_MULTIPLES for s in (1.0, -1.0)]
_NEAR_PI_EDGES = [math.nextafter(e, d) for e in _PI_EDGES for d in (-math.inf, math.inf)]


class TestWrapIdempotent:
    """Wrapping a wrapped angle returns it bit for bit, so a box whose
    heading is wrapped keeps it when it goes through Box3D again."""

    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from(_PI_EDGES + _NEAR_PI_EDGES)))
    @example(7.398931900000001e25)  # the floor form alone leaves (-pi, pi] here
    def test_wrap_twice_equals_wrap_once(self, theta):
        once = wrap_angle(theta)
        assert -math.pi < once <= math.pi
        assert math.copysign(1.0, wrap_angle(once)) == math.copysign(1.0, once)
        assert wrap_angle(once) == once
        assert wrap_angles(np.array([theta])).view(np.int64)[0] == np.array([once]).view(np.int64)[0]

    def test_box_heading_survives_replace(self):
        box = Box3D(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, heading=7.398931900000001e25)
        assert replace(box, track_id=3).heading == box.heading == wrap_angle(box.heading)


class TestHeadingError:
    def test_zero_for_equal_headings(self):
        assert heading_error(0.7, 0.7) == 0.0

    def test_opposite_headings(self):
        assert heading_error(0.0, math.pi) == pytest.approx(math.pi, abs=1e-12)

    def test_wraps_across_branch_cut(self):
        # -3 rad and +3 rad are only 2*pi - 6 apart.
        assert heading_error(-3.0, 3.0) == pytest.approx(
            0.28318530717958623, abs=1e-12
        )

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(9)
        for a, b in rng.uniform(-9.0, 9.0, size=(200, 2)):
            err = heading_error(float(a), float(b))
            assert err == pytest.approx(heading_error(float(b), float(a)), abs=1e-12)
            assert 0.0 <= err <= math.pi + 1e-12


class TestBox3D:
    def test_basic_construction_and_extents(self):
        box = Box3D(cx=1.0, cy=2.0, cz=0.5, length=4.0, width=2.0, height=1.5, heading=0.0)
        assert box.z_min == pytest.approx(-0.25)
        assert box.z_max == pytest.approx(1.25)
        assert box.bev_area == pytest.approx(8.0)
        assert box.volume == pytest.approx(12.0)

    def test_heading_is_normalized_on_construction(self):
        box = Box3D(cx=0, cy=0, cz=0, length=1, width=1, height=1, heading=3.0 * math.pi)
        assert box.heading == pytest.approx(math.pi, abs=1e-12)

    def test_non_positive_dimensions_rejected(self):
        for field in ("length", "width", "height"):
            kwargs = dict(cx=0, cy=0, cz=0, length=1, width=1, height=1, heading=0)
            kwargs[field] = 0.0
            with pytest.raises(ValueError):
                Box3D(**kwargs)
            kwargs[field] = -1.0
            with pytest.raises(ValueError):
                Box3D(**kwargs)

    def test_score_out_of_range_rejected(self):
        for score in (-0.1, 1.1):
            with pytest.raises(ValueError):
                Box3D(cx=0, cy=0, cz=0, length=1, width=1, height=1, heading=0, score=score)

    def test_non_finite_center_rejected(self):
        with pytest.raises(ValueError):
            Box3D(cx=math.nan, cy=0, cz=0, length=1, width=1, height=1, heading=0)

    def test_optional_metadata_validation(self):
        with pytest.raises(ValueError):
            Box3D(cx=0, cy=0, cz=0, length=1, width=1, height=1, heading=0, track_id=-1)
        with pytest.raises(ValueError):
            Box3D(cx=0, cy=0, cz=0, length=1, width=1, height=1, heading=0, difficulty=3)
        with pytest.raises(ValueError):
            Box3D(cx=0, cy=0, cz=0, length=1, width=1, height=1, heading=0, num_points=-5)

    @pytest.mark.parametrize("field, value", [
        *((name, True) for name in ("cx", "cy", "cz", "length", "width", "height", "heading",
                                    "score")),
        *((name, True) for name in ("track_id", "difficulty", "num_points", "source_id")),
        ("track_id", False), ("track_id", 1.5), ("difficulty", 2.0), ("num_points", 2.0),
        ("source_id", 1.0),
        *((name, sign * 10**400) for name in ("cx", "cy", "cz", "length", "width", "height",
                                              "heading", "score") for sign in (1, -1)),
        ("cx", 2**1024 - 2**970),
    ])
    def test_values_a_box_file_cannot_carry_rejected(self, field, value):
        """A bool is no number, a float no id and an int beyond float range
        out of range to read_boxes, so a box that holds one could be written
        but not read back."""
        kwargs = dict(cx=0, cy=0, cz=0, length=1, width=1, height=1, heading=0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be"):
            Box3D(**kwargs)

    def test_label_must_be_a_label_member(self):
        with pytest.raises(ValueError) as refused:
            Box3D(cx=0, cy=0, cz=0, length=1, width=1, height=1, heading=0, label="VEHICLE")
        assert str(refused.value) == "label must be a Label member, got 'VEHICLE'"

    def test_an_int_is_stored_as_its_float(self):
        largest = 2**1024 - 2**970 - 1  # the largest int that float() takes
        values = dict(cx=largest, cy=-largest, cz=2**53 + 1, length=largest, width=1, height=3,
                      heading=2, score=1)
        box = Box3D(**values)
        for name, value in values.items():
            assert type(getattr(box, name)) is float
            assert getattr(box, name) == float(value)
        # Products of floats: an int length no longer gives an exact int area.
        assert type(box.bev_area) is float and box.bev_area == float(largest)
        assert box.cz == 2.0**53

    def test_corners_are_counter_clockwise(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            box = random_box(rng)
            corners = box.corners_bev()
            assert polygon_area(corners) == pytest.approx(box.bev_area, rel=1e-9)

    def test_contains_bev_center_and_outside(self):
        box = Box3D(cx=1, cy=2, cz=0, length=4, width=2, height=1, heading=0.3)
        assert box.contains_bev(1.0, 2.0)
        assert not box.contains_bev(10.0, 10.0)

    def test_contains_bev_boundary_is_closed(self):
        box = Box3D(cx=0, cy=0, cz=0, length=4, width=2, height=1, heading=0.0)
        assert box.contains_bev(2.0, 1.0)
        assert box.contains_bev(2.0, 0.0)
        assert not box.contains_bev(2.0 + 1e-9, 0.0)


_NUMBERS = ("cx", "cy", "cz", "length", "width", "height", "heading", "score")
_IDS = ("track_id", "difficulty", "num_points", "source_id")
_ABOVE_1 = math.nextafter(1.0, 2.0)
_BEYOND = 2**1024 - 2**970  # the smallest int that float() refuses
_BIG = 10**400


def _finite_rows(name):
    return [(name, value, f"{name} must be finite, got {value!r}")
            for value in (math.nan, math.inf, -math.inf)]


def _size_rows(name):
    return [(name, value, f"{name} must be positive and finite, got {value!r}")
            for value in (math.nan, math.inf, -math.inf, 0.0, -0.0, -5e-324)]


def _not_a_number_rows(name):
    """A bool, and an int beyond float range at either end."""
    return [(name, True, f"{name} must be a number, got True"),
            (name, False, f"{name} must be a number, got False"),
            (name, _BEYOND, f"{name} must be within float range"),
            (name, -_BIG, f"{name} must be within float range")]


def _not_an_id_rows(name):
    return [(name, value, f"{name} must be an integer or None, got {value!r}")
            for value in (True, False, "1", math.nan, math.inf, -math.inf, 1.0)]


# Each refused value of each field with the exact words Box3D and
# DetectionSet raise for it. Values in a number field that are neither an int
# nor a float, a str among them, are in TestBoxNumberRule.
BOX_MESSAGES = [
    *(row for name in ("cx", "cy", "cz") for row in _finite_rows(name) + _not_a_number_rows(name)),
    *(row for name in ("length", "width", "height")
      for row in _size_rows(name) + _not_a_number_rows(name)),
    *(("heading", value, f"angle must be finite, got {value!r}")
      for value in (math.nan, math.inf, -math.inf)),
    *_not_a_number_rows("heading"),
    *(("score", value, f"score must lie in [0, 1], got {value!r}")
      for value in (math.nan, math.inf, -math.inf, -5e-324, _ABOVE_1, 2)),
    *_not_a_number_rows("score"),
    *(("label", value, f"label must be a Label member, got {value!r}")
      for value in (math.nan, math.inf, True, "VEHICLE", None, _BIG)),
    ("track_id", -1, "track_id must be non-negative, got -1"),
    ("num_points", -1, "num_points must be non-negative, got -1"),
    ("difficulty", 0, "difficulty must be 1 or 2, got 0"),
    ("difficulty", 3, "difficulty must be 1 or 2, got 3"),
    ("difficulty", -1, "difficulty must be 1 or 2, got -1"),
    ("difficulty", _BIG, f"difficulty must be 1 or 2, got {_BIG}"),
    *(row for name in _IDS for row in _not_an_id_rows(name)),
]
SET_MESSAGES = [
    *(("timestamp", value, f"timestamp must be finite, got {value!r}")
      for value in (math.nan, math.inf, -math.inf)),
    *(("timestamp", value, f"timestamp must be a number, got {value!r}")
      for value in (True, False, "0.5", None)),
    ("timestamp", _BEYOND, "timestamp must be within float range"),
    ("timestamp", -_BIG, "timestamp must be within float range"),
    *(("frame_id", value, f"frame_id must be a string, got {value!r}")
      for value in (1, None, 1.5, True, math.nan, ["f"])),
    # A set's source id stamps its boxes in merge_sources: Box3D's id rule,
    # and never None, for there is no box id for it to leave as it is.
    *(("source_id", value, f"source_id must be an integer, got {value!r}")
      for value in (1.5, True, False, None, "0", math.nan, 1.0)),
    ("source_id", -1, "source_id must be non-negative, got -1"),
]
# Values at each end of a domain that are taken.
BOX_EDGES = [
    *((name, value) for name in ("length", "width", "height")
      for value in (5e-324, 1.7e308, _BEYOND - 1)),
    *(("score", value) for value in (-0.0, 0.0, 0, 1.0, 1)),
    *(("cx", value) for value in (-1.7e308, -(_BEYOND - 1), -0.0)),
    *((name, value) for name in ("track_id", "num_points") for value in (0, 2**63, _BIG)),
    ("difficulty", 1), ("difficulty", 2), ("source_id", -1), ("source_id", _BIG),
]


_NUMBER_NAMES = ("cx", "cy", "cz", "length", "width", "height", "heading", "score")


def _valid_box_args():
    return dict(cx=0.5, cy=-0.5, cz=0.0, length=4.0, width=2.0, height=1.5, heading=0.1,
                score=0.5, label=Label.CYCLIST, track_id=1, difficulty=1, num_points=3,
                source_id=0)


class TestBoxDomain:
    """What Box3D and DetectionSet refuse, word for word, and in what order."""

    @pytest.mark.parametrize("name, value, message", BOX_MESSAGES)
    def test_a_refused_box_field_names_its_rule(self, name, value, message):
        with pytest.raises(ValueError) as refused:
            Box3D(**{**_valid_box_args(), name: value})
        assert str(refused.value) == message

    @pytest.mark.parametrize("name, value, message", SET_MESSAGES)
    def test_a_refused_set_field_names_its_rule(self, name, value, message):
        args = dict(frame_id="f", boxes=[], source_id=0, timestamp=0.5)
        with pytest.raises(ValueError) as refused:
            DetectionSet(**{**args, name: value})
        assert str(refused.value) == message

    @pytest.mark.parametrize("name, value", BOX_EDGES)
    def test_a_value_at_the_end_of_a_domain_is_taken(self, name, value):
        box = Box3D(**{**_valid_box_args(), name: value})
        # A number is stored as its float, an id as it is.
        want = float(value) if name in _NUMBER_NAMES else value
        assert getattr(box, name) == want and type(getattr(box, name)) is type(want)

    def test_the_declaration_names_the_checked_fields_in_check_order(self):
        checked = [f.name for f in fields(Box3D) if f.name not in ("heading", "source_id")]
        assert list(BOX_DOMAINS) == checked
        # Every checked field out of its domain at once: Box3D names the
        # first in the declaration, and the next once the first is mended.
        bad = dict(cx=math.nan, cy=math.inf, cz=-math.inf, length=0.0, width=-1.0,
                   height=math.nan, score=2.0, label="VEHICLE", track_id=-1, difficulty=3,
                   num_points=-2)
        args = _valid_box_args()
        for name in checked:
            with pytest.raises(ValueError) as refused:
                Box3D(**{**args, **bad})
            assert str(refused.value).startswith(f"{name} must ")
            del bad[name]
        Box3D(**args)

    @pytest.mark.parametrize("changes, message", [
        # The number rule for every number, then the id rule, then the domains.
        (dict(cx=math.nan, score=True), "score must be a number, got True"),
        (dict(cx=math.nan, heading=_BEYOND), "heading must be within float range"),
        (dict(length=0.0, track_id=1.5), "track_id must be an integer or None, got 1.5"),
        (dict(score=True, source_id=True), "score must be a number, got True"),
        (dict(length=0.0, cx=math.inf), "cx must be finite, got inf"),
        (dict(heading=math.nan, num_points=-1), "num_points must be non-negative, got -1"),
        (dict(heading=math.nan, label=None), "label must be a Label member, got None"),
    ])
    def test_the_first_rule_broken_is_the_one_named(self, changes, message):
        with pytest.raises(ValueError) as refused:
            Box3D(**{**_valid_box_args(), **changes})
        assert str(refused.value) == message


class TestBoxNumberRule:
    """A number field takes an int or a float, not a bool, that a float can
    hold: what a box file carries and reads back, and nothing else."""

    @pytest.mark.parametrize("name", _NUMBERS)
    @pytest.mark.parametrize("value", [
        "a", None, np.int64(1), np.float32(0.5), Fraction(1, 2), Decimal("0.5"),
        np.bool_(True), [1.0], 1j,
    ], ids=repr)
    def test_other_numbers_are_refused(self, name, value):
        with pytest.raises(ValueError) as refused:
            Box3D(**{**_valid_box_args(), name: value})
        assert str(refused.value) == f"{name} must be a number, got {value!r}"

    def test_a_float_subclass_is_taken(self):
        box = Box3D(**{**_valid_box_args(), "cx": np.float64(2.5), "score": np.float64(0.25)})
        assert (box.cx, box.score) == (2.5, 0.25)


class TestWithCopy:
    """Box3D._with skips the checks, for changes that keep a box valid."""

    @pytest.mark.parametrize("changes", [
        dict(score=0.25), dict(score=0.0), dict(score=1.0), dict(source_id=3),
        dict(score=0.9 * 0.7, source_id=0), dict(source_id=2**63 + 1),
    ])
    def test_same_fields_as_replace(self, changes):
        rng = np.random.default_rng(12)
        for _ in range(20):
            box = random_box(rng, span=50.0)
            before = dict(vars(box))
            copy = box._with(**changes)
            assert type(copy) is Box3D and copy is not box
            expected = replace(box, **changes)
            assert vars(copy) == vars(expected)
            assert [type(v) for v in vars(copy).values()] == [
                type(v) for v in vars(expected).values()]
            assert vars(box) == before

    def test_copies_take_no_more_memory_than_checked_boxes(self):
        box = Box3D(cx=1.0, cy=2.0, cz=0.5, length=4.0, width=2.0, height=1.5, heading=0.1)

        def allocated(make):
            tracemalloc.start()
            try:
                boxes = [make() for _ in range(2000)]
                return tracemalloc.get_traced_memory()[0], boxes
            finally:
                tracemalloc.stop()

        checked, _ = allocated(lambda: replace(box, score=0.5))
        copied, _ = allocated(lambda: box._with(score=0.5))
        assert copied <= checked

    def test_unchecked_box_equals_the_checked_constructor(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            box = random_box(rng, span=50.0)
            values = [getattr(box, f.name) for f in fields(Box3D)]
            built = unchecked_box(*values)
            assert type(built) is Box3D and built == Box3D(*values)

    @pytest.mark.parametrize("changes", [
        dict(score=1.5), dict(score=-0.1), dict(score=math.nan),
        dict(length=0.0), dict(width=-1.0), dict(height=math.inf),
    ])
    def test_public_paths_still_check(self, changes):
        box = Box3D(cx=0, cy=0, cz=0, length=1, width=1, height=1, heading=0)
        with pytest.raises(ValueError):
            replace(box, **changes)
        with pytest.raises(ValueError):
            Box3D(**{**vars(box), **changes})


class TestScoreOrder:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 0.3, 0.5, 1.0]) | st.floats(0.0, 1.0),
                    max_size=20))
    @example([])
    @example([0.5, 0.5, 0.0, 1.0, 0.0, 0.5])
    @example([0.0, -0.0, 0.0])
    def test_descending_with_ties_to_the_lower_index(self, scores):
        expected = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        assert score_order(scores) == expected
        assert score_order(np.array(scores, dtype=np.float64)) == expected
        assert all(type(i) is int for i in score_order(scores))


class TestPolygonHelpers:
    def test_unit_square_area(self):
        square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        assert polygon_area(square) == pytest.approx(1.0)

    def test_clip_identical_squares(self):
        square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        clipped = clip_convex(square, square)
        assert polygon_area(clipped) == pytest.approx(1.0)

    def test_clip_disjoint_is_empty(self):
        a = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        b = [(5.0, 5.0), (6.0, 5.0), (6.0, 6.0), (5.0, 6.0)]
        assert polygon_area(clip_convex(a, b)) == pytest.approx(0.0)

    def test_clip_offset_squares(self):
        a = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]
        b = [(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)]
        assert polygon_area(clip_convex(a, b)) == pytest.approx(1.0)


def _box(cx=0.0, cy=0.0, cz=0.0, l=2.0, w=2.0, h=2.0, heading=0.0):
    return Box3D(cx=cx, cy=cy, cz=cz, length=l, width=w, height=h, heading=heading)


class TestBevIou:
    def test_identical_boxes(self):
        assert bev_iou(_box(), _box()) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_boxes(self):
        assert bev_iou(_box(), _box(cx=100.0)) == 0.0

    def test_square_rotated_forty_five_degrees(self):
        # Two unit-area-4 squares, one rotated 45 degrees about the shared
        # center: the intersection is a regular octagon of area 8*(sqrt(2)-1),
        # so IoU = 1/sqrt(2).
        a = _box()
        b = _box(heading=math.pi / 4.0)
        assert bev_iou(a, b) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)

    def test_half_overlap_axis_aligned(self):
        a = _box(l=2.0, w=2.0)
        b = _box(cx=1.0, l=2.0, w=2.0)
        # intersection 2, union 6
        assert bev_iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b = random_box(rng), random_box(rng)
            assert bev_iou(a, b) == pytest.approx(bev_iou(b, a), abs=1e-9)

    def test_range_and_self_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            a, b = random_box(rng), random_box(rng)
            value = bev_iou(a, b)
            assert 0.0 <= value <= 1.0 + 1e-12
            assert bev_iou(a, a) == pytest.approx(1.0, abs=1e-9)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            base = bev_iou(a, b)
            angle = float(rng.uniform(-math.pi, math.pi))
            tx, ty = rng.uniform(-30.0, 30.0, size=2)
            c, s = math.cos(angle), math.sin(angle)

            def moved(box):
                nx = c * box.cx - s * box.cy + tx
                ny = s * box.cx + c * box.cy + ty
                return Box3D(
                    cx=float(nx), cy=float(ny), cz=box.cz,
                    length=box.length, width=box.width, height=box.height,
                    heading=wrap_angle(box.heading + angle),
                )

            assert bev_iou(moved(a), moved(b)) == pytest.approx(base, abs=1e-6)

    def test_heading_pi_symmetry_of_footprint(self):
        # Rotating a rectangle by pi maps its footprint onto itself.
        rng = np.random.default_rng(14)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            flipped = Box3D(
                cx=b.cx, cy=b.cy, cz=b.cz,
                length=b.length, width=b.width, height=b.height,
                heading=wrap_angle(b.heading + math.pi),
            )
            assert bev_iou(a, flipped) == pytest.approx(bev_iou(a, b), abs=1e-9)

    def test_monte_carlo_agreement_sample(self):
        # A light version of the full stochastic audit in the acceptance suite.
        rng = np.random.default_rng(15)
        for _ in range(20):
            a = random_box(rng, span=3.0)
            b = random_box(rng, span=3.0)
            estimate = mc_bev_iou(a, b, rng, samples=200_000)
            assert bev_iou(a, b) == pytest.approx(estimate, abs=0.02)

    def test_thin_sliver_intersections_do_not_blow_up(self):
        a = _box(l=10.0, w=0.01)
        b = _box(l=0.01, w=10.0)
        value = bev_iou(a, b)
        expected = (0.01 * 0.01) / (0.1 + 0.1 - 0.0001)
        assert value == pytest.approx(expected, rel=1e-6)


class TestIou3d:
    def test_identical_boxes(self):
        assert iou3d(_box(), _box()) == pytest.approx(1.0, abs=1e-12)

    def test_axis_aligned_shift_one_third(self):
        # Unit-cube-style case: equal 2x2x2 cubes offset by half along x and z.
        a = _box()
        b = _box(cx=1.0, cz=1.0)
        inter = 1.0 * 2.0 * 1.0
        union = 8.0 + 8.0 - inter
        assert iou3d(a, b) == pytest.approx(inter / union, abs=1e-12)
        assert iou3d(a, b) == pytest.approx(2.0 / 14.0, abs=1e-12)

    def test_vertically_disjoint_is_zero(self):
        a = _box(cz=0.0, h=1.0)
        b = _box(cz=5.0, h=1.0)
        assert iou3d(a, b) == 0.0

    def test_touching_z_faces_is_zero(self):
        a = _box(cz=0.0, h=2.0)
        b = _box(cz=2.0, h=2.0)
        assert iou3d(a, b) == 0.0

    def test_matches_bev_when_vertical_extent_identical(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            a = random_box(rng)
            b = random_box(rng)
            b = Box3D(
                cx=b.cx, cy=b.cy, cz=a.cz,
                length=b.length, width=b.width, height=a.height,
                heading=b.heading,
            )
            assert iou3d(a, b) == pytest.approx(bev_iou(a, b), abs=1e-9)

    def test_never_exceeds_bev_iou_given_footprint(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            assert iou3d(a, b) <= bev_iou(a, b) + 1e-9


class TestIouMatrix:
    def test_calls_rows_then_cols_in_row_major_order(self):
        # 2 x 1 m footprints reach 1.118 m from their centers; only pairs
        # less than 2.236 m apart are candidates.
        rows = [Box3D(cx, 0.0, 0.0, 2.0, 1.0, 1.0, 0.3) for cx in (0.0, 50.0, 100.0)]
        cols = [Box3D(cx, 0.0, 0.0, 2.0, 1.0, 1.0, -0.2) for cx in (0.5, 1.0, 50.5, 200.0)]
        calls = []

        def recording(a, b):
            calls.append((a, b))
            return len(calls) / 100.0

        out = iou_matrix(rows, cols, recording)
        expected = [(rows[0], cols[0]), (rows[0], cols[1]), (rows[1], cols[2])]
        assert len(calls) == len(expected)
        assert all(x is a and y is b for (x, y), (a, b) in zip(calls, expected))
        assert out.dtype == np.float64
        want = np.zeros((3, 4))
        want[0, 0], want[0, 1], want[1, 2] = 0.01, 0.02, 0.03
        np.testing.assert_array_equal(out, want)

    @pytest.mark.parametrize("n_rows, n_cols", [(3, 0), (0, 4), (0, 0)])
    def test_empty_sides_keep_their_shape(self, n_rows, n_cols):
        rng = np.random.default_rng(22)
        rows = [random_box(rng) for _ in range(n_rows)]
        cols = [random_box(rng) for _ in range(n_cols)]
        out = iou_matrix(rows, cols, bev_iou)
        assert out.shape == (n_rows, n_cols)
        assert out.dtype == np.float64

    @pytest.mark.parametrize("iou_fn", [bev_iou, iou3d])
    def test_entries_equal_the_pairwise_values_exactly(self, iou_fn):
        rng = np.random.default_rng(23)
        rows = [random_box(rng, span=2.0) for _ in range(6)]
        cols = [random_box(rng, span=2.0) for _ in range(5)]
        out = iou_matrix(rows, cols, iou_fn)
        assert (out > 0.0).sum() > 10  # the boxes mostly overlap
        for i, a in enumerate(rows):
            for j, b in enumerate(cols):
                assert out[i, j] == iou_fn(a, b)
