import json
import math
import struct
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarpost.ensemble import DetectionSet
from lidarpost.geometry import Box3D, Label
from lidarpost.io import (
    FormatError,
    InputError,
    ValidationError,
    read_boxes,
    read_points,
    write_boxes,
    write_points,
)
from lidarpost.pointcloud import PointCloud
from oracles import random_box, reference_write_boxes


def _record(frame_id="f0", timestamp=0.0, cx=1.0, cy=2.0, cz=0.5, l=4.0, w=2.0,
            h=1.5, heading=0.1, score=0.9, label="VEHICLE", **extra):
    record = dict(frame_id=frame_id, timestamp=timestamp, cx=cx, cy=cy, cz=cz,
                  l=l, w=w, h=h, heading=heading, score=score, label=label)
    record.update(extra)
    return record


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


class TestReadBoxes:
    def test_grouping_by_frame(self, tmp_path):
        path = tmp_path / "boxes.jsonl"
        _write_jsonl(path, [
            _record(frame_id="b", cx=0.0),
            _record(frame_id="b", cx=2.0),
            _record(frame_id="a", cx=1.0),
        ])
        sets = read_boxes(path)
        assert list(sets) == ["b", "a"]  # first-appearance order
        assert [b.cx for b in sets["b"].boxes] == [0.0, 2.0]
        assert [b.cx for b in sets["a"].boxes] == [1.0]
        assert isinstance(sets["a"], DetectionSet)

    def test_frame_appearing_again_is_rejected(self, tmp_path):
        path = tmp_path / "boxes.jsonl"
        _write_jsonl(path, [
            _record(frame_id="a", timestamp=0.0),
            _record(frame_id="b", timestamp=0.1),
            _record(frame_id="a", timestamp=0.2),
        ])
        with pytest.raises(ValidationError, match=r"line 3: frame 'a' appears again after frame 'b'"):
            read_boxes(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_boxes(path) == {}

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "boxes.jsonl"
        path.write_text(
            json.dumps(_record()) + "\n\n" + json.dumps(_record(cx=5.0)) + "\n"
        )
        sets = read_boxes(path)
        assert len(sets["f0"].boxes) == 2

    def test_unknown_keys_ignored(self, tmp_path):
        path = tmp_path / "boxes.jsonl"
        _write_jsonl(path, [_record(color="red", velocity=1.5)])
        sets = read_boxes(path)
        assert len(sets["f0"].boxes) == 1

    def test_optional_fields_parsed(self, tmp_path):
        path = tmp_path / "boxes.jsonl"
        _write_jsonl(path, [
            _record(track_id=7, difficulty=2, num_points=11, source_id=3)
        ])
        box = read_boxes(path)["f0"].boxes[0]
        assert box.track_id == 7
        assert box.difficulty == 2
        assert box.num_points == 11
        assert box.source_id == 3

    def test_timestamp_taken_from_first_record(self, tmp_path):
        path = tmp_path / "boxes.jsonl"
        _write_jsonl(path, [
            _record(timestamp=12.5),
            _record(timestamp=99.0, cx=3.0),
        ])
        assert read_boxes(path)["f0"].timestamp == 12.5

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "boxes.jsonl"
        path.write_text(json.dumps(_record()) + "\n{not json\n")
        with pytest.raises(FormatError) as exc:
            read_boxes(path)
        assert "line 2" in str(exc.value)

    def test_invalid_geometry_names_line(self, tmp_path):
        path = tmp_path / "boxes.jsonl"
        _write_jsonl(path, [_record(), _record(l=0.0)])
        with pytest.raises(ValidationError) as exc:
            read_boxes(path)
        assert "line 2" in str(exc.value)

    def test_missing_key_names_line_and_key(self, tmp_path):
        path = tmp_path / "boxes.jsonl"
        record = _record()
        del record["heading"]
        _write_jsonl(path, [record])
        with pytest.raises(ValidationError) as exc:
            read_boxes(path)
        message = str(exc.value)
        assert "line 1" in message and "heading" in message

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "boxes.jsonl"
        _write_jsonl(path, [_record(label="TRUCK")])
        with pytest.raises(ValidationError):
            read_boxes(path)

    def test_boolean_not_accepted_as_number(self, tmp_path):
        path = tmp_path / "boxes.jsonl"
        _write_jsonl(path, [_record(cx=True)])
        with pytest.raises(ValidationError):
            read_boxes(path)

    def test_non_integer_track_id_rejected(self, tmp_path):
        path = tmp_path / "boxes.jsonl"
        _write_jsonl(path, [_record(track_id=1.5)])
        with pytest.raises(ValidationError):
            read_boxes(path)

    def test_errors_are_input_errors(self, tmp_path):
        path = tmp_path / "boxes.jsonl"
        path.write_text("{bad\n")
        with pytest.raises(InputError):
            read_boxes(path)


class TestWriteBoxes:
    def test_round_trip_field_for_field(self, tmp_path):
        rng = np.random.default_rng(81)
        labels = [Label.VEHICLE, Label.PEDESTRIAN, Label.CYCLIST]
        sets = {}
        for fi in range(3):
            boxes = []
            for bi in range(5):
                base = random_box(rng, span=20.0, label=labels[int(rng.integers(0, 3))])
                boxes.append(
                    Box3D(
                        cx=base.cx, cy=base.cy, cz=base.cz, length=base.length,
                        width=base.width, height=base.height, heading=base.heading,
                        score=base.score, label=base.label,
                        track_id=int(rng.integers(0, 50)) if bi % 2 else None,
                        difficulty=2 if bi == 3 else None,
                        num_points=int(rng.integers(0, 100)) if bi == 1 else None,
                        source_id=int(rng.integers(0, 3)) if bi == 4 else None,
                    )
                )
            sets[f"frame-{fi}"] = DetectionSet(
                frame_id=f"frame-{fi}", boxes=boxes, timestamp=0.1 * fi
            )
        path = tmp_path / "round.jsonl"
        write_boxes(sets, path)
        back = read_boxes(path)
        assert list(back) == list(sets)
        for frame_id, original in sets.items():
            parsed = back[frame_id]
            assert parsed.timestamp == original.timestamp
            assert parsed.boxes == original.boxes  # exact float round trip

    def test_write_rejects_non_finite(self, tmp_path):
        cheat = Box3D(cx=0, cy=0, cz=0, length=1, width=1, height=1, heading=0)
        object.__setattr__  # no-op reminder that Box3D is a plain dataclass
        cheat.cx = math.inf  # bypass __post_init__ by direct assignment
        bad = DetectionSet(frame_id="f", boxes=[cheat])
        with pytest.raises(ValueError):
            write_boxes({"f": bad}, tmp_path / "bad.jsonl")

    def test_lf_terminators_and_one_line_per_box(self, tmp_path):
        sets = {
            "f": DetectionSet(
                frame_id="f",
                boxes=[
                    Box3D(cx=0, cy=0, cz=0, length=1, width=1, height=1, heading=0),
                    Box3D(cx=1, cy=0, cz=0, length=1, width=1, height=1, heading=0),
                ],
            )
        }
        path = tmp_path / "boxes.jsonl"
        write_boxes(sets, path)
        data = path.read_bytes()
        assert data.count(b"\n") == 2
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(82)
        boxes = [random_box(rng, span=10.0) for _ in range(10)]
        sets = {"f": DetectionSet(frame_id="f", boxes=boxes)}
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        write_boxes(sets, p1)
        write_boxes(sets, p2)
        assert p1.read_bytes() == p2.read_bytes()


_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
_NUMBER = st.one_of(_FLOAT, st.integers(-10**6, 10**6))
_SIZE = st.floats(min_value=1e-300, max_value=1e300)
_FRAME_ID = st.one_of(st.text(), st.sampled_from(["\u2028", 'quote " back \\ slash', "é\x00\n"]))


@st.composite
def _frames(draw):
    """A frame whose box values are all floats, ints and None, the writer's
    fast case, or one that also holds ints in float fields. Either way the
    frame's timestamp may be a float or an int; a box and a set refuse bools."""
    if draw(st.booleans()):
        number, size, score = _FLOAT, _SIZE, st.floats(0.0, 1.0)
        ident, difficulty = st.one_of(st.none(), st.integers(0, 2**70)), [None, 1, 2]
    else:
        number, size = _NUMBER, st.one_of(_SIZE, st.integers(1, 10**6))
        score = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1]))
        ident, difficulty = st.one_of(st.none(), st.integers(0, 2**70)), [1, 2]
    boxes = [
        Box3D(
            *(draw(number) for _ in range(3)), *(draw(size) for _ in range(3)),
            heading=draw(number),
            score=draw(score),
            label=draw(st.sampled_from(Label)),
            track_id=draw(ident),
            difficulty=draw(st.sampled_from(difficulty)),
            num_points=draw(ident),
            source_id=draw(ident),
        )
        for _ in range(draw(st.integers(0, 4)))
    ]
    return DetectionSet(draw(_FRAME_ID), boxes, 0, draw(_NUMBER))


@st.composite
def _readable_box(draw):
    """A box whose number fields are each an int or a float and whose ids are
    each an int or None."""
    number = st.one_of(_FLOAT, st.integers(-10**6, 10**6))
    size = st.one_of(_SIZE, st.integers(1, 10**6))
    score = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1]))
    ident = st.one_of(st.none(), st.integers(0, 2**70))
    return Box3D(
        *(draw(number) for _ in range(3)), *(draw(size) for _ in range(3)),
        heading=draw(number),
        score=draw(score),
        label=draw(st.sampled_from(Label)),
        track_id=draw(ident),
        difficulty=draw(st.sampled_from([None, 1, 2])),
        num_points=draw(ident),
        source_id=draw(st.one_of(st.none(), st.integers(-2**70, 2**70))),
    )


@st.composite
def _readable_frames(draw):
    """Frames with distinct ids and at least one box each."""
    frame_ids = draw(st.lists(st.text(), min_size=1, max_size=3, unique=True))
    return [
        DetectionSet(frame_id, draw(st.lists(_readable_box(), min_size=1, max_size=4)), 0,
                     draw(_NUMBER))
        for frame_id in frame_ids
    ]


# Every timestamp a set takes: a finite float, or an int up to the largest
# that float() takes; beyond it an int rounds to 2**1024.
_LARGEST_INT = 2**1024 - 2**970 - 1
_TIMESTAMP = st.one_of(
    _FLOAT, st.integers(-_LARGEST_INT, _LARGEST_INT),
    st.sampled_from([-0.0, 5e-324, _LARGEST_INT, -_LARGEST_INT]),
)


class TestRoundTrip:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_readable_frames())
    def test_read_boxes_returns_the_boxes_written(self, tmp_path_factory, sets):
        path = tmp_path_factory.getbasetemp() / "round_trip.jsonl"
        write_boxes(sets, path)
        frames = read_boxes(path)
        assert list(frames) == [s.frame_id for s in sets]
        for s in sets:
            assert frames[s.frame_id].timestamp == s.timestamp
            assert frames[s.frame_id].boxes == s.boxes


# Values drawn into each field of a box, taken or refused: numpy scalars,
# exact and decimal fractions, bools, ints around the float range's end and
# the signed and subnormal edges.
_ANY_VALUE = st.one_of(
    _FLOAT, st.floats(allow_nan=True, allow_infinity=True), st.integers(-10**6, 10**6),
    st.sampled_from([
        np.int64(1), np.int32(-2), np.uint8(3), np.float64(0.5), np.float32(0.25),
        np.float16(2.0), np.bool_(True), Fraction(1, 2), Fraction(3), Decimal("0.5"),
        Decimal(2), True, False, None, "1.0", -0.0, 5e-324, -5e-324, 0, 1, 2, 3, -1,
        1.0, math.nextafter(1.0, 2.0), 2**63, 2**1023, _LARGEST_INT, -_LARGEST_INT,
        _LARGEST_INT + 1, -_LARGEST_INT - 1, 2**1024,
    ]),
)
_BOX_FIELDS = [f.name for f in fields(Box3D)]
_NUMBERS = _BOX_FIELDS[:8]


@st.composite
def _box_values(draw):
    """A valid box's field values, one to three of them redrawn from _ANY_VALUE."""
    values = dict(cx=1.5, cy=-2, cz=0.25, length=4.0, width=2, height=1.5, heading=0.1,
                  score=0.5, label=Label.VEHICLE, track_id=3, difficulty=1, num_points=0,
                  source_id=None)
    for name in draw(st.lists(st.sampled_from(_BOX_FIELDS), min_size=1, max_size=3)):
        values[name] = draw(_ANY_VALUE)
    return values


class TestEveryBoxReadsBack:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_box_values())
    def test_a_box_is_refused_or_reads_back_equal(self, tmp_path_factory, values):
        """Box3D takes only what a box file carries: each box it builds is
        written and read back as the box of its values as floats."""
        try:
            box = Box3D(**values)
        except ValueError:
            return
        path = tmp_path_factory.getbasetemp() / "any_box.jsonl"
        write_boxes([DetectionSet("f", [box])], path)
        (got,) = read_boxes(path)["f"].boxes
        expected = {name: float(value) if name in _NUMBERS else value
                    for name, value in vars(box).items()}
        # By type and repr, so -0.0 is not 0.0.
        assert {name: (type(value), repr(value)) for name, value in vars(got).items()} == {
            name: (type(value), repr(value)) for name, value in expected.items()}


class TestDetectionSetTimestamp:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_FRAME_ID, st.lists(_readable_box(), max_size=4), _TIMESTAMP)
    def test_every_valid_frame_reads_back(self, tmp_path_factory, frame_id, boxes, timestamp):
        path = tmp_path_factory.getbasetemp() / "one_frame.jsonl"
        write_boxes([DetectionSet(frame_id, boxes, 0, timestamp)], path)
        frames = read_boxes(path)
        if not boxes:  # a frame without boxes writes no line
            assert frames == {}
            return
        assert list(frames) == [frame_id]
        assert frames[frame_id].timestamp == float(timestamp)
        assert frames[frame_id].boxes == boxes

    @pytest.mark.parametrize("bad, message", [
        (True, "must be a number"), (False, "must be a number"), ("1.0", "must be a number"),
        (None, "must be a number"), (10**400, "must be within float range"),
        (-(2**1024 - 2**970), "must be within float range"), (math.nan, "must be finite"),
        (math.inf, "must be finite"), (-math.inf, "must be finite"),
    ])
    def test_a_timestamp_the_reader_refuses_is_refused(self, tmp_path, bad, message):
        with pytest.raises(ValueError, match=f"^timestamp {message}"):
            DetectionSet("f", [], 0, bad)
        path = tmp_path / "bad.jsonl"
        _write_jsonl(path, [_record(timestamp=bad)])
        with pytest.raises(ValidationError, match="^line 1: key 'timestamp'"):
            read_boxes(path)


class TestDetectionSetFrameId:
    @pytest.mark.parametrize("bad", [1, None, 1.5, True, ["f"]])
    def test_a_frame_id_the_reader_refuses_is_refused(self, tmp_path, bad):
        box = Box3D(cx=1.0, cy=2.0, cz=0.0, length=4.0, width=2.0, height=1.5, heading=0.1)
        with pytest.raises(ValueError) as refused:
            DetectionSet(bad, [box])
        assert str(refused.value) == f"frame_id must be a string, got {bad!r}"
        path = tmp_path / "bad.jsonl"
        _write_jsonl(path, [_record(frame_id=bad)])
        with pytest.raises(ValidationError, match="^line 1: key 'frame_id' must be a string"):
            read_boxes(path)


class TestWriteBoxesAgainstReference:
    """write_boxes against one dict and one json.dumps per box."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.lists(_frames(), max_size=4))
    def test_same_bytes(self, tmp_path_factory, sets):
        base = tmp_path_factory.getbasetemp()
        write_boxes(sets, base / "got.jsonl")
        reference_write_boxes(sets, base / "want.jsonl")
        assert (base / "got.jsonl").read_bytes() == (base / "want.jsonl").read_bytes()

    @pytest.mark.parametrize("field", ["cx", "length", "heading", "score", "timestamp"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_same_error_on_a_non_finite_float(self, tmp_path, field, bad):
        box = Box3D(cx=1.0, cy=2.0, cz=0.0, length=4.0, width=2.0, height=1.5, heading=0.1)
        frame = DetectionSet("f", [box], 0, 0.5)
        setattr(frame if field == "timestamp" else box, field, bad)
        errors = []
        for write in (write_boxes, reference_write_boxes):
            with pytest.raises(ValueError) as info:
                write([frame], tmp_path / "bad.jsonl")
            errors.append(str(info.value))
        assert errors[0] == errors[1]


class TestReadPoints:
    def test_four_channel_file(self, tmp_path):
        path = tmp_path / "points.bin"
        payload = struct.pack("<8f", 1.0, 2.0, 3.0, 0.5, 4.0, 5.0, 6.0, 0.25)
        path.write_bytes(payload)
        cloud = read_points(path, channels=4)
        assert len(cloud) == 2
        assert cloud.points[0].tolist() == [1.0, 2.0, 3.0, 0.5, 0.0]
        assert cloud.points[1, 4] == 0.0

    def test_five_channel_file(self, tmp_path):
        path = tmp_path / "points.bin"
        payload = struct.pack("<10f", 1, 2, 3, 0.5, 0.0, 4, 5, 6, 0.25, 0.1)
        path.write_bytes(payload)
        cloud = read_points(path, channels=5)
        assert len(cloud) == 2
        assert cloud.points[1, 4] == pytest.approx(0.1, abs=1e-7)

    def test_size_misalignment_states_record_size(self, tmp_path):
        path = tmp_path / "points.bin"
        path.write_bytes(b"\x00" * 30)
        with pytest.raises(FormatError) as exc:
            read_points(path, channels=4)
        assert "16" in str(exc.value)  # expected record size in bytes

    def test_invalid_channel_count_rejected(self, tmp_path):
        path = tmp_path / "points.bin"
        path.write_bytes(b"\x00" * 24)
        with pytest.raises(ValueError):
            read_points(path, channels=6)

    def test_nan_payload_names_record(self, tmp_path):
        path = tmp_path / "points.bin"
        payload = struct.pack("<8f", 1, 2, 3, 0.5, math.nan, 5, 6, 0.25)
        path.write_bytes(payload)
        with pytest.raises(ValidationError) as exc:
            read_points(path, channels=4)
        assert "record 1" in str(exc.value)

    def test_negative_intensity_rejected(self, tmp_path):
        path = tmp_path / "points.bin"
        path.write_bytes(struct.pack("<4f", 1, 2, 3, -0.5))
        with pytest.raises(ValidationError):
            read_points(path, channels=4)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "points.bin"
        path.write_bytes(b"")
        cloud = read_points(path, channels=5)
        assert len(cloud) == 0


class TestWritePoints:
    def test_round_trip_exact_at_float32(self, tmp_path):
        rng = np.random.default_rng(83)
        points = np.array([
            (
                float(np.float32(rng.uniform(-50, 50))),
                float(np.float32(rng.uniform(-50, 50))),
                float(np.float32(rng.uniform(-2, 4))),
                float(np.float32(rng.uniform(0, 1))),
                float(np.float32(rng.uniform(0, 0.2))),
            )
            for _ in range(100)
        ])
        cloud = PointCloud(points=points, frame_id="f", timestamp=0.0)
        path = tmp_path / "points.bin"
        write_points(cloud, path, channels=5)
        back = read_points(path, channels=5)
        np.testing.assert_array_equal(back.points, points)

    def test_four_channel_write_drops_time(self, tmp_path):
        cloud = PointCloud(
            points=np.array([[1, 2, 3, 0.5, 0.125]]),
            frame_id="f",
            timestamp=0.0,
        )
        path = tmp_path / "points.bin"
        write_points(cloud, path, channels=4)
        assert path.stat().st_size == 16
        back = read_points(path, channels=4)
        assert back.points[0, 4] == 0.0

    def test_write_refuses_three_channels(self, tmp_path):
        cloud = PointCloud(points=np.array([[1, 2, 3, 0.5, 0.1]]))
        path = tmp_path / "points.bin"
        with pytest.raises(ValueError) as refused:
            write_points(cloud, path, channels=3)
        assert str(refused.value) == "channels must be 4 or 5, got 3"
        assert not path.exists()

    def test_write_refuses_values_beyond_float32(self, tmp_path):
        cloud = PointCloud(points=np.array([[1, 2, 3, 0.5, 0.1], [1, 2, 3, 0.5, 1e39]]))
        path = tmp_path / "points.bin"
        with pytest.raises(ValueError, match=r"^record 1: non-finite value as float32"):
            write_points(cloud, path, channels=5)
        assert not path.exists()
        # Without the time channel, the record fits.
        write_points(cloud, path, channels=4)
        assert path.stat().st_size == 32

    @pytest.mark.parametrize("channels", [4, 5])
    def test_write_names_the_first_record_beyond_float32_when_infinities_cancel(
        self, tmp_path, channels
    ):
        # +inf and -inf make the records' sum NaN rather than inf.
        points = np.zeros((6, 5))
        points[3, 0] = 1e39
        points[4, 1] = -1e39
        points[5, 2] = 3e38
        points[5, 0] = -3e38
        cloud = PointCloud(points=points)
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(points[:, :channels].astype("<f4").sum(dtype=np.float64))
        path = tmp_path / "points.bin"
        with pytest.raises(ValueError, match=r"^record 3: non-finite value as float32$"):
            write_points(cloud, path, channels=channels)
        assert not path.exists()

    def test_little_endian_layout(self, tmp_path):
        cloud = PointCloud(
            points=np.array([[1.0, 0.0, 0.0, 0.0, 0.0]]),
            frame_id="f",
            timestamp=0.0,
        )
        path = tmp_path / "points.bin"
        write_points(cloud, path, channels=4)
        assert path.read_bytes() == struct.pack("<4f", 1.0, 0.0, 0.0, 0.0)
