"""The chunked box reader against the one-record-at-a-time oracle.

``read_boxes`` checks a chunk of lines at once as columns and hands a chunk
that fails any check to the per-record path; ``reference_read_boxes`` reads
the whole file one checked record at a time. They must give the same frames,
the same rows with the same value types, or the same exception and message.
"""

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarpost import geometry, io
from lidarpost.geometry import Box3D, DetectionSet, Label
from lidarpost.io import read_boxes, write_boxes
from oracles import reference_read_boxes
from test_io import _readable_box

CHUNK = io._CHUNK_LINES
FIELDS = ("cx", "cy", "cz", "length", "width", "height", "heading", "score", "label",
          "track_id", "difficulty", "num_points", "source_id")


def _typed(value):
    """A value with its type; floats by bit pattern, so -0.0 is not 0.0."""
    if type(value) is float:
        return float, value.hex()
    return type(value), value


def _outcome(read, path):
    """Frames as typed tuples, or the exception's class and message."""
    try:
        frames = read(path)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc), str(exc)
    return [
        (_typed(key), _typed(frame.frame_id), _typed(frame.source_id), _typed(frame.timestamp),
         [tuple(_typed(getattr(box, name)) for name in FIELDS) for box in frame.boxes])
        for key, frame in frames.items()
    ]


def _column_outcome(path):
    """read_box_columns' frames as _outcome gives rows, field by field: each
    number by the hex() of its float64, and a frame's source id 0, as the
    reader gives every frame."""
    try:
        frames = io.read_box_columns(path)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc), str(exc)
    out = []
    for key, frame in frames.items():
        assert frame.numbers.dtype == np.float64 and frame.numbers.shape == (len(frame.labels), 8)
        numbers = [[(float, float(value).hex()) for value in row] for row in frame.numbers]
        labels = list(map(_typed, frame.labels))
        ids = [list(map(_typed, column)) for column in frame.ids]
        out.append((_typed(key), _typed(frame.frame_id), _typed(0), _typed(frame.timestamp),
                    [(*row, label, *box_ids)
                     for row, label, *box_ids in zip(numbers, labels, *ids)]))
    return out


def _assert_same(path):
    """Rows and columns read like the oracle's rows; returns the rows."""
    got = _outcome(read_boxes, path)
    expected = _outcome(reference_read_boxes, path)
    assert got == expected
    assert _column_outcome(path) == expected
    return got


def _record(frame_id="f", **changes):
    record = dict(frame_id=frame_id, timestamp=0.5, cx=1.0, cy=2.0, cz=0.5, l=4.0, w=2.0,
                  h=1.5, heading=0.1, score=0.9, label="VEHICLE")
    record.update(changes)
    return record


def _line(record) -> str:
    return json.dumps(record) + "\n"


def _split_pair(record) -> str:
    """Two lines, ``{<record>, "x": [{}`` and ``{}], "y": 1}, {<record>}``:
    joined as ``[line1,line2]`` they parse into two records, one per line,
    yet the first line alone is not JSON."""
    text = json.dumps(record)
    return text[:-1] + ', "x": [{}\n{}], "y": 1}, ' + text + "\n"


# --- hypothesis: valid files and files with one bad line -------------------

BIG_INTS = st.sampled_from([2**53 + 1, -(2**53 + 1), 2**63 + 1, 2**64 + 3, -(2**63) - 1])
COORD = (st.floats(-1e6, 1e6) | st.integers(-10**6, 10**6) | BIG_INTS
         | st.sampled_from([1.7e308, -1.7e308, -0.0]))
# Every taken edge of each declared domain: the smallest and largest sizes, a
# score at either end, and ids at 0 and beyond int64.
SIZE = (st.floats(1e-3, 1e3) | st.integers(1, 100)
        | st.sampled_from([2**53 + 1, 1.7e308, 5e-324, 1, 2**1024 - 2**970 - 1]))
HEADING = (st.floats(-1e4, 1e4) | st.integers(-10, 10)
           | st.sampled_from([math.pi, -math.pi, math.nextafter(math.pi, 0.0),
                              math.nextafter(-math.pi, 0.0), math.nextafter(math.pi, 4.0),
                              math.nextafter(-math.pi, -4.0), 3 * math.pi, -3 * math.pi,
                              1.7e308, -1.7e308, -0.0]))
SCORE = st.floats(0.0, 1.0) | st.sampled_from([0, 1, -0.0, 0.0, 1.0, 5e-324])
ID = st.none() | st.sampled_from([0, 1, 2**63, 2**63 + 1, 10**400]) | st.integers(0, 2**70)
# Braces in a frame id fail the one-parse guard, so such a chunk is parsed
# one line at a time; U+2028 inside a string ends no line.
FRAME_IDS = st.sampled_from(["a", "b", "c", " ", "\u00e9", "\u2028", 'q"\\', "{", "}", "x}{y"])
# Unknown values: an array, nested objects (more braces) and a deep array.
EXTRA = st.sampled_from([{"nested": [1, 2]}, [1, [2.5, "x"]], {"a": {"b": [{}]}},
                         "t\u2028u", [[[[[[[[[[[[[[[[0]]]]]]]]]]]]]]]]])
# JSON whitespace that json.loads takes around a line's object.
PAD = st.sampled_from(["", "", " ", "\t", " \t "])


@st.composite
def records(draw, frame_id):
    record = dict(
        frame_id=frame_id, timestamp=draw(COORD), cx=draw(COORD), cy=draw(COORD),
        cz=draw(COORD), l=draw(SIZE), w=draw(SIZE), h=draw(SIZE), heading=draw(HEADING),
        score=draw(SCORE), label=draw(st.sampled_from([label.value for label in Label])),
    )
    for key, ids in (("track_id", ID), ("difficulty", st.none() | st.sampled_from([1, 2])),
                     ("num_points", ID), ("source_id", ID | st.integers(-5, -1))):
        if draw(st.booleans()):
            record[key] = draw(ids)
    if draw(st.booleans()):
        record["extra"] = draw(EXTRA)
    return record


def _duplicate_first(text: str, key: str, value) -> str:
    """A record's text with key given value first; the record's own value,
    later in the line, is the one json.loads keeps."""
    return "{" + json.dumps(key) + ": " + json.dumps(value) + ", " + text[1:]


@st.composite
def box_lines(draw):
    """Lines (with terminators) of a valid box file: runs of one frame id,
    each id used once, blank lines between and any of LF, CRLF and CR. A
    line may be padded with spaces and tabs or hold a key twice, and the
    last line may have no terminator."""
    frame_ids = draw(st.lists(FRAME_IDS, min_size=1, max_size=4, unique=True))
    lines = []
    for frame_id in frame_ids:
        for record in draw(st.lists(records(frame_id), min_size=1, max_size=6)):
            text = json.dumps(record, ensure_ascii=draw(st.booleans()))
            if draw(st.integers(0, 3)) == 0:
                text = _duplicate_first(text, draw(st.sampled_from(sorted(record))),
                                        draw(BAD_VALUES))
            text = draw(PAD) + text + draw(PAD)
            lines.append(text + draw(st.sampled_from(["\n", "\r\n", "\r"])))
            if draw(st.integers(0, 5)) == 0:
                lines.append(draw(st.sampled_from(["\n", " \n", "\t\r\n", "\x0c\n", "\r"])))
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return lines


BAD_VALUES = st.sampled_from([
    True, False, None, "1.5", "", [1.0], {}, 10**400, -(10**400), 2**1024 - 2**970,
    float("nan"), float("inf"), -1.0, 0, 1.5, -0.0, 2**63 + 1,
])
# Values that break one key only, among them the refused edge of each
# declared domain.
_SIZE_EDGES = [0, 0.0, -0.0, -5e-324, float("-inf")]
BAD_FOR = {
    "frame_id": [1, None, ["a"]],
    "cx": [float("-inf"), -(2**1024 - 2**970)], "cz": [float("nan"), 2**1024],
    "l": [*_SIZE_EDGES, -1.0, 1e-320 * -1], "w": [*_SIZE_EDGES, -2.5], "h": [*_SIZE_EDGES, -1],
    "score": [-0.1, 1.5, 1.0000000000000002, -5e-324, 2, float("nan")],
    "label": ["TRUCK", "vehicle", "", 1, ["VEHICLE"]],
    "heading": [float("inf"), float("-inf"), "0.1"],
    "track_id": [-1, 1.5, 1.0, False, "1"], "num_points": [-1, 0.0, 1.0, False],
    "difficulty": [0, 3, 1.0, True, -1, 2**63], "source_id": [1.5, 0.0, True, "0", [0]],
}
KEYS = ["frame_id", "timestamp", "cx", "cy", "cz", "l", "w", "h", "heading", "score",
        "label", "track_id", "difficulty", "num_points", "source_id"]


@st.composite
def bad_line(draw, frame_id):
    """One line that no valid file holds, or a valid record the rest of the
    file makes bad (a frame id seen before)."""
    record = draw(records(frame_id))
    kind = draw(st.sampled_from(["value", "drop", "text", "bytes", "reappear", "duplicate",
                                 "joined"]))
    if kind == "value":
        key = draw(st.sampled_from(KEYS))
        record[key] = draw(BAD_VALUES | st.sampled_from(BAD_FOR.get(key, [None])))
    elif kind == "duplicate":
        # The bad value comes last, so it is the one json.loads keeps.
        key = draw(st.sampled_from(KEYS))
        bad = draw(BAD_VALUES | st.sampled_from(BAD_FOR.get(key, [None])))
        good = json.dumps({**record, key: bad}, allow_nan=True)
        text = _duplicate_first(good, key, record.get(key, 0.5))
        return draw(PAD) + text + draw(PAD) + "\n"
    elif kind == "joined":
        # Two lines that join into two valid records, one per line, though
        # the first alone is not JSON.
        return _split_pair(record)
    elif kind == "drop":
        del record[draw(st.sampled_from(sorted(record)))]
    elif kind == "text":
        return draw(st.sampled_from([
            "{not json\n", "[1, 2]\n", "3\n", '"text"\n', "null\n",
            _line(record)[:-1] + "\x0c" + _line(record), "\ufeff" + _line(record),
            _line(record)[:-1] + " 1\n", '{"frame_id": "a"}\n',
            _line(record)[:-1] + "\u2028\n", " " + _line(record)[:-1] + "\t}\n",
        ]))
    elif kind == "bytes":
        # An undecodable byte inside a string value, or after the object.
        byte = draw(st.sampled_from(["\udcff", "\udc80 ", "\udcc3"]))
        if draw(st.booleans()):
            return _line(record)[:-1] + byte + "\n"
        record[draw(st.sampled_from(["frame_id", "label", "extra"]))] = "x" + byte
        return json.dumps(record, ensure_ascii=False) + "\n"
    elif kind == "reappear":
        record["frame_id"] = "seen"
    return json.dumps(record, allow_nan=True) + "\n"


def _write(path, lines):
    # Lone surrogates stand for undecodable bytes, as the reader decodes them.
    path.write_bytes("".join(lines).encode("utf-8", errors="surrogateescape"))


@settings(max_examples=150, deadline=None)
@given(lines=box_lines(), chunk=st.integers(1, 8))
def test_valid_files_read_like_the_oracle(tmp_path_factory, lines, chunk):
    path = tmp_path_factory.getbasetemp() / "valid.jsonl"
    _write(path, lines)
    # A valid chunk never needs the per-record path.
    with mock.patch.object(io, "_CHUNK_LINES", chunk), \
            mock.patch.object(io, "_parse_record", side_effect=AssertionError):
        got = _outcome(read_boxes, path)
        columns = _column_outcome(path)
    assert got == _outcome(reference_read_boxes, path) == columns
    assert isinstance(got, list)


@settings(max_examples=300, deadline=None)
@given(lines=box_lines(), chunk=st.integers(1, 8), data=st.data())
def test_one_bad_line_fails_like_the_oracle(tmp_path_factory, lines, chunk, data):
    at = data.draw(st.integers(0, len(lines)))
    # A frame "seen" ends the file's first line, so a later "seen" reappears.
    lines = [_line(_record("seen"))] + lines
    lines.insert(at + 1, data.draw(bad_line("b")))
    path = tmp_path_factory.getbasetemp() / "bad.jsonl"
    _write(path, lines)
    with mock.patch.object(io, "_CHUNK_LINES", chunk):
        _assert_same(path)


# --- the chunk boundary at the module's own chunk size ---------------------

@pytest.mark.parametrize("lineno", [CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 2])
@pytest.mark.parametrize("bad", [
    '{"broken\n', _line(_record(cx=True)), _line(_record(l=-1.0)), _line(_record(heading=None)),
    _line(_record(track_id=10**400, difficulty=3)), _line(_record(cz=10**400)),
    _line(_record(score=1.5)), _line(_record(num_points=2.0)), _line(_record(frame_id="first")),
])
def test_a_bad_record_at_the_chunk_boundary(tmp_path, lineno, bad):
    lines = [_line(_record("first", cx=float(i)))
             for i in range(CHUNK // 2)]
    lines += [_line(_record("second", cx=float(i))) for i in range(CHUNK + 3 - len(lines))]
    lines[lineno - 1] = bad
    path = tmp_path / "boxes.jsonl"
    _write(path, lines)
    got = _assert_same(path)
    assert got[0] is io.ValidationError or got[0] is io.FormatError
    assert got[1].startswith(f"line {lineno}: ")


def test_both_reader_paths_check_the_declaration_of_geometry(tmp_path):
    """The reader declares no domain of its own: a field's domain narrowed in
    geometry is what the column check and the record path both hold to."""
    assert io.BOX_DOMAINS is geometry.BOX_DOMAINS and io.FINITE is geometry.FINITE
    assert [value for value in vars(io).values()
            if isinstance(value, geometry.Domain) or value == geometry.BOX_DOMAINS] == [
        geometry.BOX_DOMAINS, geometry.FINITE]
    path = tmp_path / "boxes.jsonl"
    _write(path, [_line(_record(cx=4.0)), _line(_record(cx=7.0))])
    below_5 = geometry.Domain("must be below 5", lambda v: v < 5)
    with mock.patch.dict(geometry.BOX_DOMAINS, cx=below_5):
        assert io._checked_chunk([_record(cx=4.0)]) is not None
        assert io._checked_chunk([_record(cx=7.0)]) is None
        assert _assert_same(path) == (io.ValidationError, "line 2: cx must be below 5, got 7.0")
    assert len(_assert_same(path)[0][4]) == 2


def test_a_frame_across_the_boundary_and_one_that_reappears_after_it(tmp_path):
    lines = [_line(_record("a", cx=float(i), track_id=i)) for i in range(CHUNK + 5)]
    lines += [_line(_record("b", timestamp=2**53 + 1))]
    path = tmp_path / "boxes.jsonl"
    _write(path, lines)
    got = _assert_same(path)
    assert [len(frame[4]) for frame in got] == [CHUNK + 5, 1]
    assert got[1][3] == _typed(float(2**53 + 1))

    _write(path, lines + [_line(_record("a"))])
    assert _assert_same(path) == (
        io.ValidationError,
        f"line {CHUNK + 7}: frame 'a' appears again after frame 'b'; "
        "a frame's records must be contiguous")

    # The second chunk starts with a frame that the first chunk ended.
    lines = [_line(_record("a"))] * (CHUNK - 1) + [_line(_record("b")), _line(_record("a"))]
    _write(path, lines)
    assert _assert_same(path)[1].startswith(f"line {CHUNK + 1}: frame 'a' appears again")


@pytest.mark.parametrize("key, good, bad", [
    ("track_id", 1, True), ("difficulty", 1, 1.0), ("num_points", 0, False),
    ("num_points", 1, 1.0), ("source_id", 0, 0.0), ("difficulty", 2, 2.0),
])
def test_an_id_equal_to_an_earlier_int_in_the_chunk(tmp_path, key, good, bad):
    # 1, 1.0 and True are one set member; the bad one must still be seen.
    path = tmp_path / "boxes.jsonl"
    _write(path, [_line(_record(**{key: good})), _line(_record(**{key: bad}))])
    assert _assert_same(path) == (io.ValidationError, f"line 2: key {key!r} must be an integer")


def test_a_line_nested_too_deep_after_a_bad_line(tmp_path):
    # The first bad line is reported, not the nesting of a later one.
    path = tmp_path / "boxes.jsonl"
    _write(path, [_line(_record(score=2.0)), "[" * 100_000 + "\n"])
    got = _assert_same(path)
    assert got[0] is io.ValidationError and got[1].startswith("line 1: ")


@pytest.mark.parametrize("before", [[], [_line(_record())]])
def test_a_line_nested_too_deep_is_invalid_json(tmp_path, before):
    path = tmp_path / "boxes.jsonl"
    _write(path, before + ["[" * 100_000 + "\n"])
    assert _assert_same(path) == (
        io.FormatError, f"line {len(before) + 1}: invalid JSON: maximum recursion depth "
                        "exceeded while decoding a JSON array from a unicode string")


def test_a_chunk_of_blank_lines_only(tmp_path):
    lines = [_line(_record("a"))] + ["\n", " \r\n", "\x0c\n", "\r"] * (CHUNK // 2)
    lines += [_line(_record("a", cx=7.0)), _line(_record("b"))]
    path = tmp_path / "boxes.jsonl"
    _write(path, lines)
    got = _assert_same(path)
    assert [len(frame[4]) for frame in got] == [2, 1]


def test_big_integers_and_optional_ids(tmp_path):
    lines = [_line(_record(cx=2**53 + 1, cy=-(2**63) - 1, cz=2**64 + 3, l=2**53 + 1,
                           heading=10**20, track_id=2**63 + 1, num_points=10**400,
                           source_id=-3, difficulty=None)),
             _line(_record(track_id=None, score=1, heading=-0.0))]
    path = tmp_path / "boxes.jsonl"
    _write(path, lines)
    rows = _assert_same(path)[0][4]
    assert rows[0][0] == _typed(float(2**53 + 1)) and rows[0][9] == (int, 2**63 + 1)
    assert rows[1][7] == (float, (1.0).hex()) and rows[1][6] == _typed(-0.0)

    _write(path, [_line(_record(timestamp=10**400))])
    assert _assert_same(path) == (
        io.ValidationError, "line 1: key 'timestamp' is out of float range")


def test_lines_split_only_at_lf_cr_and_crlf(tmp_path):
    # A form feed, a vertical tab and U+2028 inside a line do not end it, as
    # str.splitlines would: the line holds two records and is bad JSON.
    path = tmp_path / "boxes.jsonl"
    for joiner in ("\x0c", "\x0b", " ", "\x85", "\u2028"):
        _write(path, [_line(_record())[:-1] + joiner + _line(_record())])
        assert _assert_same(path) == (io.FormatError, "line 1: invalid JSON: Extra data")
    _write(path, [_line(_record())[:-1] + "\r", _line(_record())[:-1] + "\r\n", _line(_record())])
    assert len(_assert_same(path)[0][4]) == 3


@pytest.mark.parametrize("record", [{"frame_id": "\xff"}, _record(frame_id="\xff"),
                                    _record(extra="\xe9t\xe9")])
def test_undecodable_bytes_name_the_line_and_byte(tmp_path, record):
    path = tmp_path / "boxes.jsonl"
    path.write_bytes(_line(_record()).encode()
                     + json.dumps(record, ensure_ascii=False).encode("latin-1") + b"\n")
    got = _assert_same(path)
    assert got[0] is io.FormatError and got[1].startswith("line 2: invalid UTF-8 byte 0x")


# --- one parse per chunk, and the lines it must leave to one parse each ----

def _loads_calls(path):
    """What read_boxes gives, and how many json.loads calls it took."""
    with mock.patch.object(io.json, "loads", wraps=json.loads) as loads:
        got = _outcome(read_boxes, path)
    return got, loads.call_count


def _assert_read_in(path, calls):
    """The file reads like the oracle in the given number of json.loads
    calls, without the record-by-record path."""
    with mock.patch.object(io, "_parse_record", side_effect=AssertionError):
        got, made = _loads_calls(path)
        columns = _column_outcome(path)
    assert got == _outcome(reference_read_boxes, path) == columns
    assert isinstance(got, list) and made == calls
    return got


def test_lines_that_join_into_two_records_are_parsed_one_at_a_time(tmp_path):
    lines = _split_pair(_record()).splitlines(keepends=True)
    joined = json.loads("[" + ",".join(lines) + "]")
    assert [record["frame_id"] for record in joined] == ["f", "f"]
    path = tmp_path / "boxes.jsonl"
    _write(path, lines)
    got = _assert_same(path)
    assert got[0] is io.FormatError and got[1].startswith("line 1: invalid JSON: ")


@pytest.mark.parametrize("frame_id", ["{", "}", "{}", "}{", "a}\n{b", "}\n{"])
def test_a_frame_id_that_holds_a_brace(tmp_path, frame_id):
    path = tmp_path / "boxes.jsonl"
    _write(path, [_line(_record(frame_id)), _line(_record(frame_id)), _line(_record("g"))])
    assert _assert_read_in(path, 3)[0][1] == _typed(frame_id)


@pytest.mark.parametrize("before, after", [(" ", ""), ("", " "), ("\t", ""), ("", "\t"),
                                           (" \t", "\t "), ("", " \n")])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_lines_padded_with_spaces_and_tabs(tmp_path, before, after, at):
    lines = [_line(_record(cx=float(i))) for i in range(3)]
    lines[at] = before + lines[at][:-1] + after + "\n"
    path = tmp_path / "boxes.jsonl"
    _write(path, lines)
    assert len(_assert_read_in(path, 3)[0][4]) == 3


@pytest.mark.parametrize("extra, calls", [
    ([1, [2.5, "x"]], 1), ([], 1), ({}, 3), ({"a": 1}, 3), ({"a": {"b": [{}]}}, 3),
    ([[{"c": None}]], 3),
])
def test_an_unknown_key_holding_an_array_or_an_object(tmp_path, extra, calls):
    path = tmp_path / "boxes.jsonl"
    _write(path, [_line(_record()), _line(_record(extra=extra)), _line(_record("g"))])
    _assert_read_in(path, calls)


@pytest.mark.parametrize("last, calls", [("", 1), (" ", 2), ("\t", 2)])
def test_a_last_line_without_a_line_feed(tmp_path, last, calls):
    path = tmp_path / "boxes.jsonl"
    _write(path, [_line(_record()), _line(_record("g"))[:-1] + last])
    assert [len(frame[4]) for frame in _assert_read_in(path, calls)] == [1, 1]


@pytest.mark.parametrize("text, error", [
    # json.loads keeps a key's last value.
    (_duplicate_first(json.dumps(_record()), "score", 2.0), None),
    (_duplicate_first(json.dumps(_record()), "frame_id", 7), None),
    (_duplicate_first(json.dumps(_record(score=2.0)), "score", 0.9),
     "line 2: score must lie in [0, 1], got 2.0"),
    (_duplicate_first(json.dumps(_record(label="TRUCK")), "label", "VEHICLE"),
     "line 2: unknown label 'TRUCK'"),
])
def test_duplicate_keys(tmp_path, text, error):
    path = tmp_path / "boxes.jsonl"
    _write(path, [_line(_record()), text + "\n", _line(_record("g"))])
    got = _assert_same(path)
    if error is None:
        assert [len(frame[4]) for frame in got] == [2, 1]
    else:
        assert got == (io.ValidationError, error)


def test_u2028_inside_a_string_ends_no_line(tmp_path):
    path = tmp_path / "boxes.jsonl"
    records = [_record("a\u2028b"), _record("a\u2028b", extra="x\u2028y"), _record("g")]
    _write(path, [json.dumps(record, ensure_ascii=False) + "\n" for record in records])
    got = _assert_read_in(path, 1)
    assert [frame[1] for frame in got] == [_typed("a\u2028b"), _typed("g")]


def _nested_file(path, depth):
    # A valid record whose unknown key nests depth arrays, after a plain one.
    deep = json.dumps(_record())[:-1] + ', "deep": ' + "[" * depth + "]" * depth + "}\n"
    _write(path, [_line(_record()), deep])


def _deepest(read, path) -> int:
    """The deepest nesting that read takes, called as _assert_same calls it."""
    low, high = 1, 2
    while True:  # read takes low levels; high is the next guess
        _nested_file(path, high)
        if not isinstance(_outcome(read, path), list):
            break
        low, high = high, 2 * high
    while high - low > 1:  # read takes low levels and refuses high
        middle = (low + high) // 2
        _nested_file(path, middle)
        low, high = (middle, high) if isinstance(_outcome(read, path), list) else (low, middle)
    return low


def test_a_line_nested_just_below_and_just_above_the_recursion_limit(tmp_path):
    """Each depth up to the deepest that read_boxes takes, and from the
    shallowest that the oracle refuses, reads as the oracle reads it.

    The limit counts the caller's frames too, and the reader parses one
    frame deeper than the oracle (in ``_file_runs``), so it may refuse one
    level that the oracle takes. Just below its limit the chunk's one
    parse, a level deeper than a line alone, raises and the chunk's lines
    are parsed again one at a time.
    """
    path = tmp_path / "boxes.jsonl"
    below, above = _deepest(read_boxes, path), _deepest(reference_read_boxes, path) + 1
    assert 1 <= above - below <= 2
    for depth in [*range(below - 4, below + 1), *range(above, above + 4)]:
        _nested_file(path, depth)
        if depth < below:  # parsed in the chunk, at once or one line at a time
            with mock.patch.object(io, "_parse_record", side_effect=AssertionError):
                got = _assert_same(path)
        else:
            got = _assert_same(path)
        if depth <= below:
            assert isinstance(got, list)
        else:
            assert got == (io.FormatError,
                           "line 2: invalid JSON: maximum recursion depth exceeded "
                           "while decoding a JSON array from a unicode string")


def test_three_chunks_written_by_write_boxes_take_three_parses(tmp_path):
    frames = [DetectionSet(f"frame-{k}", [
        Box3D(float(i), -float(i), 0.5, 4.0, 2.0, 1.5, 0.01 * i, 0.5, Label.VEHICLE,
              track_id=i, difficulty=1 + i % 2, num_points=i, source_id=-i)
        for i in range(CHUNK // 2)], 0, 0.1 * k) for k in range(6)]
    path = tmp_path / "boxes.jsonl"
    write_boxes(frames, path)
    with mock.patch.object(io.json, "loads", wraps=json.loads) as loads:
        got = read_boxes(path)
    assert loads.call_count == 3
    assert [frame.boxes for frame in got.values()] == [frame.boxes for frame in frames]


@st.composite
def _frame_sets(draw):
    """Frames with distinct ids and at least one box each, more boxes than
    the chunk size drawn beside them."""
    frame_ids = draw(st.lists(st.text(), min_size=2, max_size=4, unique=True))
    return [DetectionSet(frame_id, draw(st.lists(_readable_box(), min_size=1, max_size=4)),
                         0, draw(st.floats(allow_nan=False, allow_infinity=False)))
            for frame_id in frame_ids]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(sets=_frame_sets(), chunk=st.integers(1, 4))
def test_multi_frame_sets_read_back_across_chunk_boundaries(tmp_path_factory, sets, chunk):
    path = tmp_path_factory.getbasetemp() / "round_trip.jsonl"
    write_boxes(sets, path)
    lines = sum(len(frame) for frame in sets)
    with mock.patch.object(io, "_CHUNK_LINES", chunk):
        got, calls = _loads_calls(path)
        assert got == _outcome(reference_read_boxes, path) == _column_outcome(path)
        frames = read_boxes(path)
    assert list(frames) == [frame.frame_id for frame in sets]
    for frame in sets:
        assert frames[frame.frame_id].timestamp == frame.timestamp
        assert frames[frame.frame_id].boxes == frame.boxes
    if not any("{" in frame.frame_id or "}" in frame.frame_id for frame in sets):
        assert calls == -(-lines // chunk)  # one parse per chunk


# --- memory ---------------------------------------------------------------

def test_peak_memory_exceeds_the_oracle_by_at_most_one_chunk(tmp_path):
    """The reader keeps the same objects per box as the oracle, and beyond
    them one chunk's lines and values, never every record."""
    rng = np.random.default_rng(5)
    path = tmp_path / "boxes.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(20_000):
            fh.write(_line(dict(
                frame_id=f"frame-{i // 200:04d}", timestamp=0.1 * (i // 200),
                cx=float(rng.uniform(-80, 80)), cy=float(rng.uniform(-80, 80)),
                cz=float(rng.uniform(-2, 2)), l=float(rng.uniform(0.5, 6)),
                w=float(rng.uniform(0.5, 3)), h=float(rng.uniform(0.5, 3)),
                heading=float(rng.uniform(-3.1, 3.1)), score=float(rng.uniform()),
                label="VEHICLE", track_id=int(rng.integers(0, 10**6)))))
    line_bytes = path.stat().st_size / 20_000

    def peak(read):
        tracemalloc.start()
        try:
            frames = read(path)
            return tracemalloc.get_traced_memory()[1], frames
        finally:
            tracemalloc.stop()

    oracle_peak, expected = peak(reference_read_boxes)
    del expected
    reader_peak, _ = peak(read_boxes)
    # One chunk's lines, their values and the columns that hold them take a
    # few times a line's bytes per line (about 3.4 here). Holding every
    # parsed record would take about 30 MB more.
    assert reader_peak <= oracle_peak + 6 * line_bytes * CHUNK
