"""File formats: JSONL box records and little-endian float32 point payloads.

Box files carry one JSON object per line (UTF-8; written LF terminated, read
split at LF, CR or CRLF), each frame's records contiguous, and are grouped
by frame on read. The reader parses a chunk of lines with one
``json.loads`` of them as a JSON array when the chunk's text proves that
each line is one object with no other brace; a JSON string holds no raw
line break, so the array's items are then the lines' own objects. Any other
chunk is parsed one line at a time. The records are checked as columns:
the value types per key, then each field's column against its domain in
``geometry.BOX_DOMAINS``, with no per-record checks or constructor. A
chunk that fails any check is read again one record at a time by the path
that words every error, so a bad file raises what a one-record reader would.

Point files are raw little-endian float32 records with 4 channels (x, y, z,
intensity) for single frames or 5 (plus the time offset) for concatenated
ones. All errors name the offending line or record.
"""

from __future__ import annotations

import json
import math
from itertools import chain, filterfalse, groupby, islice, repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from .geometry import (BOX_DOMAINS, FINITE, _ID_FIELDS, _NUMBER_FIELDS, Box3D, DetectionSet,
                       Label, unchecked_box, wrap_angles)
from .pointcloud import PointCloud

PathLike = Union[str, Path]


class InputError(ValueError):
    """A problem with an input file's content."""


class FormatError(InputError):
    """Structurally unreadable input: bad JSON, misaligned binary payload."""


class ValidationError(InputError):
    """Input parsed but violates a documented invariant."""


# The frame id and timestamp, then the keys of Box3D's fields in field order;
# the optional keys are its id fields' names.
_REQUIRED_KEYS = ("frame_id", "timestamp", "cx", "cy", "cz", "l", "w", "h",
                  "heading", "score", "label")


def _number(record: dict, key: str, lineno: int) -> float:
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"line {lineno}: key {key!r} must be a number")
    try:
        return float(value)
    except OverflowError:  # an integer too large for a float
        raise ValidationError(f"line {lineno}: key {key!r} is out of float range") from None


def _optional_int(record: dict, key: str, lineno: int):
    if key not in record or record[key] is None:
        return None
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"line {lineno}: key {key!r} must be an integer")
    return value


def _parse_record(record: dict, lineno: int) -> Tuple[str, float, Box3D]:
    for key in _REQUIRED_KEYS:
        if key not in record:
            raise ValidationError(f"line {lineno}: missing key {key!r}")
    frame_id = record["frame_id"]
    if not isinstance(frame_id, str):
        raise ValidationError(f"line {lineno}: key 'frame_id' must be a string")
    timestamp = _number(record, "timestamp", lineno)
    if not FINITE.test(timestamp):
        raise ValidationError(f"line {lineno}: key 'timestamp' {FINITE.words}, got {timestamp!r}")
    label_name = record["label"]
    try:
        label = Label(label_name)
    except ValueError:
        raise ValidationError(f"line {lineno}: unknown label {label_name!r}") from None
    numbers = [_number(record, key, lineno) for key in _REQUIRED_KEYS[2:-1]]
    ids = [_optional_int(record, key, lineno) for key in _ID_FIELDS]
    try:
        box = Box3D(*numbers, label, *ids)
    except ValueError as exc:
        raise ValidationError(f"line {lineno}: {exc}") from exc
    return frame_id, timestamp, box


# Lines read and checked together. A chunk's lines and columns live until
# its boxes are built, and its parsed records until their columns are taken,
# so the reader needs little memory beyond the boxes it returns.
_CHUNK_LINES = 512

_FRAME_ID, *_NUMBERS, _LABEL = map(itemgetter, _REQUIRED_KEYS)
_LABELS = {label.value: label for label in Label}


def _records(text: List[str]) -> list:
    """The values of a chunk's non-blank lines.

    The lines are parsed with one ``json.loads`` of ``[line,line,...]``
    when their text proves that each line is one object that holds no other
    brace. For n lines, the joined text must start with ``{``, end with
    ``}`` or ``}`` and a line feed, and hold n ``{``, n ``}`` and n - 1
    line feeds between a ``}`` and a ``{``. A JSON string cannot hold a raw
    line break, so each line is then ``{...}`` with no brace between: the
    object that opens at a line's ``{`` must close at its ``}``, and the
    array's items are the lines' own values. Otherwise, or when that parse
    raises (one more level of nesting can pass the recursion limit), each
    line is parsed alone.

    Raises:
        ValueError: on an undecodable byte or a line that is not JSON.
        RecursionError: on a line nested too deeply.
    """
    joined = "".join(text)
    joined.encode("utf-8")
    n = len(text)
    flat = (joined.startswith("{") and joined.endswith(("}", "}\n"))
            and joined.count("{") == n and joined.count("}") == n
            and joined.count("}\n{") == n - 1)
    del joined
    if flat:
        try:
            return json.loads(f"[{','.join(text)}]")
        except (ValueError, RecursionError):
            pass
    return list(map(json.loads, text))


def _checked_chunk(lines: List[str]) -> Optional[Tuple[list, np.ndarray, List[Box3D]]]:
    """The frame ids, timestamps and boxes of a chunk's records, checked
    together as columns, or None if any record fails a check.

    The checks accept exactly the records that :func:`_parse_record`
    accepts, testing the same domains, and the boxes hold the same values.
    """
    text = list(filterfalse(str.isspace, lines))
    if not text:
        return [], np.empty(0), []
    try:
        records = _records(text)
        # One C-level pass over the records per key.
        frame_ids = list(map(_FRAME_ID, records))
        numbers = [list(map(getter, records)) for getter in _NUMBERS]
        labels = list(map(_LABELS.__getitem__, map(_LABEL, records)))
        ids = [list(map(dict.get, records, repeat(key))) for key in _ID_FIELDS]
    except (ValueError, AttributeError, KeyError, TypeError, RecursionError):
        # Undecodable bytes, bad or too deeply nested JSON, a non-object
        # record, a missing key, an unknown or unhashable label.
        return None
    del records
    # Types are checked on the raw columns: a set holds one of 1, 1.0 and
    # True, so a set of the values would hide a float or bool id.
    if (set(map(type, frame_ids)) != {str}
            or not set(map(type, chain.from_iterable(numbers))) <= {int, float}
            or not set(map(type, chain.from_iterable(ids))) <= {int, type(None)}):
        return None
    try:
        values = np.array(numbers, dtype=np.float64)
    except OverflowError:  # an integer too large for a float
        return None
    del numbers
    # Every number is finite, as a timestamp and a heading must be, and each
    # declared column (of distinct ids for an id) lies in its field's domain.
    by_field = dict(zip(_NUMBER_FIELDS, values[1:]))
    by_field.update((name, np.array([*{*column} - {None}], dtype=object))
                    for name, column in zip(_ID_FIELDS, ids) if name in BOX_DOMAINS)
    if not (FINITE.test(values).all()
            and all(BOX_DOMAINS[name].test(column).all()
                    for name, column in by_field.items() if name in BOX_DOMAINS)):
        return None
    columns = values.tolist()
    columns[7] = wrap_angles(values[7]).tolist()
    boxes = list(map(unchecked_box, *columns[1:], labels, *ids))
    return frame_ids, values[0], boxes


def _runs(
    checked: Tuple[list, np.ndarray, List[Box3D]],
    frames: Dict[str, DetectionSet],
    frame: Optional[DetectionSet],
) -> Optional[List[Tuple[str, float, List[Box3D]]]]:
    """(frame id, first timestamp, boxes) of each run of equal frame ids in
    a checked chunk, or None if a run's frame appeared before another's."""
    frame_ids, timestamps, boxes = checked
    runs = []
    start = 0
    for frame_id, run in groupby(frame_ids):
        stop = start + len(list(run))
        runs.append((frame_id, float(timestamps[start]), boxes[start:stop]))
        start = stop
    new = [frame_id for frame_id, _, _ in runs]
    if new and frame is not None and new[0] == frame.frame_id:
        del new[0]  # the current frame goes on
    if len(set(new)) < len(new) or not frames.keys().isdisjoint(new):
        return None
    return runs


def _read_records(
    numbered_lines: Iterable[Tuple[int, str]],
    frames: Dict[str, DetectionSet],
    frame: Optional[DetectionSet],
) -> Optional[DetectionSet]:
    """Read lines one record at a time into frames; return the last frame.

    This path words every error, naming the line.
    """
    for lineno, line in numbered_lines:
        if not line.strip():
            continue
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise FormatError(f"line {lineno}: invalid UTF-8 byte 0x{byte:02x}") from None
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            reason = getattr(exc, "msg", exc)  # a RecursionError: nested too deeply
            raise FormatError(f"line {lineno}: invalid JSON: {reason}") from exc
        if not isinstance(record, dict):
            raise FormatError(f"line {lineno}: expected a JSON object")
        frame_id, timestamp, box = _parse_record(record, lineno)
        if frame is None or frame.frame_id != frame_id:
            if frame_id in frames:
                raise ValidationError(
                    f"line {lineno}: frame {frame_id!r} appears again after "
                    f"frame {frame.frame_id!r}; a frame's records must be contiguous"
                )
            frame = DetectionSet(frame_id, [], 0, timestamp)
            frames[frame_id] = frame
        frame.boxes.append(box)
    return frame


def read_boxes(path: PathLike) -> Dict[str, DetectionSet]:
    """Read a JSONL box file grouped by frame id, in first-appearance order.

    A frame's records must be contiguous. Unknown keys are ignored; blank
    lines are skipped. Each frame's timestamp is taken from its first record.

    The file is read ``_CHUNK_LINES`` lines at a time, split where iterating
    the text file splits it (LF, CR or CRLF; not at the form feeds and other
    breaks that ``str.splitlines`` knows). A chunk is parsed with one
    ``json.loads`` when its text proves that each line is one object with
    no other brace: each line then starts at a ``{`` and ends at the one
    ``}`` that closes it, since a JSON string holds no raw line break (see
    ``_records``). Any other chunk, or one whose joined parse raises, is
    parsed line by line. Each chunk's records are checked together as
    columns and become boxes without ``Box3D.__post_init__``. A chunk that
    fails any check is read again record by record; that path words the
    error and names the first bad line.

    Raises:
        FormatError: on a line that is not valid UTF-8 or not a JSON object.
        ValidationError: on a line whose values violate box invariants, or
            whose frame id appeared before another frame's records.
    """
    frames: Dict[str, DetectionSet] = {}
    frame = None
    first = 1
    # Undecodable bytes come through as lone surrogates, so the line that
    # holds one can be named.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        while lines := list(islice(fh, _CHUNK_LINES)):
            checked = _checked_chunk(lines)
            runs = None if checked is None else _runs(checked, frames, frame)
            if runs is None:
                frame = _read_records(enumerate(lines, first), frames, frame)
            for frame_id, timestamp, boxes in runs or ():
                if frame is None or frame.frame_id != frame_id:
                    frame = DetectionSet(frame_id, [], 0, timestamp)
                    frames[frame_id] = frame
                frame.boxes.extend(boxes)
            first += len(lines)
    return frames


def write_boxes(
    sets: Union[Iterable[DetectionSet], Mapping[str, DetectionSet]],
    path: PathLike,
) -> None:
    """Write detection sets as JSONL, one box per line, LF terminated.

    Each line holds the bytes ``json.dumps(record, allow_nan=False)``
    gives for the box's record, keys in the order of the reader's. Floats
    serialize at full precision so a read-back compares equal.

    Raises:
        ValueError: on a non-finite float, as ``json.dumps`` does.
    """
    if isinstance(sets, Mapping):
        sets = sets.values()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for ds in sets:
            fh.writelines(_frame_lines(ds))


_numbers = attrgetter(*_NUMBER_FIELDS)
_ids = attrgetter(*_ID_FIELDS)
_LABEL_TEXT = {label: json.dumps(label.value) for label in Label}


def _json(value) -> str:
    return json.dumps(value, allow_nan=False)


def _frame_lines(ds: DetectionSet) -> List[str]:
    """A frame's lines, on a prefix that encodes frame id and timestamp once.

    When every box value is a finite float, an int id or None, and a Label,
    values are written with ``repr``, the text ``json`` writes for them;
    otherwise each one goes through ``json.dumps``.
    """
    boxes = ds.boxes
    if not boxes:
        return []
    numbers = list(map(_numbers, boxes))
    ids = list(map(_ids, boxes))
    labels = [box.label for box in boxes]
    flat = list(chain.from_iterable(numbers))
    if (set(map(type, flat)) == {float} and all(map(math.isfinite, flat))
            and set(map(type, chain.from_iterable(ids))) <= {int, type(None)}
            and set(map(type, labels)) == {Label}):
        enc, label_text = repr, _LABEL_TEXT.__getitem__
    else:
        enc, label_text = _json, lambda label: json.dumps(label.value)
    prefix = f'{{"frame_id": {_json(ds.frame_id)}, "timestamp": {_json(ds.timestamp)}, '
    return [
        f'{prefix}"cx": {enc(cx)}, "cy": {enc(cy)}, "cz": {enc(cz)}, "l": {enc(l)}, '
        f'"w": {enc(w)}, "h": {enc(h)}, "heading": {enc(heading)}, "score": {enc(score)}, '
        f'"label": {label_text(label)}'
        + "".join([f', "{key}": {enc(value)}'
                   for key, value in zip(_ID_FIELDS, box_ids) if value is not None])
        + "}\n"
        for (cx, cy, cz, l, w, h, heading, score), label, box_ids in zip(numbers, labels, ids)
    ]


def read_points(
    path: PathLike,
    channels: int = 4,
    frame_id: str = "",
    timestamp: float = 0.0,
) -> PointCloud:
    """Read a binary point file; 4-channel files get t = 0 on every point.

    Raises:
        ValueError: if channels is not 4 or 5.
        FormatError: if the file size is not a record-size multiple.
        ValidationError: on non-finite or otherwise invalid payload values.
    """
    if channels not in (4, 5):
        raise ValueError(f"channels must be 4 or 5, got {channels!r}")
    data = Path(path).read_bytes()
    record_size = 4 * channels
    if len(data) % record_size != 0:
        raise FormatError(
            f"file size {len(data)} is not a multiple of the "
            f"{record_size}-byte record size ({channels} float32 channels)"
        )
    records = np.frombuffer(data, dtype="<f4").reshape(-1, channels)
    try:
        return PointCloud(records, frame_id, timestamp)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def write_points(cloud: PointCloud, path: PathLike, channels: int = 5) -> None:
    """Write a cloud as little-endian float32 records with 4 or 5 channels.

    Raises:
        ValueError: on the first record (``record <i>``) beyond float32's range.
    """
    if channels not in (4, 5):
        raise ValueError(f"channels must be 4 or 5, got {channels!r}")
    # A float64 sum of float32 values cannot overflow, so it is finite exactly
    # when every record is; only a failing cloud is scanned for its record.
    with np.errstate(over="ignore", invalid="ignore"):
        records = cloud.points[:, :channels].astype("<f4", order="C")
        total = records.sum(dtype=np.float64)
    if not math.isfinite(total):
        finite = np.isfinite(records).all(axis=1)
        raise ValueError(f"record {int(np.argmin(finite))}: non-finite value as float32")
    Path(path).write_bytes(records)
