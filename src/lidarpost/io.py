"""File formats: JSONL box records and little-endian float32 point payloads.

Box files carry one JSON object per line (UTF-8; written LF terminated, read
split at LF, CR or CRLF), each frame's records contiguous, and are grouped
by frame on read. The reader parses a chunk of lines with one
``json.loads`` of them as a JSON array when the chunk's text proves that
each line is one object with no other brace; a JSON string holds no raw
line break, so the array's items are then the lines' own objects. Any other
chunk is parsed one line at a time. The records are checked once, as
columns: the value types per key, then each field's column against its
domain in ``geometry.BOX_DOMAINS``, with no per-record checks or
constructor. A chunk that fails any check is read again one record at a
time by the path that words every error, so a bad file raises what a
one-record reader would. The checked columns are what the reader gives:
:func:`read_box_columns` returns them per frame as :class:`BoxColumns`, and
:func:`read_boxes` builds each chunk's ``Box3D`` rows from them.

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
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Tuple, Union

import numpy as np

from .geometry import (BOX_DOMAINS, FINITE, _ID_FIELDS, _NUMBER_FIELDS, Box3D, DetectionSet,
                       Label, unchecked_box, wrap_angle, wrap_angles)
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
# Each field's place among a record's box values, in Box3D's field order.
_BOX_INDEX = {name: i for i, name in enumerate((*_NUMBER_FIELDS, "label", *_ID_FIELDS))}


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


def _parse_record(record, lineno: int) -> Tuple[str, float, list]:
    """A parsed line's frame id, timestamp and box values in ``Box3D``'s
    field order, heading wrapped, checked as :class:`Box3D` checks them and
    worded as its errors are, with the line named."""
    if not isinstance(record, dict):
        raise FormatError(f"line {lineno}: expected a JSON object")
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
    # The values are floats, a Label and ints or None, as Box3D's type checks
    # want; what is left to check are the domains, then the heading's wrap.
    values = [*numbers, label, *ids]
    try:
        for name, domain in BOX_DOMAINS.items():
            domain.check(name, values[_BOX_INDEX[name]])
        values[6] = wrap_angle(values[6])
    except ValueError as exc:
        raise ValidationError(f"line {lineno}: {exc}") from exc
    return frame_id, timestamp, values


# Lines read and checked together. A chunk's lines and columns live until
# its runs are taken, and its parsed records until their columns are taken,
# so the reader needs little memory beyond what it returns.
_CHUNK_LINES = 512

_FRAME_ID, *_NUMBERS, _LABEL = map(itemgetter, _REQUIRED_KEYS)
_LABELS = {label.value: label for label in Label}


class BoxColumns(NamedTuple):
    """One frame's boxes as columns, in file order: the values a box file's
    records give, checked as :class:`Box3D` checks them.

    numbers is an (n, 8) float64 array of the fields of ``_NUMBER_FIELDS``
    (cx, cy, cz, length, width, height, heading, score), the heading wrapped
    to (-pi, pi]; labels holds each box's :class:`Label`; ids holds the
    track_id, difficulty, num_points and source_id columns, each a list of
    ints and None.
    """

    frame_id: str
    timestamp: float
    numbers: np.ndarray
    labels: List[Label]
    ids: Tuple[list, list, list, list]

    @property
    def geometry(self) -> np.ndarray:
        """The (n, 7) geometry of ``geometry.as_geometry``: every number but the score."""
        return self.numbers[:, :7]


# A checked chunk: frame ids, timestamps, numbers, labels and id columns.
_Checked = Tuple[list, np.ndarray, np.ndarray, List[Label], List[list]]
# One run of equal frame ids: (frame id, first timestamp, numbers, labels, ids).
_Run = Tuple[str, float, np.ndarray, List[Label], List[list]]


def _records(lines: List[str]) -> Optional[list]:
    """The values of a chunk's non-blank lines, or None if a line is not
    valid UTF-8, not JSON or nested too deeply.

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
    """
    text = list(filterfalse(str.isspace, lines))
    joined = "".join(text)
    n = len(text)
    try:
        joined.encode("utf-8")
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
    except (ValueError, RecursionError):  # undecodable bytes, bad or too deeply nested JSON
        return None


def _checked_chunk(records: Optional[list]) -> Optional[_Checked]:
    """The frame ids, timestamps, numbers, labels and id columns of a
    chunk's records as :func:`_records` gives them, checked together as
    columns, or None if the chunk did not parse or any record fails a check.

    The checks accept exactly the records that :func:`_parse_record`
    accepts, testing the same domains, and the columns hold the values it
    gives: numbers as in :class:`BoxColumns`, as an (n, 8) view.
    """
    if records is None:
        return None
    if not records:
        return [], np.empty(0), np.empty((0, 8)), [], []
    try:
        # One C-level pass over the records per key.
        frame_ids = list(map(_FRAME_ID, records))
        numbers = [list(map(getter, records)) for getter in _NUMBERS]
        labels = list(map(_LABELS.__getitem__, map(_LABEL, records)))
    except (AttributeError, KeyError, TypeError):
        # A non-object record, a missing key, an unknown or unhashable label.
        return None
    # The id columns to take and check: none when every record holds the
    # required keys alone, as anchor and detection files do.
    held = ([] if set(map(len, records)) == {len(_REQUIRED_KEYS)}
            else [list(map(dict.get, records, repeat(key))) for key in _ID_FIELDS])
    ids = held or [[None] * len(records) for _ in _ID_FIELDS]
    del records
    # Types are checked on the raw columns: a set holds one of 1, 1.0 and
    # True, so a set of the values would hide a float or bool id.
    if (set(map(type, frame_ids)) != {str}
            or not set(map(type, chain.from_iterable(numbers))) <= {int, float}
            or not set(map(type, chain.from_iterable(held))) <= {int, type(None)}):
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
                    for name, column in zip(_ID_FIELDS, held) if name in BOX_DOMAINS)
    if not (FINITE.test(values).all()
            and all(BOX_DOMAINS[name].test(column).all()
                    for name, column in by_field.items() if name in BOX_DOMAINS)):
        return None
    values[7] = wrap_angles(values[7])
    return frame_ids, values[0], values[1:].T, labels, ids


def _runs(checked: _Checked, seen: set, current: Optional[str]) -> Optional[List[_Run]]:
    """Each run of equal frame ids in a checked chunk, or None if a run's
    frame appeared before another's: seen holds the frame ids read before
    the chunk, and current the last of them."""
    frame_ids, timestamps, numbers, labels, ids = checked
    runs = []
    start = 0
    for frame_id, run in groupby(frame_ids):
        stop = start + len(list(run))
        runs.append((frame_id, float(timestamps[start]), numbers[start:stop],
                     labels[start:stop], [column[start:stop] for column in ids]))
        start = stop
    new = [run[0] for run in runs]
    if new and new[0] == current:
        del new[0]  # the current frame goes on
    if len(set(new)) < len(new) or not seen.isdisjoint(new):
        return None
    return runs


def _run_columns(run: Tuple[str, float, List[list]]) -> _Run:
    """A run of box values, as :func:`_parse_record` gives them, as columns."""
    frame_id, timestamp, boxes = run
    columns = list(zip(*boxes))
    return (frame_id, timestamp, np.array(columns[:8], dtype=np.float64).T,
            list(columns[8]), [list(column) for column in columns[9:]])


def _file_runs(path: PathLike) -> Iterator[_Run]:
    """The checked runs of equal frame ids of a box file, in file order.

    The file is read ``_CHUNK_LINES`` lines at a time, split where iterating
    the text file splits it (LF, CR or CRLF; not at the form feeds and other
    breaks that ``str.splitlines`` knows). Each chunk is parsed by
    :func:`_records` and its records checked together as columns. A chunk
    that fails any check is read again record by record, each checked by
    :func:`_parse_record`; that path words the error and names the first
    bad line. That path parses each line in this generator's own frame, not
    in a helper, so that no further frame counts against the recursion
    limit that bounds how deeply a line may nest.

    Raises:
        FormatError: on a line that is not valid UTF-8 or not a JSON object.
        ValidationError: on a line whose values violate box invariants, or
            whose frame id appeared before another frame's records.
    """
    seen: set = set()
    current = None
    first = 1
    # Undecodable bytes come through as lone surrogates, so the line that
    # holds one can be named.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        while lines := list(islice(fh, _CHUNK_LINES)):
            # The parsed records are passed on, not kept here, so that the
            # checks can free them once their columns are taken.
            checked = _checked_chunk(_records(lines))
            runs = None if checked is None else _runs(checked, seen, current)
            if runs is None:
                parsed: List[Tuple[str, float, List[list]]] = []
                for lineno, line in enumerate(lines, first):
                    if not line.strip():
                        continue
                    if not line.isascii():
                        try:
                            line.encode("utf-8")
                        except UnicodeEncodeError as exc:
                            byte = ord(line[exc.start]) - 0xDC00
                            raise FormatError(
                                f"line {lineno}: invalid UTF-8 byte 0x{byte:02x}") from None
                    try:
                        record = json.loads(line)
                    except (json.JSONDecodeError, RecursionError) as exc:
                        reason = getattr(exc, "msg", exc)  # a RecursionError: nested too deeply
                        raise FormatError(f"line {lineno}: invalid JSON: {reason}") from exc
                    frame_id, timestamp, values = _parse_record(record, lineno)
                    if frame_id != current or not parsed:  # the chunk's first may go on a frame
                        if frame_id != current and frame_id in seen:
                            raise ValidationError(
                                f"line {lineno}: frame {frame_id!r} appears again after "
                                f"frame {current!r}; a frame's records must be contiguous")
                        seen.add(frame_id)
                        current = frame_id
                        parsed.append((frame_id, timestamp, []))
                    parsed[-1][2].append(values)
                runs = list(map(_run_columns, parsed))
            for run in runs:
                current = run[0]
                seen.add(current)
                yield run
            first += len(lines)


def _rows(numbers: np.ndarray, labels: List[Label], ids: List[list]) -> List[Box3D]:
    """The boxes of checked columns, without ``Box3D.__post_init__``."""
    return list(map(unchecked_box, *numbers.T.tolist(), labels, *ids))


def read_boxes(path: PathLike) -> Dict[str, DetectionSet]:
    """Read a JSONL box file grouped by frame id, in first-appearance order.

    A frame's records must be contiguous. Unknown keys are ignored; blank
    lines are skipped. Each frame's timestamp is taken from its first record.

    The records are read and checked once, as the columns that
    :func:`read_box_columns` returns (see :func:`_file_runs`), and each
    chunk's boxes are then built from those columns without
    ``Box3D.__post_init__``, so the two readers accept the same files with
    the same errors and the same values.

    Raises:
        FormatError: on a line that is not valid UTF-8 or not a JSON object.
        ValidationError: on a line whose values violate box invariants, or
            whose frame id appeared before another frame's records.
    """
    frames: Dict[str, DetectionSet] = {}
    frame = None
    for frame_id, timestamp, numbers, labels, ids in _file_runs(path):
        if frame is None or frame.frame_id != frame_id:
            frame = DetectionSet(frame_id, [], 0, timestamp)
            frames[frame_id] = frame
        frame.boxes.extend(_rows(numbers, labels, ids))
    return frames


def read_box_columns(path: PathLike) -> Dict[str, BoxColumns]:
    """Read a JSONL box file as :func:`read_boxes` does, each frame as
    :class:`BoxColumns` rather than boxes.

    Raises:
        FormatError: on a line that is not valid UTF-8 or not a JSON object.
        ValidationError: on a line whose values violate box invariants, or
            whose frame id appeared before another frame's records.
    """
    runs: Dict[str, List[_Run]] = {}
    for run in _file_runs(path):
        runs.setdefault(run[0], []).append(run)
    return {frame_id: BoxColumns(
        frame_id, pieces[0][1], np.concatenate([piece[2] for piece in pieces]),
        list(chain.from_iterable(piece[3] for piece in pieces)),
        tuple(list(chain.from_iterable(piece[4][k] for piece in pieces)) for k in range(4)))
        for frame_id, pieces in runs.items()}


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
