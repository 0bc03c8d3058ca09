"""File formats: JSONL box records and little-endian float32 point payloads.

Box files carry one JSON object per line (LF terminated, UTF-8), each frame's
records contiguous, and are grouped by frame on read. Point files are raw
little-endian float32 records with 4 channels (x, y, z, intensity) for
single frames or 5 (plus the time offset) for concatenated ones. All errors name the offending line or record.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Iterable, Mapping, Tuple, Union

import numpy as np

from .geometry import Box3D, DetectionSet, Label
from .pointcloud import PointCloud

PathLike = Union[str, Path]


class InputError(ValueError):
    """A problem with an input file's content."""


class FormatError(InputError):
    """Structurally unreadable input: bad JSON, misaligned binary payload."""


class ValidationError(InputError):
    """Input parsed but violates a documented invariant."""


_REQUIRED_KEYS = ("frame_id", "timestamp", "cx", "cy", "cz", "l", "w", "h",
                  "heading", "score", "label")
_OPTIONAL_INT_KEYS = ("track_id", "difficulty", "num_points", "source_id")


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
    if not math.isfinite(timestamp):
        raise ValidationError(f"line {lineno}: key 'timestamp' must be finite, got {timestamp!r}")
    label_name = record["label"]
    try:
        label = Label(label_name)
    except ValueError:
        raise ValidationError(f"line {lineno}: unknown label {label_name!r}") from None
    try:
        box = Box3D(
            cx=_number(record, "cx", lineno),
            cy=_number(record, "cy", lineno),
            cz=_number(record, "cz", lineno),
            length=_number(record, "l", lineno),
            width=_number(record, "w", lineno),
            height=_number(record, "h", lineno),
            heading=_number(record, "heading", lineno),
            score=_number(record, "score", lineno),
            label=label,
            track_id=_optional_int(record, "track_id", lineno),
            difficulty=_optional_int(record, "difficulty", lineno),
            num_points=_optional_int(record, "num_points", lineno),
            source_id=_optional_int(record, "source_id", lineno),
        )
    except ValueError as exc:
        if isinstance(exc, InputError):
            raise
        raise ValidationError(f"line {lineno}: {exc}") from exc
    return frame_id, timestamp, box


def read_boxes(path: PathLike) -> Dict[str, DetectionSet]:
    """Read a JSONL box file grouped by frame id, in first-appearance order.

    A frame's records must be contiguous. Unknown keys are ignored; blank
    lines are skipped. Each frame's timestamp is taken from its first record.

    Raises:
        FormatError: on a line that is not valid UTF-8 or not a JSON object.
        ValidationError: on a line whose values violate box invariants, or
            whose frame id appeared before another frame's records.
    """
    frames: Dict[str, DetectionSet] = {}
    frame = None
    # Undecodable bytes come through as lone surrogates, so the line that
    # holds one can be named.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
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
            except json.JSONDecodeError as exc:
                raise FormatError(f"line {lineno}: invalid JSON: {exc.msg}") from exc
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
    return frames


def write_boxes(
    sets: Union[Iterable[DetectionSet], Mapping[str, DetectionSet]],
    path: PathLike,
) -> None:
    """Write detection sets as JSONL, one box per line, LF terminated.

    Floats serialize at full precision so a read-back compares equal.
    """
    if isinstance(sets, Mapping):
        sets = sets.values()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for ds in sets:
            for box in ds.boxes:
                record = {
                    "frame_id": ds.frame_id,
                    "timestamp": ds.timestamp,
                    "cx": box.cx,
                    "cy": box.cy,
                    "cz": box.cz,
                    "l": box.length,
                    "w": box.width,
                    "h": box.height,
                    "heading": box.heading,
                    "score": box.score,
                    "label": box.label.value,
                }
                for key in _OPTIONAL_INT_KEYS:
                    value = getattr(box, key)
                    if value is not None:
                        record[key] = value
                fh.write(json.dumps(record, allow_nan=False) + "\n")


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
    with np.errstate(over="ignore"):
        records = cloud.points[:, :channels].astype("<f4")
    finite = np.isfinite(records).all(axis=1)
    if not finite.all():
        raise ValueError(f"record {int(np.argmin(finite))}: non-finite value as float32")
    Path(path).write_bytes(records.tobytes())
