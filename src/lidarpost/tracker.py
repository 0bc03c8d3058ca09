"""Online 3D multi-object tracking.

Each track carries a 10-dimensional constant-velocity Kalman state
(cx, cy, cz, heading, l, w, h, vx, vy, vz); velocities are in meters per
frame step. Frame timestamps only order the frames: every step predicts one
step ahead, so a dropped frame counts as a single step. Detections are
associated to predicted tracks per class with :func:`lidarpost.matching.hungarian`
on 1 - IoU, gated at a minimum IoU, as in AB3DMOT (Weng et al., IROS 2020).
Track ids start at 0 and are never reused within a sequence.

There is one Kalman filter: a stacked predict and a stacked update over the
rows of a table. :class:`Tracker` holds all live tracks as such rows, and
:func:`predict` and :func:`update` filter one :class:`TrackState` as the
one-row case of the same step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .geometry import (
    Box3D,
    DetectionSet,
    Label,
    heading_error,
    iou3d,
    iou_blocks,
    unchecked_box,
    wrap_angle,
    wrap_angles,
)
from .matching import hungarian
from .schema import COUNT, NON_NEGATIVE, UNIT, Range, Section, check, setting

STATE_DIM = 10
OBS_DIM = 7

# Constant-velocity transition and position-only observation matrices.
_F = np.eye(STATE_DIM)
_F[0, 7] = _F[1, 8] = _F[2, 9] = 1.0
_H = np.zeros((OBS_DIM, STATE_DIM))
_H[:OBS_DIM, :OBS_DIM] = np.eye(OBS_DIM)

# Births start with this variance on the unobserved velocity components.
_INITIAL_VELOCITY_VAR = 10.0
_BIRTH_COV = np.eye(STATE_DIM)
_BIRTH_COV[7, 7] = _BIRTH_COV[8, 8] = _BIRTH_COV[9, 9] = _INITIAL_VELOCITY_VAR

# The largest process or measurement noise. A track that coasts k frames
# grows its covariance like noise * k**3: at 1e100 a 2,000-frame coast steps
# clean, where from about 1e307 up the Kalman step overflows to inf and NaN.
MAX_NOISE = 1e100
_NOISE = Range(0.0, MAX_NOISE, low_open=True)

# Boxes built from a Kalman mean clamp dimensions here so a drifting filter
# can never produce an invalid box during association.
_MIN_DIM = 1e-3


@dataclass(frozen=True)
class TrackerConfig(Section):
    iou_min: float = setting(UNIT, default=0.1)
    max_age: int = setting(COUNT, default=2)
    min_hits: int = setting(COUNT, default=3)
    process_noise: float = setting(_NOISE, default=1.0)
    measurement_noise: float = setting(_NOISE, default=1.0)


DEFAULT_CONFIG = TrackerConfig()


@dataclass
class TrackState:
    """Kalman state plus lifecycle counters for one tracked object."""

    mean: np.ndarray
    covariance: np.ndarray
    id: int
    hits: int = 1
    time_since_update: int = 0
    age: int = 1
    label: Label = Label.VEHICLE

    def __post_init__(self) -> None:
        self.mean = np.array(self.mean, dtype=np.float64)
        self.covariance = np.array(self.covariance, dtype=np.float64)
        if self.mean.shape != (STATE_DIM,):
            raise ValueError(f"mean must have shape ({STATE_DIM},), got {self.mean.shape}")
        if self.covariance.shape != (STATE_DIM, STATE_DIM):
            raise ValueError(
                f"covariance must be {STATE_DIM}x{STATE_DIM}, got {self.covariance.shape}"
            )
        if not np.allclose(self.covariance, self.covariance.T, atol=1e-9):
            raise ValueError("covariance must be symmetric")
        check("id", self.id, NON_NEGATIVE)
        check("hits", self.hits, COUNT)
        check("time_since_update", self.time_since_update, NON_NEGATIVE)
        check("age", self.age, COUNT)

    @classmethod
    def _trusted(cls, mean, covariance, id, hits, time_since_update, age, label) -> "TrackState":
        """Build a state without the checks above, for predict, update and
        the tracker's rows only: they hold float64 arrays of the right
        shapes, a symmetrized covariance and counters in range."""
        state = object.__new__(cls)
        state.__dict__.update(mean=mean, covariance=covariance, id=id, hits=hits,
                              time_since_update=time_since_update, age=age, label=label)
        return state

    def to_box(self, score: float = 1.0) -> Box3D:
        """Box view of the mean, with dimensions clamped to stay valid."""
        m = self.mean
        return Box3D(
            cx=float(m[0]),
            cy=float(m[1]),
            cz=float(m[2]),
            length=max(float(m[4]), _MIN_DIM),
            width=max(float(m[5]), _MIN_DIM),
            height=max(float(m[6]), _MIN_DIM),
            heading=float(m[3]),
            score=score,
            label=self.label,
            track_id=self.id,
        )


def _transpose(stack: np.ndarray) -> np.ndarray:
    return stack.transpose(0, 2, 1)


def _predict_rows(
    mean: np.ndarray, cov: np.ndarray, config: TrackerConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """The Kalman predict of ``(T, 10)`` means and ``(T, 10, 10)``
    covariances, stacked: ``F m`` and the symmetrized ``F P F' + Q``."""
    cov = _F @ cov @ _F.T + config.process_noise * np.eye(STATE_DIM)
    return (_F @ mean[:, :, None])[:, :, 0], 0.5 * (cov + _transpose(cov))


def _update_rows(
    mean: np.ndarray, cov: np.ndarray, dets: List[Box3D], config: TrackerConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """The Kalman update of each row with its detection, stacked.

    Each row's result is bit for bit the one this gives for the row alone.

    Raises:
        ValueError: for the first row whose heading residual (observed
            heading minus the row's) or updated heading is not finite,
            :func:`~lidarpost.geometry.wrap_angle`'s error for that value.
    """
    z = np.array([(d.cx, d.cy, d.cz, d.heading, d.length, d.width, d.height) for d in dets],
                 dtype=np.float64)
    observed = z[:, 3]
    turn = observed - mean[:, 3]
    flip = np.abs(wrap_angles(turn)) > 0.5 * math.pi
    z[:, 3] = wrap_angles(np.where(flip, observed + math.pi, observed))
    residual = z - (_H @ mean[:, :, None])[:, :, 0]
    residual[:, 3] = wrap_angles(residual[:, 3])
    r = config.measurement_noise * np.eye(OBS_DIM)
    s = _H @ cov @ _H.T + r
    gain = _transpose(np.linalg.solve(s, _H @ cov))
    mean = mean + (gain @ residual[:, :, None])[:, :, 0]
    failed = ~(np.isfinite(turn) & np.isfinite(mean[:, 3]))
    if failed.any():
        row = int(np.argmax(failed))
        wrap_angle(float(turn[row]) if not math.isfinite(turn[row]) else mean[row, 3])
    mean[:, 3] = wrap_angles(mean[:, 3])
    joseph = np.eye(STATE_DIM) - gain @ _H
    cov = joseph @ cov @ _transpose(joseph) + gain @ r @ _transpose(gain)
    return mean, 0.5 * (cov + _transpose(cov))


def predict(state: TrackState, config: TrackerConfig = DEFAULT_CONFIG) -> TrackState:
    """Advance one frame under the constant-velocity model.

    The mean moves by its velocity; the covariance becomes F P F' + Q. Age
    and time_since_update both increment.
    """
    mean, cov = _predict_rows(state.mean[None], state.covariance[None], config)
    return TrackState._trusted(mean[0], cov[0], state.id, state.hits,
                               state.time_since_update + 1, state.age + 1, state.label)


def correct_heading_flip(observed: float, reference: float) -> float:
    """Resolve the 180-degree ambiguity of an observed heading.

    When the observed heading is more than pi/2 away from the reference it
    is flipped by pi (then wrapped), since the detector can report either
    end of the box as the front.
    """
    if heading_error(observed, reference) > 0.5 * math.pi:
        return wrap_angle(observed + math.pi)
    return wrap_angle(observed)


def update(
    state: TrackState, det: Box3D, config: TrackerConfig = DEFAULT_CONFIG
) -> TrackState:
    """Kalman correction with a 7-dim observation (cx, cy, cz, heading, l, w, h).

    The observed heading is flip-corrected against the track before the
    residual (whose heading component is wrapped) enters the standard gain
    update; the covariance uses the Joseph form to stay positive-definite.

    Raises:
        ValueError: if the track's heading or its updated heading is not
            finite.
    """
    mean, cov = _update_rows(state.mean[None], state.covariance[None], [det], config)
    return TrackState._trusted(mean[0], cov[0], state.id, state.hits + 1, 0, state.age,
                               state.label)


def associate(
    tracks: Sequence[Box3D],
    detections: Sequence[Box3D],
    iou_min: float,
    iou_fn=iou3d,
) -> Tuple[List[Tuple[int, int]], List[int], List[int]]:
    """Match predicted track boxes to detections, class by class.

    Per label, a Hungarian matching on 1 - IoU pairs tracks with detections;
    a pair whose IoU is below iou_min stays unmatched. Returns sorted
    (matches, unmatched_tracks, unmatched_detections); the three outputs
    partition both input index sets. Every label's overlaps come from one
    :func:`iou_blocks` call, so for bev_iou and iou3d from one kernel pass;
    iou_fn must return 0 for boxes whose circumscribed circles are disjoint,
    as :func:`iou_matrix` requires.
    Raises ValueError unless iou_min in [0, 1].
    """
    check("iou_min", iou_min, UNIT)
    blocks = []
    for label in sorted({b.label for b in tracks}, key=lambda l: l.value):
        t_idx = [i for i, b in enumerate(tracks) if b.label is label]
        d_idx = [j for j, b in enumerate(detections) if b.label is label]
        if d_idx:
            blocks.append((t_idx, d_idx))
    ious = iou_blocks([([tracks[i] for i in t_idx], [detections[j] for j in d_idx])
                       for t_idx, d_idx in blocks], iou_fn)
    matches: List[Tuple[int, int]] = []
    for (t_idx, d_idx), iou in zip(blocks, ious):
        matches += [(t_idx[r], d_idx[c]) for r, c in hungarian(1.0 - iou) if iou[r, c] >= iou_min]
    matches.sort()
    matched_tracks = {i for i, _ in matches}
    matched_dets = {j for _, j in matches}
    return (
        matches,
        [i for i in range(len(tracks)) if i not in matched_tracks],
        [j for j in range(len(detections)) if j not in matched_dets],
    )


class _Rows(NamedTuple):
    """The live tracks, one row each: the columns of :class:`TrackState`."""

    mean: np.ndarray  # (T, STATE_DIM) float64
    cov: np.ndarray  # (T, STATE_DIM, STATE_DIM) float64
    id: np.ndarray  # (T,) int64, and so are the counters
    hits: np.ndarray
    age: np.ndarray
    since: np.ndarray  # time since update
    label: np.ndarray  # (T,) object, Label members

    def state(self, row: int, mean: np.ndarray, cov: np.ndarray) -> TrackState:
        """A TrackState of the row's counters with the given mean and covariance."""
        return TrackState._trusted(mean, cov, int(self.id[row]), int(self.hits[row]),
                                   int(self.since[row]), int(self.age[row]), self.label[row])


_NO_ROWS = _Rows(np.empty((0, STATE_DIM)), np.empty((0, STATE_DIM, STATE_DIM)),
                 *(np.empty(0, dtype=np.int64) for _ in range(4)), np.empty(0, dtype=object))


def _predicted_boxes(rows: _Rows) -> List[Box3D]:
    """``to_box()`` of each predicted row, built without the box checks.

    Raises:
        ValueError: the one ``to_box`` raises, for the first row whose box
            values are not finite.
    """
    finite = np.isfinite(rows.mean[:, :OBS_DIM]).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        rows.state(row, rows.mean[row], rows.cov[row]).to_box()
    cx, cy, cz = rows.mean[:, :3].T.tolist()
    length, width, height = np.maximum(rows.mean[:, 4:7], _MIN_DIM).T.tolist()
    n = len(rows.id)
    return list(map(unchecked_box, cx, cy, cz, length, width, height,
                    wrap_angles(rows.mean[:, 3]).tolist(), repeat(1.0, n), rows.label.tolist(),
                    rows.id.tolist(), repeat(None, n), repeat(None, n), repeat(None, n)))


class Tracker:
    """Stateful per-sequence tracker; feed frames in temporal order.

    The live tracks are the rows of one table: a ``(T, 10)`` mean array, a
    ``(T, 10, 10)`` covariance array, int columns for id, hits, age and
    time since update, and a label column. Each step predicts all rows at
    once, associates their boxes with the detections, updates the matched
    rows at once, appends births as rows, prunes stale rows with one mask,
    and reports the current frame's confirmed tracks as the matched
    detection boxes stamped with their track ids. :func:`predict` and
    :func:`update` run the same two stacked steps on one row.
    """

    def __init__(self, config: TrackerConfig = DEFAULT_CONFIG) -> None:
        self.config = config
        self._rows = _NO_ROWS
        self._next_id = 0
        self._last_timestamp: Optional[float] = None

    @property
    def tracks(self) -> List[TrackState]:
        """Copies of the live tracks, in table order."""
        rows = self._rows
        return [rows.state(i, mean.copy(), cov.copy())
                for i, (mean, cov) in enumerate(zip(rows.mean, rows.cov))]

    @property
    def tracks_created(self) -> int:
        """Total ids issued so far (live or dead)."""
        return self._next_id

    def step(self, detections: DetectionSet) -> List[Box3D]:
        """Advance one frame and return the boxes to report, with track ids.

        A track reports when it was updated this frame and is either
        confirmed (hits >= min_hits) or still young (age <= min_hits).

        Raises:
            ValueError: if the frame timestamp is not finite or precedes the
                previous one, or if a track's state stops being finite.
        """
        timestamp = detections.timestamp
        if not math.isfinite(timestamp):
            raise ValueError(f"frame timestamp must be finite, got {timestamp!r}")
        if self._last_timestamp is not None and timestamp < self._last_timestamp:
            raise ValueError(
                f"frames must arrive in temporal order: {timestamp!r} "
                f"after {self._last_timestamp!r}"
            )
        self._last_timestamp = timestamp
        cfg = self.config
        old = self._rows

        mean, cov = _predict_rows(old.mean, old.cov, cfg)
        rows = old._replace(mean=mean, cov=cov, hits=old.hits.copy(), age=old.age + 1,
                            since=old.since + 1)
        det_boxes = detections.boxes
        matches, _, unmatched = associate(_predicted_boxes(rows), det_boxes, cfg.iou_min)

        det_of_row = np.full(len(rows.id), -1)
        if matches:
            matched, dets = map(list, zip(*matches))
            rows.mean[matched], rows.cov[matched] = _update_rows(
                rows.mean[matched], rows.cov[matched], [det_boxes[j] for j in dets], cfg)
            rows.hits[matched] += 1
            rows.since[matched] = 0
            det_of_row[matched] = dets

        born = [det_boxes[j] for j in unmatched]
        n = len(born)
        births = _Rows(
            np.array([(d.cx, d.cy, d.cz, d.heading, d.length, d.width, d.height, 0.0, 0.0, 0.0)
                      for d in born], dtype=np.float64).reshape(n, STATE_DIM),
            np.broadcast_to(_BIRTH_COV, (n, STATE_DIM, STATE_DIM)),
            np.arange(self._next_id, self._next_id + n), np.ones(n, dtype=np.int64),
            np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64),
            np.array([d.label for d in born], dtype=object))
        self._next_id += n
        det_of_row = np.concatenate([det_of_row, np.array(unmatched, dtype=np.int64)])

        keep = np.concatenate([rows.since, births.since]) <= cfg.max_age
        self._rows = rows = _Rows(*(np.concatenate(pair)[keep] for pair in zip(rows, births)))
        report = (rows.since == 0) & ((rows.hits >= cfg.min_hits) | (rows.age <= cfg.min_hits))
        return [det_boxes[j]._with(track_id=i)
                for j, i in zip(det_of_row[keep][report].tolist(), rows.id[report].tolist())]
