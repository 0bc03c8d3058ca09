"""Online 3D multi-object tracking.

Each track carries a 10-dimensional constant-velocity Kalman state
(cx, cy, cz, heading, l, w, h, vx, vy, vz); velocities are in meters per
frame step. Frame timestamps only order the frames: every step predicts one
step ahead, so a dropped frame counts as a single step. Detections are
associated to predicted tracks per class with :func:`lidarpost.matching.hungarian`
on 1 - IoU, gated at a minimum IoU, as in AB3DMOT (Weng et al., IROS 2020).
Track ids start at 0 and are never reused within a sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import Box3D, DetectionSet, Label, heading_error, iou3d, iou_matrix, wrap_angle
from .matching import hungarian

STATE_DIM = 10
OBS_DIM = 7

# Constant-velocity transition and position-only observation matrices.
_F = np.eye(STATE_DIM)
_F[0, 7] = _F[1, 8] = _F[2, 9] = 1.0
_H = np.zeros((OBS_DIM, STATE_DIM))
_H[:OBS_DIM, :OBS_DIM] = np.eye(OBS_DIM)

# Births start with this variance on the unobserved velocity components.
_INITIAL_VELOCITY_VAR = 10.0

# Boxes built from a Kalman mean clamp dimensions here so a drifting filter
# can never produce an invalid box during association.
_MIN_DIM = 1e-3


@dataclass(frozen=True)
class TrackerConfig:
    iou_min: float = 0.1
    max_age: int = 2
    min_hits: int = 3
    process_noise: float = 1.0
    measurement_noise: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.iou_min <= 1.0):
            raise ValueError(f"iou_min must lie in [0, 1], got {self.iou_min!r}")
        if self.max_age < 1:
            raise ValueError(f"max_age must be >= 1, got {self.max_age!r}")
        if self.min_hits < 1:
            raise ValueError(f"min_hits must be >= 1, got {self.min_hits!r}")
        for name in ("process_noise", "measurement_noise"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


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
        if self.id < 0:
            raise ValueError(f"id must be non-negative, got {self.id!r}")
        if self.hits < 1:
            raise ValueError(f"hits must be >= 1, got {self.hits!r}")
        if self.time_since_update < 0:
            raise ValueError(f"time_since_update must be >= 0, got {self.time_since_update!r}")
        if self.age < 1:
            raise ValueError(f"age must be >= 1, got {self.age!r}")

    @classmethod
    def _trusted(cls, mean, covariance, id, hits, time_since_update, age, label) -> "TrackState":
        """Build a state without the checks above, for predict, update and
        _new_track only: they make fresh float64 arrays of the right shapes,
        symmetrize the covariance and keep the counters in range."""
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


def predict(state: TrackState, config: TrackerConfig = DEFAULT_CONFIG) -> TrackState:
    """Advance one frame under the constant-velocity model.

    The mean moves by its velocity; the covariance becomes F P F' + Q. Age
    and time_since_update both increment.
    """
    mean = _F @ state.mean
    cov = _F @ state.covariance @ _F.T + config.process_noise * np.eye(STATE_DIM)
    cov = 0.5 * (cov + cov.T)
    return TrackState._trusted(
        mean,
        cov,
        state.id,
        hits=state.hits,
        time_since_update=state.time_since_update + 1,
        age=state.age + 1,
        label=state.label,
    )


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
    """
    heading = correct_heading_flip(det.heading, float(state.mean[3]))
    z = np.array(
        [det.cx, det.cy, det.cz, heading, det.length, det.width, det.height],
        dtype=np.float64,
    )
    residual = z - _H @ state.mean
    residual[3] = wrap_angle(residual[3])
    p = state.covariance
    r = config.measurement_noise * np.eye(OBS_DIM)
    s = _H @ p @ _H.T + r
    gain = np.linalg.solve(s, _H @ p).T
    mean = state.mean + gain @ residual
    mean[3] = wrap_angle(mean[3])
    joseph = np.eye(STATE_DIM) - gain @ _H
    cov = joseph @ p @ joseph.T + gain @ r @ gain.T
    cov = 0.5 * (cov + cov.T)
    return TrackState._trusted(
        mean,
        cov,
        state.id,
        hits=state.hits + 1,
        time_since_update=0,
        age=state.age,
        label=state.label,
    )


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
    partition both input index sets.
    """
    matches: List[Tuple[int, int]] = []
    for label in sorted({b.label for b in tracks}, key=lambda l: l.value):
        t_idx = [i for i, b in enumerate(tracks) if b.label is label]
        d_idx = [j for j, b in enumerate(detections) if b.label is label]
        if not d_idx:
            continue
        iou = iou_matrix([tracks[i] for i in t_idx], [detections[j] for j in d_idx], iou_fn)
        matches += [(t_idx[r], d_idx[c]) for r, c in hungarian(1.0 - iou) if iou[r, c] >= iou_min]
    matches.sort()
    matched_tracks = {i for i, _ in matches}
    matched_dets = {j for _, j in matches}
    return (
        matches,
        [i for i in range(len(tracks)) if i not in matched_tracks],
        [j for j in range(len(detections)) if j not in matched_dets],
    )


def _new_track(det: Box3D, track_id: int) -> TrackState:
    mean = np.array(
        [det.cx, det.cy, det.cz, det.heading, det.length, det.width, det.height,
         0.0, 0.0, 0.0],
        dtype=np.float64,
    )
    cov = np.eye(STATE_DIM)
    cov[7, 7] = cov[8, 8] = cov[9, 9] = _INITIAL_VELOCITY_VAR
    return TrackState._trusted(mean, cov, track_id, hits=1, time_since_update=0, age=1,
                               label=det.label)


class Tracker:
    """Stateful per-sequence tracker; feed frames in temporal order.

    Each step predicts all tracks, associates, updates the matched ones,
    births tracks from unmatched detections, prunes stale tracks, and
    reports the current frame's confirmed tracks as the matched detection
    boxes stamped with their track ids.
    """

    def __init__(self, config: TrackerConfig = DEFAULT_CONFIG) -> None:
        self.config = config
        self._tracks: List[TrackState] = []
        self._next_id = 0
        self._last_timestamp: Optional[float] = None

    @property
    def tracks(self) -> List[TrackState]:
        return list(self._tracks)

    @property
    def tracks_created(self) -> int:
        """Total ids issued so far (live or dead)."""
        return self._next_id

    def step(self, detections: DetectionSet) -> List[Box3D]:
        """Advance one frame and return the boxes to report, with track ids.

        A track reports when it was updated this frame and is either
        confirmed (hits >= min_hits) or still young (age <= min_hits).

        Raises:
            ValueError: if the frame timestamp precedes the previous one.
        """
        if (
            self._last_timestamp is not None
            and detections.timestamp < self._last_timestamp
        ):
            raise ValueError(
                f"frames must arrive in temporal order: {detections.timestamp!r} "
                f"after {self._last_timestamp!r}"
            )
        self._last_timestamp = detections.timestamp
        cfg = self.config

        states = [predict(t, cfg) for t in self._tracks]
        track_boxes = [s.to_box() for s in states]
        det_boxes = detections.boxes
        matches, _, unmatched_dets = associate(track_boxes, det_boxes, cfg.iou_min)

        reported_det: Dict[int, Box3D] = {}
        for ti, dj in matches:
            states[ti] = update(states[ti], det_boxes[dj], cfg)
            reported_det[states[ti].id] = det_boxes[dj]
        for dj in unmatched_dets:
            state = _new_track(det_boxes[dj], self._next_id)
            self._next_id += 1
            states.append(state)
            reported_det[state.id] = det_boxes[dj]

        self._tracks = [s for s in states if s.time_since_update <= cfg.max_age]

        reported: List[Box3D] = []
        for state in self._tracks:
            if state.time_since_update == 0 and (
                state.hits >= cfg.min_hits or state.age <= cfg.min_hits
            ):
                reported.append(replace(reported_det[state.id], track_id=state.id))
        return reported
