"""Spans and counters around lidarpost's public functions, from outside.

``Tracer.install()`` replaces the names that ``lidarpost.cli``,
``lidarpost.tracker`` and ``lidarpost.metrics`` look up at call time with
wrappers that record a span; ``uninstall()`` puts the originals back.
Nothing in lidarpost itself changes. The ``iou_fn`` defaults are bound at
import, so geometry is timed and counted by passing a timed ``iou_fn`` to
every wrapped function that accepts one. IoU calls are far too many for a
span each: their time and count are added to the enclosing span instead.

A span is a list ``[id, name, command, parent, start_ns, end_ns, child_ns,
iou_calls, iou_ns]``. Spans stay in memory until ``write()``.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

ID, NAME, CMD, PARENT, START, END, CHILD, IOU_CALLS, IOU_NS = range(9)

# Wrapped module attribute -> span name. The span name's prefix is the layer.
CLI_SPANS = {
    "read_points": "io.read_points",
    "write_points": "io.write_points",
    "read_boxes": "io.read_boxes",
    "write_boxes": "io.write_boxes",
    "concat_frames": "pointcloud.concat",
    "voxelize_dynamic": "voxelizer.dynamic",
    "voxelize_hard": "voxelizer.hard",
    "fixed_assign": "assigner.assign",
    "adaptive_assign": "assigner.assign",
    "nms": "ensemble.nms",
    "soft_nms": "ensemble.soft_nms",
    "box_vote": "ensemble.box_vote",
    "ensemble_pair": "ensemble.ensemble_pair",
    "match_frame": "metrics.match_frame",
    "average_precision": "metrics.average_precision",
    "pr_points": "metrics.pr_points",
    "mota_motp": "metrics.mota_motp",
}
TRACKER_SPANS = {
    "predict": "tracker.kalman",
    "update": "tracker.kalman",
    "associate": "tracker.associate",
    "hungarian": "tracker.hungarian",
}
# Functions whose iou_fn gets the timed BEV IoU, and the timed 3D IoU.
BEV_IOU_USERS = {"nms", "soft_nms", "box_vote", "ensemble_pair"}
IOU3D_USERS = {"match_frame", "mota_motp", "associate"}

# Per-layer metric -> span names whose self time it sums.
SELF_TIME_METRICS = {
    "io.read_points_s": ["io.read_points"],
    "io.write_points_s": ["io.write_points"],
    "io.read_boxes_s": ["io.read_boxes"],
    "io.write_boxes_s": ["io.write_boxes"],
    "pointcloud.concat_s": ["pointcloud.concat"],
    "voxelizer.dynamic_s": ["voxelizer.dynamic"],
    "voxelizer.hard_s": ["voxelizer.hard"],
    "ensemble.nms_s": ["ensemble.nms"],
    "ensemble.soft_nms_s": ["ensemble.soft_nms"],
    "ensemble.box_vote_s": ["ensemble.box_vote"],
    "ensemble.ensemble_pair_s": ["ensemble.ensemble_pair"],
    "assigner.assign_s": ["assigner.assign"],
    "metrics.match_frame_s": ["metrics.match_frame"],
    "metrics.average_precision_s": ["metrics.average_precision"],
    "metrics.mota_motp_s": ["metrics.mota_motp"],
    "tracker.hungarian_s": ["tracker.hungarian"],
    "tracker.kalman_s": ["tracker.kalman"],
}
# Layers with more than one wrapped function also get '<layer>.self_s'.
LAYER_TOTALS = ("io", "voxelizer", "ensemble", "metrics", "tracker")


def _rejected_by_prefilter(a, b, use_z: bool) -> bool:
    """Whether lidarpost's cheap rejects (z interval, circumscribed circles) fire."""
    if use_z and min(a.z_max, b.z_max) - max(a.z_min, b.z_min) <= 0.0:
        return True
    reach = 0.5 * (math.hypot(a.length, a.width) + math.hypot(b.length, b.width))
    return (a.cx - b.cx) ** 2 + (a.cy - b.cy) ** 2 > reach * reach


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[list] = []
        self._next_id = 0
        self._command: Optional[int] = None
        self._saved: List[tuple] = []
        self._trackers: list = []

    # --- recording ---------------------------------------------------------

    def call(self, name: str, fn: Callable, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span = [self._next_id, name, self._command, parent[ID] if parent else None, 0, 0, 0, 0, 0]
        self._next_id += 1
        self._stack.append(span)
        span[START] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter_ns()
            self._stack.pop()
            if parent is not None:
                parent[CHILD] += span[END] - span[START]
            self.spans.append(span)

    def command(self, name: str, fn: Callable, *args):
        """Run one CLI command as a root span with a fresh command id."""
        self._command = self._next_id
        try:
            return self.call("cli." + name, fn, args, {})
        finally:
            self._command = None

    def _timed_iou(self, fn: Callable, use_z: bool) -> Callable:
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter_ns

        def timed(a, b):
            t0 = clock()
            value = fn(a, b)
            t1 = clock()
            top = stack[-1]
            top[IOU_NS] += t1 - t0
            top[IOU_CALLS] += 1
            if value == 0.0 and _rejected_by_prefilter(a, b, use_z):
                counts["geometry.iou_pairs_prefiltered"] += 1
            # The bookkeeping is tracing overhead: keep it out of the parent's self time.
            top[CHILD] += clock() - t0
            return value

        return timed

    def _wrap(self, name: str, fn: Callable, iou_fn: Optional[Callable], count: Callable):
        tracer = self

        def wrapper(*args, **kwargs):
            if iou_fn is not None:
                kwargs["iou_fn"] = iou_fn
            result = tracer.call(name, fn, args, kwargs)
            count(tracer.counts, args, result)
            return result

        return wrapper

    # --- patching ----------------------------------------------------------

    def _patch(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        from lidarpost import cli, geometry, metrics, tracker

        bev = self._timed_iou(geometry.bev_iou, use_z=False)
        iou3d = self._timed_iou(geometry.iou3d, use_z=True)
        targets = ((cli, CLI_SPANS), (tracker, TRACKER_SPANS),
                   (metrics, {"hungarian": "tracker.hungarian"}))
        for module, names in targets:
            for attr, name in names.items():
                iou = bev if attr in BEV_IOU_USERS else iou3d if attr in IOU3D_USERS else None
                wrapper = self._wrap(name, getattr(module, attr), iou, _COUNTERS.get(attr, _no_count))
                self._patch(module, attr, wrapper)

        tracer = self
        base = cli.Tracker

        class TracedTracker(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer._trackers.append(self)

            def step(self, detections):
                return tracer.call("tracker.step", super().step, (detections,), {})

        self._patch(cli, "Tracker", TracedTracker)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # --- per-repetition summary ---------------------------------------------

    def mark(self) -> int:
        """Start a repetition: reset counters; returns the index of its first span."""
        self.counts.clear()
        self._trackers.clear()
        return len(self.spans)

    def summarize(self, first_span: int) -> Dict[str, float]:
        """Per-layer self times (s) and counts of the spans recorded since mark()."""
        spans = self.spans[first_span:]
        self_ns: Dict[str, int] = defaultdict(int)
        iou_ns = 0
        iou_calls = 0
        steps_ms = []
        for span in spans:
            self_ns[span[NAME]] += span[END] - span[START] - span[CHILD]
            iou_ns += span[IOU_NS]
            iou_calls += span[IOU_CALLS]
            if span[NAME] == "tracker.step":
                steps_ms.append((span[END] - span[START]) / 1e6)
        out: Dict[str, float] = {}
        for metric, names in SELF_TIME_METRICS.items():
            out[metric] = sum(self_ns[n] for n in names) / 1e9
        for layer in LAYER_TOTALS:
            out[f"{layer}.self_s"] = sum(v for n, v in self_ns.items() if n.startswith(layer + ".")) / 1e9
        out["cli.overhead_s"] = sum(v for n, v in self_ns.items() if n.startswith("cli.")) / 1e9
        out["geometry.iou_s"] = iou_ns / 1e9
        out["geometry.iou_pairs"] = iou_calls
        out["geometry.us_per_pair"] = iou_ns / 1e3 / iou_calls if iou_calls else 0.0
        c = self.counts
        out["geometry.iou_pairs_prefiltered"] = c["geometry.iou_pairs_prefiltered"]
        out["io.records"] = c["io.records"]
        for key in ("voxels", "dropped_points", "dropped_voxels"):
            out[f"voxelizer.{key}"] = c[f"voxelizer.{key}"]
        out["voxelizer.stored_ratio"] = (
            c["voxelizer.stored"] / c["voxelizer.points_in"] if c["voxelizer.points_in"] else 0.0)
        out["ensemble.kept_ratio"] = c["ensemble.kept"] / c["ensemble.in"] if c["ensemble.in"] else 0.0
        out["assigner.positives"] = c["assigner.positives"]
        out["tracker.hungarian_calls"] = c["tracker.hungarian_calls"]
        out["tracker.max_matrix_cells"] = c["tracker.max_matrix_cells"]
        out["tracker.tracks_born"] = sum(t.tracks_created for t in self._trackers)
        out["steps_ms"] = steps_ms
        return out

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        keys = ("id", "name", "command", "parent", "start_ns", "end_ns", "child_ns",
                "iou_calls", "iou_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile, 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q / 100.0 * len(ordered)) - 1))]


def _no_count(counts, args, result) -> None:
    pass


def _count_boxes_read(counts, args, result) -> None:
    counts["io.records"] += sum(len(s.boxes) for s in result.values())


def _count_boxes_written(counts, args, result) -> None:
    sets = args[0].values() if hasattr(args[0], "values") else args[0]
    counts["io.records"] += sum(len(s.boxes) for s in sets)


def _count_voxels(counts, args, grid) -> None:
    counts["voxelizer.voxels"] += grid.num_voxels
    counts["voxelizer.dropped_points"] += grid.dropped_points
    counts["voxelizer.dropped_voxels"] += grid.dropped_voxels
    counts["voxelizer.stored"] += grid.stored_points
    counts["voxelizer.points_in"] += len(args[0])


def _count_nms(counts, args, kept) -> None:
    counts["ensemble.in"] += len(args[0])
    counts["ensemble.kept"] += len(kept)


def _count_positives(counts, args, result) -> None:
    counts["assigner.positives"] += sum(label.value == "POSITIVE" for label in result.labels)


def _count_hungarian(counts, args, result) -> None:
    rows = len(args[0])
    cols = len(args[0][0]) if rows else 0
    counts["tracker.hungarian_calls"] += 1
    counts["tracker.max_matrix_cells"] = max(counts["tracker.max_matrix_cells"], rows * cols)


_COUNTERS = {
    "read_boxes": _count_boxes_read,
    "write_boxes": _count_boxes_written,
    "voxelize_dynamic": _count_voxels,
    "voxelize_hard": _count_voxels,
    "nms": _count_nms,
    "fixed_assign": _count_positives,
    "adaptive_assign": _count_positives,
    "hungarian": _count_hungarian,
}


def median_summary(summaries: List[Dict[str, float]]) -> Dict[str, float]:
    """Median of each time over repetitions; counts from the first repetition."""
    out: Dict[str, float] = {}
    for key, value in summaries[0].items():
        if key == "steps_ms":
            continue
        if key.endswith("_s") or key == "geometry.us_per_pair":
            out[key] = statistics.median(s[key] for s in summaries)
        else:
            out[key] = value
    steps = [ms for s in summaries for ms in s["steps_ms"]]
    out["tracker.step_p50_ms"] = percentile(steps, 50)
    out["tracker.step_p95_ms"] = percentile(steps, 95)
    out["tracker.steps"] = len(steps)
    return out
