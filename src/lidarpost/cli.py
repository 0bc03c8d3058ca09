"""Command-line pipelines over the library.

Subcommands cover point prep (concat, voxelize), assignment inspection
(assign), detection post-processing (nms, soft-nms, vote, ensemble),
tracking (track), evaluation (eval-det, eval-mot), and default-config.
Outputs written to --output are byte-deterministic for identical inputs;
run summaries (counts, timings) go to standard output.

Exit codes: 0 success, 2 argument errors, 3 input format or validation
errors, 1 internal failures; every failure prints one line starting with
"ERROR <code>:" on standard error. A --config file is deep-merged over
the defaults printed by default-config; unknown keys and values of the
wrong type are argument errors. Override flags such as --iou take
precedence over the config (see OVERRIDES).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from dataclasses import asdict, replace
from functools import partial
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .assigner import (
    DEFAULT_K,
    DEFAULT_NEG_THR,
    DEFAULT_POS_THR,
    adaptive_assign,
    fixed_assign,
)
from .ensemble import (
    DEFAULT_NMS_IOU,
    DEFAULT_SOFT_NMS_FLOOR,
    DEFAULT_SOFT_NMS_SIGMA,
    DEFAULT_STOP_DELTA,
    DEFAULT_VOTE_IOU,
    box_vote,
    ensemble_pair,
    grid_search_weight,
    nms,
    soft_nms,
)
from .geometry import Box3D, DetectionSet, Label
from .io import InputError, ValidationError, read_boxes, read_points, write_boxes, write_points
from .metrics import (
    DEFAULT_IOU_THRESHOLDS,
    Difficulty,
    MatchLedger,
    average_precision,
    match_frame,
    mota_motp,
    pr_points,
    split_difficulty,
)
from .pointcloud import (
    DEFAULT_DELTA,
    DEFAULT_RANGE,
    RangeSpec,
    concat_frames,
)
from .tracker import Tracker, TrackerConfig
from .voxelizer import VoxelConfig, voxelize_dynamic, voxelize_hard


def default_config() -> dict:
    """All tunable defaults, one section per module.

    pointcloud.range, voxelizer and tracker hold exactly the fields of
    RangeSpec, VoxelConfig (less its range) and TrackerConfig, so commands
    build those objects straight from a validated config.
    """
    voxelizer = asdict(VoxelConfig())
    del voxelizer["range"]
    return {
        "pointcloud": {
            "range": asdict(DEFAULT_RANGE),
            "delta": DEFAULT_DELTA,
        },
        "voxelizer": voxelizer,
        "assigner": {
            "k": DEFAULT_K,
            "pos_thr": DEFAULT_POS_THR,
            "neg_thr": DEFAULT_NEG_THR,
        },
        "ensemble": {
            "nms_iou": dict(DEFAULT_NMS_IOU),
            "vote_iou": DEFAULT_VOTE_IOU,
            "soft_nms_sigma": DEFAULT_SOFT_NMS_SIGMA,
            "soft_nms_score_floor": DEFAULT_SOFT_NMS_FLOOR,
            "weight_grid": [round(0.1 * i, 1) for i in range(1, 11)],
            "stop_delta": DEFAULT_STOP_DELTA,
        },
        "tracker": asdict(TrackerConfig()),
        "metrics": {
            "iou_thr": {label.value: thr for label, thr in DEFAULT_IOU_THRESHOLDS.items()},
            "difficulty": Difficulty.L2.value,
        },
    }


# Override flags: subcommand -> {argparse dest: dotted config path}. A flag
# that is given replaces the config value at its path; a path that names a
# per-class map sets every class of that map.
OVERRIDES: Dict[str, Dict[str, str]] = {
    "concat": {"delta": "pointcloud.delta"},
    "voxelize": {
        "vx": "voxelizer.vx",
        "vy": "voxelizer.vy",
        "vz": "voxelizer.vz",
        "max_points": "voxelizer.max_points_per_voxel",
        "max_voxels": "voxelizer.max_voxels",
    },
    "assign": {
        "k": "assigner.k",
        "pos_thr": "assigner.pos_thr",
        "neg_thr": "assigner.neg_thr",
    },
    "nms": {"iou": "ensemble.nms_iou"},
    "soft-nms": {
        "sigma": "ensemble.soft_nms_sigma",
        "floor": "ensemble.soft_nms_score_floor",
    },
    "vote": {"nms_iou": "ensemble.nms_iou", "vote_iou": "ensemble.vote_iou"},
    "ensemble": {"iou": "ensemble.nms_iou", "grid": "ensemble.weight_grid"},
    "track": {
        "iou_min": "tracker.iou_min",
        "max_age": "tracker.max_age",
        "min_hits": "tracker.min_hits",
    },
    "eval-det": {"iou": "metrics.iou_thr", "level": "metrics.difficulty"},
    "eval-mot": {"iou": "metrics.iou_thr"},
}


def _merge_checked(default, value, path: str):
    """value laid over default, deep-merging objects.

    Raises ValueError naming the dotted key path where value's shape departs
    from default's: an unknown key, or a value of another type. An int
    stands in for a float, never for a bool or the other way round.
    """
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ValueError(f"config {path}: expected an object, got {value!r}")
        merged = dict(default)
        for key, item in value.items():
            key_path = f"{path}.{key}" if path else key
            if key not in default:
                raise ValueError(f"config {key_path}: unknown key")
            merged[key] = _merge_checked(default[key], item, key_path)
        return merged
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ValueError(f"config {path}: expected a list, got {value!r}")
        for i, item in enumerate(value):
            _merge_checked(default[0], item, f"{path}[{i}]")
        return value
    expected = (int, float) if type(default) is float else type(default)
    if isinstance(value, bool) != isinstance(default, bool) or not isinstance(value, expected):
        raise ValueError(f"config {path}: expected {type(default).__name__}, got {value!r}")
    return value


def load_config(path: Optional[str]) -> dict:
    config = default_config()
    if path is None:
        return config
    with open(path, "r", encoding="utf-8") as fh:
        user = json.load(fh)
    if not isinstance(user, dict):
        raise ValueError(f"config {path}: expected a JSON object at top level")
    return _merge_checked(config, user, "")


def _slot(config: dict, path: str) -> Tuple[dict, str]:
    """The dict that holds the value at a dotted config path, and its key."""
    *sections, key = path.split(".")
    for name in sections:
        config = config[name]
    return config, key


def _resolve_config(args: argparse.Namespace) -> dict:
    """The --config file over the defaults, then the command's override flags."""
    config = load_config(getattr(args, "config", None))
    for dest, path in OVERRIDES.get(args.command, {}).items():
        value = getattr(args, dest)
        if value is None:
            continue
        section, key = _slot(config, path)
        if isinstance(section[key], dict):
            section[key] = dict.fromkeys(section[key], value)
        else:
            section[key] = value
    return config


def _float_list(text: str) -> List[float]:
    return [float(item) for item in text.split(",")]


def _filter_class(boxes: Sequence[Box3D], label: Optional[Label]) -> List[Box3D]:
    if label is None:
        return list(boxes)
    return [b for b in boxes if b.label is label]


def _frame_union(first: Dict[str, DetectionSet], second: Dict[str, DetectionSet]) -> List[str]:
    """Frame ids of first, then the ids of second that first lacks, in file order."""
    return list(first) + [fid for fid in second if fid not in first]


def _classwise_nms(boxes: Sequence[Box3D], iou_map: Dict[str, float]) -> List[Box3D]:
    """NMS at each class's threshold; kept boxes in descending (score, index) order.

    nms runs for every class, also one without boxes, so that an out-of-range
    threshold is an error whatever classes a frame holds.
    """
    kept: List[int] = []
    for label in Label:
        idx = [i for i, b in enumerate(boxes) if b.label is label]
        subset = [boxes[i] for i in idx]
        kept.extend(idx[i] for i in nms(subset, iou_map[label.value]))
    kept.sort(key=lambda i: (-boxes[i].score, i))
    return [boxes[i] for i in kept]


def _write_report(lines: Iterable[str], output: Optional[str]) -> None:
    """Write lines to output (standard output if None) one by one, so that
    a generator of lines is never held in memory whole."""
    if output is None:
        sink = contextlib.nullcontext(sys.stdout)
    else:
        sink = open(output, "w", encoding="utf-8", newline="\n")
    with sink as fh:
        fh.writelines(line + "\n" for line in lines)


def cmd_concat(args: argparse.Namespace, config: dict) -> dict:
    current = read_points(args.current, args.channels, frame_id="current")
    previous = read_points(args.previous, args.channels, frame_id="previous")
    merged = concat_frames(current, previous, config["pointcloud"]["delta"])
    write_points(merged, args.output, channels=5)
    return dict(
        points_current=len(current),
        points_previous=len(previous),
        points_out=len(merged),
    )


def cmd_voxelize(args: argparse.Namespace, config: dict) -> dict:
    range_spec = RangeSpec(**config["pointcloud"]["range"])
    vox_config = VoxelConfig(range=range_spec, **config["voxelizer"])
    cloud = read_points(args.points, args.channels)
    grid = (
        voxelize_hard(cloud, vox_config)
        if args.mode == "hard"
        else voxelize_dynamic(cloud, vox_config)
    )
    summary = {
        "mode": grid.mode.value,
        "grid_shape": list(vox_config.grid_shape),
        "num_voxels": grid.num_voxels,
        "stored_points": grid.stored_points,
        "dropped_points": grid.dropped_points,
        "dropped_voxels": grid.dropped_voxels,
    }
    _write_report([json.dumps(summary, indent=2, sort_keys=True)], args.output)
    return dict(
        points_in=len(cloud),
        voxels=grid.num_voxels,
        stored=grid.stored_points,
        dropped_points=grid.dropped_points,
        dropped_voxels=grid.dropped_voxels,
    )


def cmd_assign(args: argparse.Namespace, config: dict) -> dict:
    section = config["assigner"]
    anchors_by_frame = read_boxes(args.anchors)
    gts_by_frame = read_boxes(args.gts)
    label = Label(args.cls) if args.cls else None
    records: List[dict] = []
    anchor_count = 0
    for frame_id, anchor_set in anchors_by_frame.items():
        anchors = _filter_class(anchor_set.boxes, label)
        gt_set = gts_by_frame.get(frame_id)
        gts = _filter_class(gt_set.boxes, label) if gt_set else []
        if not anchors:
            continue
        anchor_count += len(anchors)
        if args.mode == "fixed":
            result = fixed_assign(anchors, gts, section["pos_thr"], section["neg_thr"])
        else:
            result = adaptive_assign(anchors, gts, section["k"])
        for i, (anchor_label, gt_index) in enumerate(
            zip(result.labels, result.gt_indices)
        ):
            record = {"frame_id": frame_id, "anchor_index": i, "label": anchor_label.value}
            if gt_index is not None:
                record["gt_index"] = gt_index
            records.append(record)
        if result.adaptive_thresholds is not None:
            for j, threshold in enumerate(result.adaptive_thresholds):
                records.append(
                    {"frame_id": frame_id, "gt_index": j, "adaptive_threshold": threshold}
                )
    _write_report((json.dumps(r, allow_nan=False) for r in records), args.output)
    return dict(
        frames=len(anchors_by_frame),
        anchors=anchor_count,
    )


def _run_per_frame_filter(
    args: argparse.Namespace,
    transform: Callable[[List[Box3D]], List[Box3D]],
) -> dict:
    """Shared frame loop for nms / soft-nms / vote."""
    frames = read_boxes(args.input)
    label = Label(args.cls) if args.cls else None
    boxes_in = 0
    boxes_out = 0
    outputs: List[DetectionSet] = []
    for frame in frames.values():
        boxes = _filter_class(frame.boxes, label)
        boxes_in += len(boxes)
        kept = transform(boxes)
        boxes_out += len(kept)
        outputs.append(replace(frame, boxes=kept))
    write_boxes(outputs, args.output)
    return dict(
        frames=len(frames),
        boxes_in=boxes_in,
        boxes_out=boxes_out,
    )


def cmd_nms(args: argparse.Namespace, config: dict) -> dict:
    def transform(boxes: List[Box3D]) -> List[Box3D]:
        return _classwise_nms(boxes, config["ensemble"]["nms_iou"])

    return _run_per_frame_filter(args, transform)


def cmd_soft_nms(args: argparse.Namespace, config: dict) -> dict:
    def transform(boxes: List[Box3D]) -> List[Box3D]:
        section = config["ensemble"]
        return soft_nms(
            boxes,
            sigma=section["soft_nms_sigma"],
            score_floor=section["soft_nms_score_floor"],
        )

    return _run_per_frame_filter(args, transform)


def cmd_vote(args: argparse.Namespace, config: dict) -> dict:
    def transform(boxes: List[Box3D]) -> List[Box3D]:
        section = config["ensemble"]
        kept = _classwise_nms(boxes, section["nms_iou"])
        return box_vote(kept, boxes, section["vote_iou"])

    return _run_per_frame_filter(args, transform)


def _class_frames(
    det_frames: Dict[str, DetectionSet], gt_frames: Dict[str, DetectionSet], label: Label
) -> Iterator[Tuple[List[Box3D], List[Box3D]]]:
    """(detections, ground truths) of one class per frame, in
    _frame_union(gt_frames, det_frames) order; a missing frame is empty."""
    for frame_id in _frame_union(gt_frames, det_frames):
        det_set = det_frames.get(frame_id)
        gt_set = gt_frames.get(frame_id)
        yield (
            _filter_class(det_set.boxes, label) if det_set else [],
            _filter_class(gt_set.boxes, label) if gt_set else [],
        )


def _class_ledgers(
    det_frames: Dict[str, DetectionSet],
    gt_frames: Dict[str, DetectionSet],
    label: Label,
    iou_thr: float,
    level: Difficulty,
) -> Tuple[List[MatchLedger], int, int]:
    """Match one class frame by frame, ground truth cut to the difficulty
    level; returns (ledgers, gt_count, det_count)."""
    ledgers: List[MatchLedger] = []
    gt_count = 0
    det_count = 0
    for dets, gts in _class_frames(det_frames, gt_frames, label):
        gts = split_difficulty(gts, level)
        det_count += len(dets)
        gt_count += len(gts)
        ledgers.append(match_frame(dets, gts, iou_thr))
    return ledgers, gt_count, det_count


def cmd_ensemble(args: argparse.Namespace, config: dict) -> dict:
    section = config["ensemble"]
    if len(args.inputs) < 2:
        raise ValueError("ensemble needs at least two --inputs files")
    if not args.cls:
        raise ValueError("ensemble requires --class to score the merge")
    label = Label(args.cls)
    iou_thr = section["nms_iou"][label.value]
    stop_delta = section["stop_delta"]
    metric_iou = config["metrics"]["iou_thr"][label.value]
    level = Difficulty(config["metrics"]["difficulty"])
    gt_frames = read_boxes(args.gt)

    detectors: List[Dict[str, DetectionSet]] = []
    for source_id, path in enumerate(args.inputs):
        frames = read_boxes(path)
        for frame in frames.values():
            frame.source_id = source_id
        detectors.append(frames)

    def score(frames: Dict[str, DetectionSet]) -> float:
        ledgers, gt_count, _ = _class_ledgers(frames, gt_frames, label, metric_iou, level)
        ap, _ = average_precision(ledgers, gt_count)
        return ap

    def merge_frames(
        fixed: Dict[str, DetectionSet], cand: Dict[str, DetectionSet], weight: float
    ) -> Dict[str, DetectionSet]:
        merged: Dict[str, DetectionSet] = {}
        for fid in _frame_union(fixed, cand):
            a = fixed.get(fid)
            b = cand.get(fid)
            if a is None:
                a = DetectionSet(fid, [], 0, b.timestamp)
            if b is None:
                b = DetectionSet(fid, [], 0, a.timestamp)
            merged[fid] = ensemble_pair(a, b, 1.0, weight, iou_thr)
        return merged

    current = detectors[0]
    current_score = score(current)
    steps = [f"detector_0 score={current_score!r}"]
    for index, candidate in enumerate(detectors[1:], start=1):
        best_weight, best_score = grid_search_weight(
            section["weight_grid"], partial(merge_frames, current, candidate), score
        )
        if best_score - current_score < stop_delta:
            steps.append(
                f"detector_{index} skipped (best gain "
                f"{best_score - current_score!r} < {stop_delta!r})"
            )
            break
        current = merge_frames(current, candidate, best_weight)
        current_score = best_score
        steps.append(f"detector_{index} weight={best_weight!r} score={best_score!r}")

    write_boxes(current, args.output)
    for step in steps:
        print(step)
    return dict(
        detectors=len(detectors),
        frames=len(current),
        boxes_out=sum(len(s) for s in current.values()),
        score=repr(current_score),
    )


def cmd_track(args: argparse.Namespace, config: dict) -> dict:
    frames = read_boxes(args.input)
    label = Label(args.cls) if args.cls else None
    tracker = Tracker(TrackerConfig(**config["tracker"]))
    outputs: List[DetectionSet] = []
    reported = 0
    for frame in frames.values():
        try:
            boxes = tracker.step(replace(frame, boxes=_filter_class(frame.boxes, label)))
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        reported += len(boxes)
        outputs.append(replace(frame, boxes=boxes))
    write_boxes(outputs, args.output)
    return dict(
        frames=len(frames),
        tracks=tracker.tracks_created,
        reported=reported,
    )


def _labels_for(args: argparse.Namespace, gt_frames: Dict[str, DetectionSet]) -> List[Label]:
    if args.cls:
        return [Label(args.cls)]
    present = {b.label for frame in gt_frames.values() for b in frame.boxes}
    return [label for label in Label if label in present]


def cmd_eval_det(args: argparse.Namespace, config: dict) -> dict:
    iou_map = config["metrics"]["iou_thr"]
    level = Difficulty(config["metrics"]["difficulty"])
    det_frames = read_boxes(args.detections)
    gt_frames = read_boxes(args.gt)
    labels = _labels_for(args, gt_frames)
    lines: List[str] = []
    csv_lines = ["class,recall,precision,heading_precision"]
    ap_values = []
    aph_values = []
    for label in labels:
        ledgers, gt_count, det_count = _class_ledgers(
            det_frames, gt_frames, label, iou_map[label.value], level
        )
        ap, aph = average_precision(ledgers, gt_count)
        ap_values.append(ap)
        aph_values.append(aph)
        lines.append(f"{label.value}.AP={ap!r}")
        lines.append(f"{label.value}.APH={aph!r}")
        lines.append(f"{label.value}.gt_count={gt_count}")
        lines.append(f"{label.value}.det_count={det_count}")
        for point in pr_points(ledgers, gt_count):
            csv_lines.append(
                f"{label.value},{point.recall!r},{point.precision!r},"
                f"{point.heading_precision!r}"
            )
    if ap_values:
        lines.append(f"mean.AP={sum(ap_values) / len(ap_values)!r}")
        lines.append(f"mean.APH={sum(aph_values) / len(aph_values)!r}")
    frame_count = len(_frame_union(gt_frames, det_frames))
    lines.append(f"difficulty={level.value}")
    lines.append(f"frames={frame_count}")
    _write_report(lines, args.output)
    if args.pr_csv:
        _write_report(csv_lines, args.pr_csv)
    return dict(
        frames=frame_count,
        classes=len(labels),
    )


def cmd_eval_mot(args: argparse.Namespace, config: dict) -> dict:
    iou_map = config["metrics"]["iou_thr"]
    tracked_frames = read_boxes(args.tracked)
    gt_frames = read_boxes(args.gt)
    labels = _labels_for(args, gt_frames)
    frame_ids = _frame_union(gt_frames, tracked_frames)
    lines: List[str] = []
    for label in labels:
        frames = list(_class_frames(tracked_frames, gt_frames, label))
        tracked_seq = [tracked for tracked, _ in frames]
        gt_seq = [gts for _, gts in frames]
        gt_total = sum(len(gts) for gts in gt_seq)
        try:
            result = mota_motp(tracked_seq, gt_seq, iou_map[label.value])
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        lines.append(f"{label.value}.MOTA={result.mota!r}")
        lines.append(f"{label.value}.MOTP={result.motp!r}")
        lines.append(f"{label.value}.FP={result.fp}")
        lines.append(f"{label.value}.FN={result.fn}")
        lines.append(f"{label.value}.IDS={result.ids}")
        lines.append(f"{label.value}.gt_count={gt_total}")
    lines.append(f"frames={len(frame_ids)}")
    _write_report(lines, args.output)
    return dict(
        frames=len(frame_ids),
        classes=len(labels),
    )


def cmd_default_config(args: argparse.Namespace, config: dict) -> None:
    _write_report([json.dumps(default_config(), indent=2, sort_keys=True)], args.output)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        print(f"ERROR 2: {message}", file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lidarpost", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    defaults = default_config()

    def command(name, func, help_text, output_required=True, shared=("--config", "--class")):
        """A subcommand with --output, the shared flags it names and its
        OVERRIDES flags, each typed like the default it replaces."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--output", required=output_required, help="output path")
        if "--config" in shared:
            p.add_argument("--config", help="JSON config overriding defaults")
        if "--class" in shared:
            p.add_argument(
                "--class",
                dest="cls",
                choices=[label.value for label in Label],
                help="restrict processing to one class",
            )
        for dest, path in OVERRIDES.get(name, {}).items():
            section, key = _slot(defaults, path)
            value = section[key]
            flag_help = f"sets config {path}"
            if isinstance(value, dict):
                value = next(iter(value.values()))
                flag_help += " for every class"
            if isinstance(value, list):
                kind = _float_list
                flag_help += " (comma-separated)"
            else:
                kind = type(value)
            p.add_argument("--" + dest.replace("_", "-"), type=kind, help=flag_help)
        p.set_defaults(func=func)
        return p

    p = command("concat", cmd_concat, "concatenate two point frames", shared=("--config",))
    p.add_argument("--current", required=True, help="current-frame point file")
    p.add_argument("--previous", required=True, help="previous-frame point file")
    p.add_argument("--channels", type=int, choices=(4, 5), default=4)

    p = command("voxelize", cmd_voxelize, "voxelize a point file", shared=("--config",))
    p.add_argument("--points", required=True, help="input point file")
    p.add_argument("--channels", type=int, choices=(4, 5), default=4)
    p.add_argument("--mode", choices=("hard", "dynamic"), default="dynamic")

    p = command("assign", cmd_assign, "assign anchors to ground truths")
    p.add_argument("--anchors", required=True, help="anchor boxes JSONL")
    p.add_argument("--gts", required=True, help="ground-truth boxes JSONL")
    p.add_argument("--mode", choices=("fixed", "adaptive"), default="adaptive")

    p = command("nms", cmd_nms, "non-maximum suppression")
    p.add_argument("--input", required=True, help="detections JSONL")

    p = command("soft-nms", cmd_soft_nms, "score-decaying suppression")
    p.add_argument("--input", required=True, help="detections JSONL")

    p = command("vote", cmd_vote, "suppress then refine by box voting")
    p.add_argument("--input", required=True, help="detections JSONL")

    p = command("ensemble", cmd_ensemble, "greedy weighted detector merging")
    p.add_argument("--inputs", nargs="+", required=True, help="detector JSONL files")
    p.add_argument("--gt", required=True, help="ground-truth JSONL for scoring")

    p = command("track", cmd_track, "track detections across frames")
    p.add_argument("--input", required=True, help="detections JSONL sorted by frame")

    p = command("eval-det", cmd_eval_det, "detection AP / APH report", output_required=False)
    p.add_argument("--detections", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--pr-csv", help="also write PR curve points as CSV")

    p = command("eval-mot", cmd_eval_mot, "tracking MOTA / MOTP report", output_required=False)
    p.add_argument("--tracked", required=True)
    p.add_argument("--gt", required=True)

    command("default-config", cmd_default_config, "print the default configuration",
            output_required=False, shared=())
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    if getattr(args, "func", None) is None:
        print("ERROR 2: a subcommand is required", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        # A command returns the fields of its one-line run summary, if any.
        summary = args.func(args, _resolve_config(args))
        if summary is not None:
            summary["elapsed_s"] = f"{time.perf_counter() - start:.3f}"
            print(" ".join(f"{key}={value}" for key, value in summary.items()))
        return 0
    except InputError as exc:
        print(f"ERROR 3: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"ERROR 2: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"ERROR 1: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
