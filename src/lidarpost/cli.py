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
precedence over the config (see OVERRIDES). Every value of the result is
then checked against the range that its config section declares before the
command starts, and one out of range is an argument error too.

The per-frame box filters (nms, soft-nms, vote) share one table, FILTERS,
and one command, cmd_filter. One walk, _merge_checked, checks the --config file
and then each flag at its OVERRIDES path, value by value as it is merged, against
the ranges that Config's sections declare; commands get the typed sections.
Only run() turns an exception into an exit code, and by stage. Until the
config is resolved, before any input is read, a bad argument or a ValueError
or OSError exits 2. Once the command runs, an OSError or argparse.ArgumentError
exits 2, any other ValueError 3 (the inputs are at fault), and the rest 1.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, replace
from functools import reduce
from itertools import chain, repeat
from operator import add, attrgetter, is_, is_not
from types import SimpleNamespace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .assigner import AnchorLabel, AssignerConfig, AssignmentResult, adaptive_assign, fixed_assign
from .ensemble import (
    EnsembleConfig,
    PairPool,
    box_vote,
    ensemble_pair,  # unused here; perfbench's tracer times it by this name
    nms,
    soft_nms,
)
from .geometry import Box3D, DetectionSet, Label, iou3d, score_order
from .io import (BoxColumns, read_box_columns, read_boxes, read_points, write_box_columns,
                 write_boxes, write_points)
from .metrics import (
    Difficulty,
    FrameMatcher,
    MetricsConfig,
    average_precision,
    match_frame,
    mota_motp,
    pr_points,
    split_difficulty,
)
from .pointcloud import PointcloudConfig, RangeSpec, concat_frames
from .schema import Section
from .tracker import Tracker, TrackerConfig
from .voxelizer import VoxelConfig, voxelize_dynamic, voxelize_hard


@dataclass(frozen=True)
class Config(Section):
    """Every setting, one section per module. The voxelizer's grid spans
    pointcloud.range, which its section leaves out."""

    pointcloud: PointcloudConfig = PointcloudConfig()
    voxelizer: VoxelConfig = VoxelConfig()
    assigner: AssignerConfig = AssignerConfig()
    ensemble: EnsembleConfig = EnsembleConfig()
    tracker: TrackerConfig = TrackerConfig()
    metrics: MetricsConfig = MetricsConfig()


_DEFAULTS = Config()
# Parsing this text copies the defaults several times faster than asdict does.
_DEFAULT_TEXT = json.dumps(asdict(_DEFAULTS))


def default_config() -> dict:
    """All tunable defaults, one section per module: the Config defaults as
    JSON values, which a --config file is laid over."""
    config = json.loads(_DEFAULT_TEXT)
    del config["voxelizer"]["range"]
    return config


def _field_rule(section: Section, name: str):
    """The section nested in section at name, or the values its setting name may take."""
    nested = getattr(section, name)
    if isinstance(nested, Section):
        return nested
    return section.__dataclass_fields__[name].metadata["allowed"]


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


def _merge_checked(default, value, path: str, rule):
    """value, at dotted key path, laid over default, deep-merging objects.

    rule is the section whose settings default holds, or the values that the
    setting at path may take, on each entry of a map and element of a list.
    Raises ValueError naming the path where value departs from default's
    shape (an unknown key, another type, an empty list) or where a leaf lies
    outside its rule. An int stands in for a float that can hold it, and is
    kept as an int."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ValueError(f"config {path}: expected an object, got {value!r}")
        merged = dict(default)
        for key, item in value.items():
            key_path = f"{path}.{key}" if path else key
            if key not in default:
                raise ValueError(f"config {key_path}: unknown key")
            key_rule = _field_rule(rule, key) if isinstance(rule, Section) else rule
            merged[key] = _merge_checked(default[key], item, key_path, key_rule)
        return merged
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ValueError(f"config {path}: expected a list, got {value!r}")
        if not value:
            raise ValueError(f"config {path}: must not be empty")
        return [_merge_checked(default[0], item, f"{path}[{i}]", rule)
                for i, item in enumerate(value)]
    expected = (int, float) if type(default) is float else type(default)
    if isinstance(value, bool) != isinstance(default, bool) or not isinstance(value, expected):
        raise ValueError(f"config {path}: expected {type(default).__name__}, got {value!r}")
    if type(default) is float:
        try:
            float(value)
        except OverflowError:  # an integer too large for a float
            raise ValueError(f"config {path}: out of float range") from None
    if value not in rule:
        raise ValueError(f"config {path}: must be in {rule}, got {value!r}")
    return value


def _check_order(config: dict, section: Section, path: str = "") -> None:
    """Raise ValueError naming the first pair of values in config, laid out
    as section, out of the ORDER that their section declares, depth first."""
    for low, high, strict in section.ORDER:
        a, b = config[low], config[high]
        if not (a < b if strict else a <= b):
            sign = "<" if strict else "<="
            raise ValueError(f"config {path}{low}: must be {sign} {path}{high} ({b!r}), got {a!r}")
    for key, value in config.items():
        nested = getattr(section, key)
        if isinstance(nested, Section):
            _check_order(value, nested, f"{path}{key}.")


def _resolve_config(args: argparse.Namespace) -> Config:
    """The --config file over the defaults, then the command's override flags,
    each value checked as it is merged; then the checks across keys."""
    config = default_config()
    if getattr(args, "config", None) is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                user = json.load(fh)
            except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, or nested too deep
                raise ValueError(f"config {args.config}: invalid JSON: {exc}") from None
        if not isinstance(user, dict):
            raise ValueError(f"config {args.config}: expected a JSON object at top level")
        config = _merge_checked(config, user, "", _DEFAULTS)
    for dest, path in OVERRIDES.get(args.command, {}).items():
        value = getattr(args, dest)
        if value is None:
            continue
        *sections, key = path.split(".")
        given = reduce(dict.__getitem__, sections, config)
        section = reduce(getattr, sections, _DEFAULTS)
        # Typed by the default, as the file may have given an int for a float.
        default = getattr(section, key)
        if isinstance(default, dict):
            value = dict.fromkeys(default, value)
        given[key] = _merge_checked(default, value, path, _field_rule(section, key))
    _check_order(config, _DEFAULTS)
    point = config["pointcloud"]
    point_range = RangeSpec(**point["range"])
    return Config(PointcloudConfig(point_range, point["delta"]),
                  VoxelConfig(point_range, **config["voxelizer"]),
                  AssignerConfig(**config["assigner"]), EnsembleConfig(**config["ensemble"]),
                  TrackerConfig(**config["tracker"]), MetricsConfig(**config["metrics"]))


def _float_list(text: str) -> List[float]:
    return [float(item) for item in text.split(",")]


def _label(text: str) -> Label:
    if text not in Label.__members__:  # each Label's name is its value
        raise argparse.ArgumentTypeError(f"{text!r} is not one of {', '.join(Label.__members__)}")
    return Label(text)


def _filter_class(boxes: Sequence[Box3D], label: Optional[Label]) -> List[Box3D]:
    if label is None:
        return list(boxes)
    return [b for b in boxes if b.label is label]


def _aligned(
    first: Dict[str, DetectionSet], second: Dict[str, DetectionSet]
) -> Iterator[Tuple[DetectionSet, DetectionSet]]:
    """(first's frame, second's frame) for each frame id of first, then each
    id of second that first lacks, in file order. The side that lacks a frame
    gets an empty one with the other's id and timestamp."""
    for frame_id in dict.fromkeys([*first, *second]):
        a = first.get(frame_id)
        b = second.get(frame_id)
        if a is None:
            a = DetectionSet(frame_id, [], 0, b.timestamp)
        if b is None:
            b = DetectionSet(frame_id, [], 0, a.timestamp)
        yield a, b


def _write_report(lines: Iterable[str], output: Optional[str]) -> None:
    """Write lines to output (standard output if None) one by one, so that
    a generator of lines is never held in memory whole."""
    if output is None:
        sink = contextlib.nullcontext(sys.stdout)
    else:
        sink = open(output, "w", encoding="utf-8", newline="\n")
    with sink as fh:
        # The line, then its line feed: a line + "\n" would copy a large line once more.
        for line in lines:
            fh.write(line)
            fh.write("\n")


def cmd_concat(args: argparse.Namespace, config: Config) -> dict:
    current = read_points(args.current, args.channels, frame_id="current")
    previous = read_points(args.previous, args.channels, frame_id="previous")
    merged = concat_frames(current, previous, config.pointcloud.delta)
    write_points(merged, args.output, channels=5)
    return dict(
        points_current=len(current),
        points_previous=len(previous),
        points_out=len(merged),
    )


def cmd_voxelize(args: argparse.Namespace, config: Config) -> dict:
    cloud = read_points(args.points, args.channels)
    grid = (
        voxelize_hard(cloud, config.voxelizer)
        if args.mode == "hard"
        else voxelize_dynamic(cloud, config.voxelizer)
    )
    summary = {
        "mode": grid.mode.value,
        "grid_shape": list(config.voxelizer.grid_shape),
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


def cmd_assign(args: argparse.Namespace, config: Config) -> dict:
    section = config.assigner
    anchors_by_frame = read_box_columns(args.anchors)
    gts_by_frame = read_box_columns(args.gts)
    results: List[Tuple[str, AssignmentResult]] = []
    anchor_count = 0
    for frame_id, anchor_columns in anchors_by_frame.items():
        anchors = _class_geometry(anchor_columns, args.cls)
        gt_columns = gts_by_frame.get(frame_id)
        gts = np.empty((0, 7)) if gt_columns is None else _class_geometry(gt_columns, args.cls)
        if not len(anchors):
            continue
        anchor_count += len(anchors)
        if args.mode == "fixed":
            result = fixed_assign(anchors, gts, section.pos_thr, section.neg_thr)
        else:
            result = adaptive_assign(anchors, gts, section.k)
        results.append((frame_id, result))
    _write_report(_assign_lines(results), args.output)
    return dict(
        frames=len(anchors_by_frame),
        anchors=anchor_count,
    )


def _class_geometry(columns: BoxColumns, label: Optional[Label]) -> np.ndarray:
    """The (n, 7) geometry of a frame's boxes of one class, or of all for None."""
    if label is None:
        return columns.geometry
    return columns.geometry[np.fromiter(map(is_, columns.labels, repeat(label)), bool,
                                        len(columns.labels))]


def _assign_lines(results: Iterable[Tuple[str, AssignmentResult]]) -> Iterator[str]:
    """Per frame, one JSON object per anchor, as one block of lines, then
    one per adaptive threshold, each the bytes of ``json.dumps(record)``.
    The anchor lines share a prefix, and a NEGATIVE anchor's end, the most
    common, is one shared string."""
    negative = AnchorLabel.NEGATIVE
    for frame_id, result in results:
        prefix = '{"frame_id": ' + json.dumps(frame_id) + ", "
        ends = [', "label": "NEGATIVE"}'] * len(result.labels)
        for i in np.flatnonzero(list(map(is_not, result.labels, repeat(negative)))).tolist():
            end = f', "label": {json.dumps(result.labels[i].value)}'
            gt_index = result.gt_indices[i]
            ends[i] = end + "}" if gt_index is None else f'{end}, "gt_index": {gt_index}}}'
        start = prefix + '"anchor_index": '
        yield "\n".join([f"{start}{i}{end}" for i, end in enumerate(ends)])
        for j, threshold in enumerate(result.adaptive_thresholds or ()):
            value = json.dumps(threshold, allow_nan=False)
            yield f'{prefix}"gt_index": {j}, "adaptive_threshold": {value}}}'


# The per-frame box filters: command -> (help text, transform of one frame's
# boxes under config.ensemble). The transforms look the library functions up
# by their module names when they run, so replacing cli.nms reaches every call.
FILTERS: Dict[str, Tuple[str, Callable[[List[Box3D], EnsembleConfig], List[Box3D]]]] = {
    "nms": (
        "non-maximum suppression",
        lambda boxes, section: [boxes[i] for i in nms(boxes, section.nms_iou)],
    ),
    "soft-nms": (
        "score-decaying suppression",
        lambda boxes, section: soft_nms(boxes, sigma=section.soft_nms_sigma,
                                        score_floor=section.soft_nms_score_floor),
    ),
    "vote": (
        "suppress then refine by box voting",
        lambda boxes, section: box_vote([boxes[i] for i in nms(boxes, section.nms_iou)],
                                        boxes, section.vote_iou),
    ),
}


def cmd_filter(args: argparse.Namespace, config: Config) -> dict:
    """Run one FILTERS transform on each frame of --input."""
    _, transform = FILTERS[args.command]
    frames = read_boxes(args.input)
    boxes_in = 0
    boxes_out = 0
    outputs: List[DetectionSet] = []
    for frame in frames.values():
        boxes = _filter_class(frame.boxes, args.cls)
        boxes_in += len(boxes)
        kept = transform(boxes, config.ensemble)
        boxes_out += len(kept)
        outputs.append(replace(frame, boxes=kept))
    write_boxes(outputs, args.output)
    return dict(frames=len(frames), boxes_in=boxes_in, boxes_out=boxes_out)


def _class_frames(
    det_frames: Dict[str, DetectionSet],
    gt_frames: Dict[str, DetectionSet],
    label: Label,
    level: Difficulty,
) -> List[Tuple[DetectionSet, List[Box3D]]]:
    """(detections, ground truth of label cut to the difficulty level) per
    frame: the ground truth's frames, then the others, as _aligned pairs
    them. The detections keep every class, so that indices into them hold."""
    return [(det_set, split_difficulty(_filter_class(gt_set.boxes, label), level))
            for gt_set, det_set in _aligned(gt_frames, det_frames)]


_geometry = attrgetter("cx", "cy", "cz", "length", "width", "height", "heading")


def cmd_ensemble(args: argparse.Namespace, config: Config) -> dict:
    section = config.ensemble
    if len(args.inputs) < 2:
        raise argparse.ArgumentError(None, "ensemble needs at least two --inputs files")
    label = args.cls
    if label is None:
        raise argparse.ArgumentError(None, "ensemble requires --class to score the merge")
    iou_thr = section.nms_iou[label.value]
    metric_iou = config.metrics.iou_thr[label.value]
    level = Difficulty(config.metrics.difficulty)
    gt_frames = read_boxes(args.gt)
    # Each box takes its input file's index as source id, set in place: nothing else holds it.
    detectors = [read_boxes(path) for path in args.inputs]
    for k, frames in enumerate(detectors):
        for box in chain.from_iterable(frames.values()):
            box.source_id = k

    # iou3d reads geometry alone, and a merged box keeps its detector box's:
    # each pair of geometries is computed once over all weights and rounds.
    overlaps: Dict[Tuple[tuple, tuple], float] = {}

    def shared_iou3d(det: Box3D, gt: Box3D) -> float:
        key = (_geometry(det), _geometry(gt))
        value = overlaps.get(key)
        if value is None:
            value = overlaps[key] = iou3d(det, gt)
        return value

    def scorer(frames: Dict[str, DetectionSet]) -> Callable[[Dict[str, tuple]], float]:
        """The AP of frames as each frame id's (indices in keep order, score
        by index) ranks its boxes, matched frame by frame as eval-det
        matches; candidates and overlaps are found once for every ranking."""
        matchers = [(ds.frame_id, ds.boxes, FrameMatcher(ds.boxes, gts, metric_iou, shared_iou3d))
                    for ds, gts in _class_frames(frames, gt_frames, label, level)]

        def score(ranked: Dict[str, tuple]) -> float:
            ledgers = []
            for fid, boxes, matcher in matchers:
                order, scores = ranked.get(fid, ((), ()))
                ledgers.append(matcher.match([i for i in order if boxes[i].label is label], scores))
            return average_precision(ledgers, sum(ledger.gt_count for ledger in ledgers))[0]

        return score

    current = detectors[0]
    scores = {fid: [box.score for box in frame.boxes] for fid, frame in current.items()}
    current_score = scorer(current)({fid: (score_order(s), s) for fid, s in scores.items()})
    steps = [f"detector_0 score={current_score!r}"]
    for index, candidate in enumerate(detectors[1:], start=1):
        # One pool and one matcher per frame serve every grid weight; only
        # the best merge's boxes are built.
        pools = {a.frame_id: PairPool(a, b) for a, b in _aligned(current, candidate)}
        score = scorer({fid: pool.pooled for fid, pool in pools.items()})
        best_score = -math.inf
        for weight in section.weight_grid:
            kept = {fid: pool.keep(1.0, weight, iou_thr) for fid, pool in pools.items()}
            # Strictly greater: a tie keeps the earliest weight.
            if (merged_score := score(kept)) > best_score:
                best_weight, best_score, best = weight, merged_score, kept
        if best_score - current_score < section.stop_delta:
            steps.append(f"detector_{index} skipped (best gain "
                         f"{best_score - current_score!r} < {section.stop_delta!r})")
            break
        current = {fid: pool.build(*best[fid]) for fid, pool in pools.items()}
        del pools, score, kept, best
        current_score = best_score
        steps.append(f"detector_{index} weight={float(best_weight)!r} score={best_score!r}")

    write_boxes(current, args.output)
    for step in steps:
        print(step)
    return dict(
        detectors=len(detectors),
        frames=len(current),
        boxes_out=sum(len(s) for s in current.values()),
        score=repr(current_score),
    )


def cmd_track(args: argparse.Namespace, config: Config) -> dict:
    frames = read_box_columns(args.input)
    tracker = Tracker(config.tracker)
    outputs: List[BoxColumns] = []
    for frame in frames.values():
        if args.cls is not None:
            frame = frame.take([j for j, label in enumerate(frame.labels) if label is args.cls])
        outputs.append(tracker.step(frame))
    write_box_columns(outputs, args.output)
    return dict(
        frames=len(frames),
        tracks=tracker.tracks_created,
        reported=sum(len(frame.labels) for frame in outputs),
    )


def _labels_for(args: argparse.Namespace, gt_frames: Dict[str, DetectionSet]) -> List[Label]:
    if args.cls is not None:
        return [args.cls]
    present = {b.label for frame in gt_frames.values() for b in frame.boxes}
    return [label for label in Label if label in present]


def cmd_eval_det(args: argparse.Namespace, config: Config) -> dict:
    level = Difficulty(config.metrics.difficulty)
    det_frames = read_boxes(args.detections)
    gt_frames = read_boxes(args.gt)
    labels = _labels_for(args, gt_frames)
    lines: List[str] = []
    csv_lines = ["class,recall,precision,heading_precision"]
    ap_values = []
    aph_values = []
    for label in labels:
        ledgers = [match_frame(_filter_class(det_set.boxes, label), gts,
                               config.metrics.iou_thr[label.value])
                   for det_set, gts in _class_frames(det_frames, gt_frames, label, level)]
        gt_count = sum(ledger.gt_count for ledger in ledgers)
        det_count = sum(len(ledger.scores) for ledger in ledgers)
        ap, aph = average_precision(ledgers, gt_count)
        ap_values.append(ap)
        aph_values.append(aph)
        lines.append(f"{label.value}.AP={ap!r}")
        lines.append(f"{label.value}.APH={aph!r}")
        lines.append(f"{label.value}.gt_count={gt_count}")
        lines.append(f"{label.value}.det_count={det_count}")
        csv_lines.extend(f"{label.value},{recall!r},{precision!r},{heading!r}"
                         for recall, precision, heading in pr_points(ledgers, gt_count))
    if ap_values:
        # Added to 0.0 left to right: Python 3.12's sum compensates, which
        # can change the last bit.
        lines.append(f"mean.AP={reduce(add, ap_values, 0.0) / len(ap_values)!r}")
        lines.append(f"mean.APH={reduce(add, aph_values, 0.0) / len(aph_values)!r}")
    frame_count = len(gt_frames.keys() | det_frames.keys())
    lines.append(f"difficulty={level.value}")
    lines.append(f"frames={frame_count}")
    _write_report(lines, args.output)
    if args.pr_csv:
        _write_report(csv_lines, args.pr_csv)
    return dict(
        frames=frame_count,
        classes=len(labels),
    )


def cmd_eval_mot(args: argparse.Namespace, config: Config) -> dict:
    tracked_frames = read_boxes(args.tracked)
    gt_frames = read_boxes(args.gt)
    labels = _labels_for(args, gt_frames)
    frames = list(_aligned(gt_frames, tracked_frames))
    lines: List[str] = []
    for label in labels:
        tracked_seq = [_filter_class(tracked.boxes, label) for _, tracked in frames]
        gt_seq = [_filter_class(gt.boxes, label) for gt, _ in frames]
        gt_total = sum(len(gts) for gts in gt_seq)
        result = mota_motp(tracked_seq, gt_seq, config.metrics.iou_thr[label.value])
        lines.append(f"{label.value}.MOTA={result.mota!r}")
        lines.append(f"{label.value}.MOTP={result.motp!r}")
        lines.append(f"{label.value}.FP={result.fp}")
        lines.append(f"{label.value}.FN={result.fn}")
        lines.append(f"{label.value}.IDS={result.ids}")
        lines.append(f"{label.value}.gt_count={gt_total}")
    lines.append(f"frames={len(frames)}")
    _write_report(lines, args.output)
    return dict(
        frames=len(frames),
        classes=len(labels),
    )


def cmd_default_config(args: argparse.Namespace, config: Config) -> None:
    _write_report([json.dumps(default_config(), indent=2, sort_keys=True)], args.output)


def _reads_as_numbers(token: str) -> bool:
    """Whether each comma-separated part of token parses as a float."""
    try:
        for part in token.split(","):
            float(part)
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    """Errors exit 2 with one "ERROR 2:" line. A token that starts with "-"
    is a flag's value when it reads as numbers, such as -1e-05, -inf or
    -0.5,0.5, where argparse's own pattern knows only -1 and -1.5."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = SimpleNamespace(match=_reads_as_numbers)

    def error(self, message: str) -> None:  # type: ignore[override]
        print(f"ERROR 2: {message}", file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    # The docstring's last paragraph is for readers of this module, not of --help.
    parser = _Parser(prog="lidarpost", description=(__doc__ or "").rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

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
                type=_label,
                metavar="{" + ",".join(label.value for label in Label) + "}",
                help="restrict processing to one class",
            )
        for dest, path in OVERRIDES.get(name, {}).items():
            value = attrgetter(path)(_DEFAULTS)
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

    for name, (help_text, _) in FILTERS.items():
        p = command(name, cmd_filter, help_text)
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


_parser = functools.cache(build_parser)  # one per process: parsing leaves a parser as it was


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Execute one CLI invocation; returns the process exit code, which only
    this function chooses, by the stage that failed (see the module docstring)."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # the parser has printed its ERROR 2 line, or --help
        return 0 if exc.code in (0, None) else int(exc.code)
    start = time.perf_counter()
    config = None
    try:
        config = _resolve_config(args)
        # A command returns the fields of its one-line run summary, if any.
        summary = args.func(args, config)
        if summary is not None:
            summary["elapsed_s"] = f"{time.perf_counter() - start:.3f}"
            print(" ".join(f"{key}={value}" for key, value in summary.items()))
        return 0
    except Exception as exc:
        if isinstance(exc, ValueError) and config is not None:
            code = 3
        elif isinstance(exc, (ValueError, OSError, argparse.ArgumentError)):
            code = 2
        else:
            code = 1
        print(f"ERROR {code}: {exc}", file=sys.stderr)
        return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
