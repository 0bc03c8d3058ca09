"""The command chain of each workload and the checks on every output.

A chain is the list of ``lidarpost`` invocations one repetition runs. Each
step names the end-to-end metric its wall time feeds (``concat_s`` ...), the
argv passed to ``lidarpost.cli.run``, and the files it writes. ``Checker``
holds the output checks. They parse the files with the standard library and
NumPy only, never with lidarpost, so a bug in lidarpost's readers cannot
hide a bug in its writers.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

# Defaults of `lidarpost default-config` the checks rely on.
RANGE = ((-75.2, 75.2), (-75.2, 75.2), (-2.0, 4.0))
DELTA = 0.1
MAX_POINTS_PER_VOXEL = 5
MAX_VOXELS = 150000
ANCHOR_LABELS = {"POSITIVE", "NEGATIVE", "IGNORED"}


@dataclass(frozen=True)
class Step:
    metric: str
    argv: List[str]
    outputs: List[str]


def build(workload: str, manifest: dict, out_dir) -> List[Step]:
    """The commands of one repetition, in order, writing into out_dir."""
    f = manifest["files"]
    o = {name: str(Path(out_dir) / name) for name in (
        "merged.bin", "dynamic.json", "hard.json", "nms.jsonl", "soft_nms.jsonl",
        "vote.jsonl", "assign.jsonl", "ensemble.jsonl", "eval_det.txt", "pr.csv")}
    if workload == "sweep":
        merged = o["merged.bin"]
        return [
            Step("concat_s", ["concat", "--current", f["current"], "--previous", f["previous"],
                              "--output", merged], [merged]),
            Step("voxelize_dynamic_s", ["voxelize", "--points", merged, "--channels", "5",
                                        "--mode", "dynamic", "--output", o["dynamic.json"]],
                 [o["dynamic.json"]]),
            Step("voxelize_hard_s", ["voxelize", "--points", merged, "--channels", "5",
                                     "--mode", "hard", "--output", o["hard.json"]],
                 [o["hard.json"]]),
        ]
    if workload == "detect":
        return [
            Step("nms_s", ["nms", "--input", f["det_a"], "--output", o["nms.jsonl"]],
                 [o["nms.jsonl"]]),
            Step("soft_nms_s", ["soft-nms", "--input", f["det_a"], "--output", o["soft_nms.jsonl"]],
                 [o["soft_nms.jsonl"]]),
            Step("vote_s", ["vote", "--input", f["det_a"], "--output", o["vote.jsonl"]],
                 [o["vote.jsonl"]]),
            Step("assign_s", ["assign", "--anchors", f["anchors"], "--gts", f["gt"],
                              "--class", "VEHICLE", "--output", o["assign.jsonl"]],
                 [o["assign.jsonl"]]),
            Step("ensemble_s", ["ensemble", "--inputs", f["det_a"], f["det_b"], "--gt", f["gt"],
                                "--class", "VEHICLE", "--output", o["ensemble.jsonl"]],
                 [o["ensemble.jsonl"]]),
            Step("eval_det_s", ["eval-det", "--detections", o["vote.jsonl"], "--gt", f["gt"],
                                "--output", o["eval_det.txt"], "--pr-csv", o["pr.csv"]],
                 [o["eval_det.txt"], o["pr.csv"]]),
        ]
    if workload == "track":
        steps = []
        for k in range(manifest["segments"]):
            tracks = str(Path(out_dir) / f"tracks_{k}.jsonl")
            report = str(Path(out_dir) / f"eval_mot_{k}.txt")
            steps.append(Step("track_s", ["track", "--input", f[f"dets{k}"], "--output", tracks],
                              [tracks]))
            steps.append(Step("eval_mot_s", ["eval-mot", "--tracked", tracks, "--gt", f[f"gt{k}"],
                                             "--output", report], [report]))
        return steps
    raise ValueError(f"unknown workload {workload!r}")


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digests(step: Step) -> Dict[str, str]:
    """sha256 of each output, keyed by '<metric>:<file name>'."""
    return {f"{step.metric}:{Path(p).name}": sha256(p) for p in step.outputs}


# --- parsing -------------------------------------------------------------

Key = Tuple


def _records(path) -> List[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _geometry(r: dict) -> Key:
    return (r["cx"], r["cy"], r["cz"], r["l"], r["w"], r["h"], r["heading"], r["label"])


def _by_frame(records: List[dict]) -> Dict[str, List[dict]]:
    frames: Dict[str, List[dict]] = defaultdict(list)
    for r in records:
        frames[r["frame_id"]].append(r)
    return frames


def _report(path) -> Dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def _points(path, channels: int) -> np.ndarray:
    return np.fromfile(path, dtype="<f4").reshape(-1, channels)


def _out_of_range(points: np.ndarray) -> int:
    xyz = points[:, :3].astype(np.float64)
    inside = np.ones(len(xyz), dtype=bool)
    for axis, (lo, hi) in enumerate(RANGE):
        inside &= (xyz[:, axis] >= lo) & (xyz[:, axis] <= hi)
    return int((~inside).sum())


class Checker:
    """Seed-independent invariants on each command's output.

    ``check(step, stdout)`` returns a list of problems, empty when the
    output is correct. Parsed inputs are cached in compact form, since the
    same inputs are checked on every repetition.
    """

    def __init__(self, manifest: dict) -> None:
        self.manifest = manifest
        self._cache: Dict[str, object] = {}

    def _input(self, path: str):
        if path not in self._cache:
            self._cache[path] = _by_frame(_records(path))
        return self._cache[path]

    def _detections(self, name: str):
        return self._input(self.manifest["files"][name])

    def check(self, step: Step, stdout: str) -> List[str]:
        return getattr(self, "_" + step.metric[: -len("_s")])(step, stdout)

    # sweep
    def _concat(self, step: Step, stdout: str) -> List[str]:
        files = self.manifest["files"]
        current = _points(files["current"], 4)
        previous = _points(files["previous"], 4)
        merged = _points(step.outputs[0], 5)
        n = len(current)
        if len(merged) != n + len(previous):
            return [f"concat wrote {len(merged)} points, expected {n + len(previous)}"]
        problems = []
        if not (np.array_equal(merged[:n, :4], current) and np.array_equal(merged[n:, :4], previous)):
            problems.append("concat changed point coordinates or order")
        if not ((merged[:n, 4] == 0.0).all() and (merged[n:, 4] == np.float32(DELTA)).all()):
            problems.append("concat time channel is not 0 / delta")
        return problems

    def _voxel_summary(self, step: Step, mode: str) -> Tuple[dict, List[str]]:
        with open(step.outputs[0], "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        if "out_of_range" not in self._cache:
            merged = _points(Path(step.argv[step.argv.index("--points") + 1]), 5)
            self._cache["points_in"] = len(merged)
            self._cache["out_of_range"] = _out_of_range(merged)
        points_in = self._cache["points_in"]
        accounted = summary["stored_points"] + summary["dropped_points"] + self._cache["out_of_range"]
        problems = []
        if summary["mode"] != mode:
            problems.append(f"voxelize mode {summary['mode']!r}, expected {mode!r}")
        if accounted != points_in:
            problems.append(f"stored + dropped + out-of-range = {accounted}, points in = {points_in}")
        if not summary["num_voxels"] <= summary["stored_points"]:
            problems.append("more voxels than stored points")
        return summary, problems

    def _voxelize_dynamic(self, step: Step, stdout: str) -> List[str]:
        summary, problems = self._voxel_summary(step, "DYNAMIC")
        if summary["dropped_points"] or summary["dropped_voxels"]:
            problems.append("dynamic voxelization dropped points")
        return problems

    def _voxelize_hard(self, step: Step, stdout: str) -> List[str]:
        summary, problems = self._voxel_summary(step, "HARD")
        if summary["num_voxels"] > MAX_VOXELS:
            problems.append(f"{summary['num_voxels']} voxels exceed max_voxels")
        if summary["stored_points"] > MAX_POINTS_PER_VOXEL * summary["num_voxels"]:
            problems.append("a voxel stores more than max_points_per_voxel points")
        return problems

    # detect
    def _subset(self, out_path, inputs: List[str], same_score: bool) -> List[str]:
        """Each output box is an input box of its frame; scores never rise."""
        best_score: Dict[Tuple[str, Key], float] = {}
        sizes: Counter = Counter()
        for name in inputs:
            for frame_id, records in self._detections(name).items():
                sizes[frame_id] += len(records)
                for r in records:
                    key = (frame_id, _geometry(r))
                    best_score[key] = max(best_score.get(key, 0.0), r["score"])
        out = _by_frame(_records(out_path))
        for frame_id, records in out.items():
            if len(records) > sizes[frame_id]:
                return [f"frame {frame_id}: {len(records)} boxes out of {sizes[frame_id]} in"]
            for r in records:
                key = (frame_id, _geometry(r))
                if key not in best_score:
                    return [f"frame {frame_id}: output box not among the inputs"]
                if r["score"] > best_score[key] or (same_score and r["score"] != best_score[key]):
                    return [f"frame {frame_id}: score {r['score']!r} not from the input"]
        return []

    def _nms(self, step: Step, stdout: str) -> List[str]:
        return self._subset(step.outputs[0], ["det_a"], same_score=True)

    def _soft_nms(self, step: Step, stdout: str) -> List[str]:
        problems = self._subset(step.outputs[0], ["det_a"], same_score=False)
        for frame_id, records in _by_frame(_records(step.outputs[0])).items():
            scores = [r["score"] for r in records]
            if scores != sorted(scores, reverse=True):
                problems.append(f"frame {frame_id}: soft-nms scores not descending")
        return problems

    def _vote(self, step: Step, stdout: str) -> List[str]:
        inputs = self._detections("det_a")
        kept = {(fid, r["heading"], r["score"], r["label"]) for fid, rs in inputs.items() for r in rs}
        for frame_id, records in _by_frame(_records(step.outputs[0])).items():
            if len(records) > len(inputs.get(frame_id, [])):
                return [f"frame {frame_id}: vote output larger than its input"]
            for r in records:
                if (frame_id, r["heading"], r["score"], r["label"]) not in kept:
                    return [f"frame {frame_id}: voted box keeps no input heading/score"]
        return []

    def _assign(self, step: Step, stdout: str) -> List[str]:
        if "anchor_counts" not in self._cache:
            anchors: Counter = Counter()
            with open(self.manifest["files"]["anchors"], "r", encoding="utf-8") as fh:
                for line in fh:
                    r = json.loads(line)
                    if r["label"] == "VEHICLE":
                        anchors[r["frame_id"]] += 1
            self._cache["anchor_counts"] = anchors
        anchors = self._cache["anchor_counts"]
        gts = {fid: sum(r["label"] == "VEHICLE" for r in rs) for fid, rs in self._detections("gt").items()}
        seen: Dict[str, List[int]] = defaultdict(list)
        thresholds: Counter = Counter()
        for r in _records(step.outputs[0]):
            fid = r["frame_id"]
            if "adaptive_threshold" in r:
                thresholds[fid] += 1
                continue
            if r["label"] not in ANCHOR_LABELS:
                return [f"frame {fid}: unknown anchor label {r['label']!r}"]
            if (r["label"] == "POSITIVE") != ("gt_index" in r):
                return [f"frame {fid}: gt_index must be set exactly on positives"]
            if "gt_index" in r and not 0 <= r["gt_index"] < gts[fid]:
                return [f"frame {fid}: gt_index {r['gt_index']} out of range"]
            seen[fid].append(r["anchor_index"])
        for fid, count in anchors.items():
            if seen[fid] != list(range(count)):
                return [f"frame {fid}: anchors not each labelled once"]
            if thresholds[fid] != gts.get(fid, 0):
                return [f"frame {fid}: {thresholds[fid]} thresholds for {gts.get(fid, 0)} objects"]
        return []

    def _ensemble(self, step: Step, stdout: str) -> List[str]:
        problems = self._subset(step.outputs[0], ["det_a", "det_b"], same_score=False)
        summary = dict(kv.split("=", 1) for kv in stdout.strip().splitlines()[-1].split())
        if not 0.0 <= float(summary["score"]) <= 1.0:
            problems.append(f"ensemble score {summary['score']} outside [0, 1]")
        return problems

    def _eval_det(self, step: Step, stdout: str) -> List[str]:
        report = _report(step.outputs[0])
        problems = []
        for label, expected in self.manifest["gt_per_class"].items():
            ap = float(report[f"{label}.AP"])
            aph = float(report[f"{label}.APH"])
            if not 0.0 <= aph <= ap <= 1.0:
                problems.append(f"{label}: need 0 <= APH <= AP <= 1, got {aph!r}, {ap!r}")
            if int(report[f"{label}.gt_count"]) != expected:
                problems.append(f"{label}: gt_count {report[f'{label}.gt_count']} != {expected}")
        with open(step.outputs[1], "r", encoding="utf-8") as fh:
            if fh.readline().strip() != "class,recall,precision,heading_precision":
                problems.append("PR csv header changed")
        return problems

    # track
    def _track(self, step: Step, stdout: str) -> List[str]:
        dets = self._input(step.argv[step.argv.index("--input") + 1])
        inputs = {fid: {_geometry(r) for r in rs} for fid, rs in dets.items()}
        for frame_id, records in _by_frame(_records(step.outputs[0])).items():
            ids = [r["track_id"] for r in records]
            if len(set(ids)) != len(ids) or min(ids) < 0:
                return [f"frame {frame_id}: track ids not unique and non-negative"]
            if any(_geometry(r) not in inputs.get(frame_id, ()) for r in records):
                return [f"frame {frame_id}: reported box is not a detection of the frame"]
        return []

    def _eval_mot(self, step: Step, stdout: str) -> List[str]:
        report = _report(step.outputs[0])
        problems = []
        for label, expected in self.manifest["gt_per_class"].items():
            mota = float(report[f"{label}.MOTA"])
            if not (mota <= 1.0 and not math.isnan(mota)):
                problems.append(f"{label}: MOTA {mota!r} not <= 1")
            if min(int(report[f"{label}.{k}"]) for k in ("FP", "FN", "IDS")) < 0:
                problems.append(f"{label}: negative FP/FN/IDS")
            if int(report[f"{label}.gt_count"]) != expected:
                problems.append(f"{label}: gt_count {report[f'{label}.gt_count']} != {expected}")
        return problems


def compare_digests(found: Dict[str, str], expected: Optional[Dict[str, str]]) -> List[str]:
    if expected is None:
        return []
    return [f"{key}: sha256 differs from the recorded digest"
            for key, digest in found.items() if expected.get(key) != digest]
