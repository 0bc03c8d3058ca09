import argparse
import builtins
import contextlib
import hashlib
import io
import importlib.util
import json
import math
import re
import struct
import sys
import tempfile
import warnings
from dataclasses import fields, replace
from functools import reduce
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarpost import cli, geometry
from lidarpost.assigner import adaptive_assign, fixed_assign
from lidarpost.cli import OVERRIDES, Config, default_config, run
from lidarpost.ensemble import DEFAULT_NMS_IOU, PairPool, box_vote, nms, soft_nms
from lidarpost.geometry import Box3D, DetectionSet, Label, bev_iou, iou3d
from lidarpost.io import read_boxes, read_points, write_boxes
from lidarpost.metrics import (
    DEFAULT_IOU_THRESHOLDS,
    Difficulty,
    FrameMatcher,
    average_precision,
    match_frame,
    mota_motp,
)
from lidarpost.pointcloud import PointCloud, concat_frames
from lidarpost.tracker import associate
from lidarpost.voxelizer import VoxelConfig
from oracles import compensated_sum, reference_ensemble_pair, reference_weight_search

GEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


def _record(frame_id="f0", timestamp=0.0, cx=1.0, cy=2.0, cz=0.5, l=4.0, w=2.0,
            h=1.5, heading=0.1, score=0.9, label="VEHICLE", **extra):
    record = dict(frame_id=frame_id, timestamp=timestamp, cx=cx, cy=cy, cz=cz,
                  l=l, w=w, h=h, heading=heading, score=score, label=label)
    record.update(extra)
    return record


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def _write_points(path, rows, channels=4):
    with open(path, "wb") as fh:
        for row in rows:
            fh.write(struct.pack(f"<{channels}f", *row))


class TestArgumentErrors:
    def test_no_subcommand(self, capsys):
        assert run([]) == 2
        assert capsys.readouterr().err.startswith("ERROR 2:")

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2
        assert capsys.readouterr().err.startswith("ERROR 2:")

    def test_missing_required_flag(self, capsys):
        assert run(["nms"]) == 2
        assert capsys.readouterr().err.startswith("ERROR 2:")

    def test_invalid_class_choice(self, tmp_path, capsys):
        det = tmp_path / "d.jsonl"
        _write_jsonl(det, [_record()])
        code = run(["nms", "--input", str(det), "--output",
                    str(tmp_path / "o.jsonl"), "--class", "BICYCLE"])
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR 2:")

    def test_unknown_class_lists_the_classes(self, tmp_path, capsys):
        det = tmp_path / "d.jsonl"
        _write_jsonl(det, [_record()])
        code = run(["nms", "--input", str(det), "--output",
                    str(tmp_path / "o.jsonl"), "--class", "BICYCLE"])
        assert code == 2
        assert capsys.readouterr().err == (
            "ERROR 2: argument --class: 'BICYCLE' is not one of "
            "VEHICLE, PEDESTRIAN, CYCLIST\n")

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "usage" in capsys.readouterr().out.lower()

    def test_missing_input_file(self, tmp_path, capsys):
        code = run(["nms", "--input", str(tmp_path / "absent.jsonl"),
                    "--output", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR 2:")

    def test_invalid_config_json(self, tmp_path, capsys):
        det = tmp_path / "d.jsonl"
        _write_jsonl(det, [_record()])
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code = run(["nms", "--input", str(det), "--config", str(cfg),
                    "--output", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR 2:")

    def test_config_nested_too_deep_is_exit_2(self, tmp_path, capsys):
        det = tmp_path / "d.jsonl"
        _write_jsonl(det, [_record()])
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[" * 100_000)
        code = run(["nms", "--input", str(det), "--config", str(cfg),
                    "--output", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"ERROR 2: config {cfg}: invalid JSON: maximum recursion depth exceeded")

    @pytest.mark.parametrize("data, reason", [
        (b"", "Expecting value: line 1 column 1 (char 0)"),
        (b'{"tracker": ', "Expecting value: line 1 column 13 (char 12)"),
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b"\xef\xbb\xbf{}", "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 "
                            "(char 0)"),
    ], ids=["empty", "truncated", "not-utf-8", "utf-8-bom"])
    def test_unparsable_config_names_the_file(self, tmp_path, capsys, data, reason):
        det = tmp_path / "d.jsonl"
        _write_jsonl(det, [_record()])
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(data)
        code = run(["nms", "--input", str(det), "--config", str(cfg),
                    "--output", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert capsys.readouterr().err == f"ERROR 2: config {cfg}: invalid JSON: {reason}\n"

    def test_config_must_be_object(self, tmp_path, capsys):
        det = tmp_path / "d.jsonl"
        _write_jsonl(det, [_record()])
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code = run(["nms", "--input", str(det), "--config", str(cfg),
                    "--output", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert "object" in capsys.readouterr().err

    def test_malformed_input_is_exit_3(self, tmp_path, capsys):
        det = tmp_path / "d.jsonl"
        det.write_text(json.dumps(_record()) + "\n{broken\n")
        code = run(["nms", "--input", str(det),
                    "--output", str(tmp_path / "o.jsonl")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("ERROR 3:")
        assert "line 2" in err

    @pytest.mark.parametrize("command", ["nms", "track"])
    @pytest.mark.parametrize("good_lines", [0, 1])
    def test_line_nested_too_deep_is_exit_3(self, tmp_path, capsys, command, good_lines):
        det = tmp_path / "d.jsonl"
        det.write_text((json.dumps(_record()) + "\n") * good_lines + "[" * 100_000 + "\n")
        code = run([command, "--input", str(det), "--output", str(tmp_path / "o.jsonl")])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            f"ERROR 3: line {good_lines + 1}: invalid JSON: maximum recursion depth exceeded")

    @pytest.mark.parametrize("lines, bad_line, byte", [
        ([b"\xff"], 1, "0xff"),
        ([json.dumps(_record()).encode(), b'{"frame_id": "f\xc3"}'], 2, "0xc3"),
    ])
    def test_invalid_utf8_is_exit_3(self, tmp_path, capsys, lines, bad_line, byte):
        det = tmp_path / "d.jsonl"
        det.write_bytes(b"".join(line + b"\n" for line in lines))
        code = run(["nms", "--input", str(det),
                    "--output", str(tmp_path / "o.jsonl")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR 3: line {bad_line}: invalid UTF-8 byte {byte}")

    @pytest.mark.parametrize("key", ["cx", "timestamp"])
    def test_oversized_integer_is_exit_3(self, tmp_path, capsys, key):
        det = tmp_path / "d.jsonl"
        # JSON integers have no size limit; this one has 401 digits.
        _write_jsonl(det, [_record(), _record(**{key: 10**400})])
        code = run(["nms", "--input", str(det),
                    "--output", str(tmp_path / "o.jsonl")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("ERROR 3: line 2:")
        assert repr(key) in err

    @pytest.mark.parametrize("command", ["nms", "track"])
    @pytest.mark.parametrize("timestamp", [math.nan, math.inf, -math.inf])
    def test_non_finite_timestamp_is_exit_3(self, tmp_path, capsys, command, timestamp):
        det = tmp_path / "d.jsonl"
        # json.dumps writes NaN, Infinity and -Infinity, which json.loads accepts.
        _write_jsonl(det, [_record(), _record(timestamp=timestamp)])
        code = run([command, "--input", str(det),
                    "--output", str(tmp_path / "o.jsonl")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("ERROR 3: line 2:")
        assert "'timestamp' must be finite" in err

    @pytest.mark.parametrize("command", ["nms", "track"])
    def test_interleaved_frame_is_exit_3(self, tmp_path, capsys, command):
        det = tmp_path / "d.jsonl"
        _write_jsonl(det, [_record(frame_id="a", timestamp=0.0),
                           _record(frame_id="b", timestamp=0.1),
                           _record(frame_id="a", timestamp=0.2)])
        out = tmp_path / "o.jsonl"
        code = run([command, "--input", str(det), "--output", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("ERROR 3: line 3: frame 'a' appears again after frame 'b'")
        assert not out.exists()


class TestExitCodeByStage:
    """run() picks the exit code by the stage that raised: argument and
    config errors exit 2 before any input is read; once a command runs, an
    OSError or argparse.ArgumentError exits 2, any other ValueError 3 and
    anything else 1."""

    def test_no_subcommand_prints_one_error_line(self, capsys):
        assert run([]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR 2:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("inputs, cls, message", [
        (["a.jsonl"], ["--class", "VEHICLE"], "ensemble needs at least two --inputs files"),
        (["a.jsonl", "b.jsonl"], [], "ensemble requires --class to score the merge"),
    ])
    def test_ensemble_argument_error_reads_no_input(self, tmp_path, capsys, monkeypatch,
                                                    inputs, cls, message):
        def read_boxes(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(cli, "read_boxes", read_boxes)
        code = run(["ensemble", "--inputs", *(str(tmp_path / name) for name in inputs),
                    "--gt", str(tmp_path / "gt.jsonl"), *cls,
                    "--output", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert capsys.readouterr().err == f"ERROR 2: {message}\n"

    @pytest.mark.parametrize("error, code", [
        (ValueError("track_id 3 is not finite"), 3),
        (OSError("disk full"), 2),
        (RuntimeError("a bug"), 1),
    ])
    def test_error_while_a_command_runs(self, tmp_path, capsys, monkeypatch, error, code):
        det = tmp_path / "d.jsonl"
        _write_jsonl(det, [_record()])

        def write_boxes(frames, path):
            raise error

        monkeypatch.setattr(cli, "write_boxes", write_boxes)
        assert run(["track", "--input", str(det), "--output", str(tmp_path / "o.jsonl")]) == code
        captured = capsys.readouterr()
        assert captured.err == f"ERROR {code}: {error}\n"
        assert captured.out == ""


class TestNms:
    def _three_box_file(self, path):
        _write_jsonl(path, [
            _record(cx=0.0, cy=0.0, heading=0.0, score=0.9),
            _record(cx=0.5, cy=0.0, heading=0.0, score=0.8),
            _record(cx=30.0, cy=0.0, heading=0.0, score=0.7),
        ])

    def test_overlap_suppressed(self, tmp_path, capsys):
        det = tmp_path / "d.jsonl"
        self._three_box_file(det)
        out = tmp_path / "o.jsonl"
        assert run(["nms", "--input", str(det), "--output", str(out),
                    "--iou", "0.5"]) == 0
        stdout = capsys.readouterr().out
        assert "boxes_in=3" in stdout
        assert "boxes_out=2" in stdout
        kept = read_boxes(out)["f0"].boxes
        assert [b.cx for b in kept] == [0.0, 30.0]
        assert [b.score for b in kept] == [0.9, 0.7]

    def test_class_filter(self, tmp_path):
        det = tmp_path / "d.jsonl"
        _write_jsonl(det, [
            _record(cx=0.0, label="VEHICLE"),
            _record(cx=30.0, label="PEDESTRIAN", l=0.9, w=0.8),
        ])
        out = tmp_path / "o.jsonl"
        assert run(["nms", "--input", str(det), "--output", str(out),
                    "--class", "VEHICLE"]) == 0
        kept = read_boxes(out)["f0"].boxes
        assert len(kept) == 1
        assert kept[0].label.value == "VEHICLE"

    def test_out_of_range_iou_is_exit_2_without_boxes(self, tmp_path, capsys):
        det = tmp_path / "d.jsonl"
        self._three_box_file(det)
        code = run(["nms", "--input", str(det), "--class", "PEDESTRIAN",
                    "--iou", "1.5", "--output", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert "config ensemble.nms_iou.VEHICLE:" in capsys.readouterr().err
        assert not (tmp_path / "o.jsonl").exists()

    def test_per_class_defaults_apply_without_override(self, tmp_path):
        # IoU of the shifted pair is 7/9 ~ 0.778: above the 0.7 vehicle
        # threshold, so the second box goes even with no --iou flag.
        det = tmp_path / "d.jsonl"
        self._three_box_file(det)
        out = tmp_path / "o.jsonl"
        assert run(["nms", "--input", str(det), "--output", str(out)]) == 0
        assert len(read_boxes(out)["f0"].boxes) == 2

    def test_output_bytes_deterministic(self, tmp_path):
        det = tmp_path / "d.jsonl"
        self._three_box_file(det)
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        assert run(["nms", "--input", str(det), "--output", str(out_a)]) == 0
        assert run(["nms", "--input", str(det), "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


    @pytest.mark.parametrize("command", ["nms", "vote"])
    def test_one_nms_call_per_frame_with_every_class_threshold(self, tmp_path, monkeypatch,
                                                               command):
        det = tmp_path / "d.jsonl"
        _write_jsonl(det, [
            _record(frame_id=frame_id, cx=cx, label=label)
            for frame_id in ("f0", "f1")
            for cx, label in ((0.0, "VEHICLE"), (0.5, "VEHICLE"), (0.0, "PEDESTRIAN"),
                              (0.5, "CYCLIST"))
        ])
        calls = []

        def recording_nms(boxes, iou_thr):
            calls.append((len(boxes), iou_thr))
            return nms(boxes, iou_thr)

        monkeypatch.setattr(cli, "nms", recording_nms)
        assert run([command, "--input", str(det), "--output", str(tmp_path / "o.jsonl")]) == 0
        assert calls == [(4, DEFAULT_NMS_IOU)] * 2


class TestSoftNmsAndVote:
    def test_soft_nms_disjoint_scores_untouched(self, tmp_path):
        det = tmp_path / "d.jsonl"
        _write_jsonl(det, [
            _record(cx=0.0, score=0.9),
            _record(cx=30.0, score=0.8),
        ])
        out = tmp_path / "o.jsonl"
        assert run(["soft-nms", "--input", str(det), "--output", str(out)]) == 0
        assert [b.score for b in read_boxes(out)["f0"].boxes] == [0.9, 0.8]

    def test_soft_nms_decays_overlap(self, tmp_path):
        det = tmp_path / "d.jsonl"
        _write_jsonl(det, [
            _record(cx=0.0, cy=0.0, heading=0.0, score=0.9),
            _record(cx=0.5, cy=0.0, heading=0.0, score=0.8),
        ])
        out = tmp_path / "o.jsonl"
        assert run(["soft-nms", "--input", str(det), "--output", str(out),
                    "--sigma", "0.5"]) == 0
        boxes = read_boxes(out)["f0"].boxes
        assert boxes[0].score == 0.9
        iou = 7.0 / 9.0
        assert boxes[1].score == pytest.approx(
            0.8 * math.exp(-(iou * iou) / 0.5), abs=1e-12
        )

    def test_vote_refines_kept_box(self, tmp_path):
        det = tmp_path / "d.jsonl"
        _write_jsonl(det, [
            _record(cx=0.0, cy=0.0, heading=0.0, score=0.9),
            _record(cx=0.5, cy=0.0, heading=0.0, score=0.8),
        ])
        out = tmp_path / "o.jsonl"
        assert run(["vote", "--input", str(det), "--output", str(out),
                    "--nms-iou", "0.5", "--vote-iou", "0.3"]) == 0
        boxes = read_boxes(out)["f0"].boxes
        assert len(boxes) == 1
        assert boxes[0].cx == pytest.approx(0.25, abs=1e-12)
        assert boxes[0].score == 0.9

    def test_vote_mean_that_overflows_is_exit_3(self, tmp_path, capsys):
        # Each box is valid (at cy 0 the 4e-300 width still has area), but
        # their score-weighted mean center overflows.
        det = tmp_path / "d.jsonl"
        _write_jsonl(det, [_record(cx=1e308, cy=0.0, l=1e300, w=4e-300, heading=0.0)] * 2)
        out = tmp_path / "o.jsonl"
        assert run(["vote", "--input", str(det), "--output", str(out)]) == 3
        assert capsys.readouterr().err.startswith("ERROR 3: cx must be finite, got inf")
        assert not out.exists()

    def test_soft_nms_on_a_nan_overlap_is_not_an_argument_error(self, tmp_path, capsys):
        # Two valid boxes whose BEV overlap comes out NaN and decays the
        # second score to NaN: the inputs are at fault, not the arguments.
        det = tmp_path / "d.jsonl"
        _write_jsonl(det, [
            _record(cx=1e154, cy=3.0, cz=0.0, l=1e155, w=1e154, h=1.0, heading=0.0),
            _record(cx=1.7e308, cy=1.7e308, cz=0.0, l=5e-324, w=1e-300, h=1.0, heading=1.0,
                    score=0.8),
        ])
        out = tmp_path / "o.jsonl"
        code = run(["soft-nms", "--input", str(det), "--output", str(out)])
        assert code in (0, 3), capsys.readouterr().err
        if code == 0:
            read_boxes(out)


class TestConcat:
    def _files(self, tmp_path):
        cur = tmp_path / "cur.bin"
        prev = tmp_path / "prev.bin"
        _write_points(cur, [(1.0, 2.0, 0.5, 0.3), (-4.0, 0.25, 1.0, 0.0)])
        _write_points(prev, [(8.0, -1.0, 0.0, 0.9)])
        return cur, prev

    def test_merges_and_tags_time(self, tmp_path, capsys):
        cur, prev = self._files(tmp_path)
        out = tmp_path / "merged.bin"
        assert run(["concat", "--current", str(cur), "--previous", str(prev),
                    "--output", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "points_current=2" in stdout
        assert "points_previous=1" in stdout
        assert "points_out=3" in stdout
        merged = read_points(out, 5).points
        assert len(merged) == 3
        # t survives a float32 round trip, so compare at that precision.
        assert merged[:, 4].tolist() == pytest.approx([0.0, 0.0, 0.1], abs=1e-7)
        assert merged[2, 0] == pytest.approx(8.0)

    def test_custom_delta(self, tmp_path):
        cur, prev = self._files(tmp_path)
        out = tmp_path / "merged.bin"
        assert run(["concat", "--current", str(cur), "--previous", str(prev),
                    "--delta", "0.25", "--output", str(out)]) == 0
        assert read_points(out, 5).points[2, 4] == pytest.approx(0.25)

    # 1e39 overflows float32 to inf, which read_points rejects; 1e-46 rounds
    # to 0.0 and would tag previous points as current ones.
    @pytest.mark.parametrize("delta", ["1e39", "1e-46"])
    def test_delta_outside_float32_is_exit_2_before_reading(self, tmp_path, capsys,
                                                           monkeypatch, delta):
        cur, prev = self._files(tmp_path)
        out = tmp_path / "merged.bin"

        def no_reading(*args, **kwargs):
            raise AssertionError("read points before checking the config")

        monkeypatch.setattr(cli, "read_points", no_reading)
        code = run(["concat", "--current", str(cur), "--previous", str(prev),
                    "--delta", delta, "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR 2: config pointcloud.delta:")
        assert not out.exists()

    def test_output_bytes_deterministic(self, tmp_path):
        cur, prev = self._files(tmp_path)
        out_a = tmp_path / "a.bin"
        out_b = tmp_path / "b.bin"
        assert run(["concat", "--current", str(cur), "--previous", str(prev),
                    "--output", str(out_a)]) == 0
        assert run(["concat", "--current", str(cur), "--previous", str(prev),
                    "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_truncated_binary_is_exit_3(self, tmp_path, capsys):
        cur = tmp_path / "cur.bin"
        cur.write_bytes(b"\x00" * 30)
        prev = tmp_path / "prev.bin"
        _write_points(prev, [(0.0, 0.0, 0.0, 0.0)])
        code = run(["concat", "--current", str(cur), "--previous", str(prev),
                    "--output", str(tmp_path / "o.bin")])
        assert code == 3
        assert capsys.readouterr().err.startswith("ERROR 3:")


class TestVoxelize:
    def _points_file(self, tmp_path):
        path = tmp_path / "pts.bin"
        _write_points(path, [
            (0.05, 0.05, 0.05, 0.5),
            (0.25, 0.30, 0.10, 0.5),
            (3.60, 0.05, 0.05, 0.5),
        ])
        return path

    def test_dynamic_summary(self, tmp_path, capsys):
        pts = self._points_file(tmp_path)
        out = tmp_path / "summary.json"
        assert run(["voxelize", "--points", str(pts), "--output", str(out),
                    "--vx", "1.0", "--vy", "1.0", "--vz", "1.0"]) == 0
        summary = json.loads(out.read_text())
        assert summary["mode"] == "DYNAMIC"
        assert summary["grid_shape"] == list(
            VoxelConfig(vx=1.0, vy=1.0, vz=1.0).grid_shape
        )
        assert summary["num_voxels"] == 2
        assert summary["stored_points"] == 3
        assert summary["dropped_points"] == 0
        assert summary["dropped_voxels"] == 0
        assert "points_in=3" in capsys.readouterr().out

    def test_hard_mode_with_cap(self, tmp_path):
        pts = self._points_file(tmp_path)
        out = tmp_path / "summary.json"
        assert run(["voxelize", "--points", str(pts), "--output", str(out),
                    "--mode", "hard", "--vx", "1.0", "--vy", "1.0",
                    "--vz", "1.0", "--max-points", "1"]) == 0
        summary = json.loads(out.read_text())
        assert summary["mode"] == "HARD"
        assert summary["stored_points"] == 2
        assert summary["dropped_points"] == 1
        assert summary["dropped_voxels"] == 0

    @pytest.mark.parametrize("edge", ["1e-5", "5e-324"])
    def test_oversized_grid_is_exit_2(self, tmp_path, capsys, edge):
        pts = self._points_file(tmp_path)
        code = run(["voxelize", "--points", str(pts),
                    "--output", str(tmp_path / "summary.json"),
                    "--vx", edge, "--vy", edge, "--vz", edge])
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR 2:")


    def test_oversized_grid_is_exit_2_for_every_command(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"voxelizer": {"vx": 1e-12, "vy": 1e-12, "vz": 1e-12}}))

        def no_reading(path):
            raise AssertionError(f"read {path} before checking the config")

        monkeypatch.setattr(cli, "read_boxes", no_reading)
        code = run(["nms", "--input", str(tmp_path / "d.jsonl"), "--config", str(cfg),
                    "--output", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert capsys.readouterr().err == (
            "ERROR 2: vx=1e-12 makes a grid dimension exceed 32-bit signed range\n")


class TestAssign:
    def _files(self, tmp_path):
        anchors = tmp_path / "anchors.jsonl"
        gts = tmp_path / "gts.jsonl"
        _write_jsonl(anchors, [
            _record(cx=0.0, cy=0.0, heading=0.0, score=0.5),
            _record(cx=2.0, cy=0.0, heading=0.0, score=0.5),
            _record(cx=30.0, cy=0.0, heading=0.0, score=0.5),
        ])
        _write_jsonl(gts, [_record(cx=0.0, cy=0.0, heading=0.0, score=1.0)])
        return anchors, gts

    def test_adaptive_records(self, tmp_path):
        anchors, gts = self._files(tmp_path)
        out = tmp_path / "assign.jsonl"
        assert run(["assign", "--anchors", str(anchors), "--gts", str(gts),
                    "--mode", "adaptive", "--k", "3",
                    "--output", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        anchor_records = [r for r in records if "anchor_index" in r]
        threshold_records = [r for r in records if "adaptive_threshold" in r]
        assert len(anchor_records) == 3
        assert len(threshold_records) == 1
        assert anchor_records[0]["label"] == "POSITIVE"
        assert anchor_records[0]["gt_index"] == 0
        assert {r["label"] for r in anchor_records[1:]} == {"NEGATIVE"}

    def test_fixed_records(self, tmp_path):
        anchors, gts = self._files(tmp_path)
        out = tmp_path / "assign.jsonl"
        assert run(["assign", "--anchors", str(anchors), "--gts", str(gts),
                    "--mode", "fixed", "--pos-thr", "0.6",
                    "--neg-thr", "0.45", "--output", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert all("adaptive_threshold" not in r for r in records)
        assert [r["label"] for r in records] == [
            "POSITIVE", "NEGATIVE", "NEGATIVE"
        ]


    @pytest.mark.parametrize("mode", ["adaptive", "fixed"])
    def test_report_bytes_are_json_dumps_of_each_record(self, tmp_path, mode):
        anchors = tmp_path / "anchors.jsonl"
        gts = tmp_path / "gts.jsonl"
        frame_ids = ['a"b', "\\", "\u00e9", "\u2028", "plain"]
        _write_jsonl(anchors, [_record(frame_id=f, cx=x, cy=y, heading=h)
                               for f in frame_ids for x in (0.0, 1.5) for y in (0.0, 2.0)
                               for h in (0.0, 1.5708)])
        # The last frame has no ground truth.
        _write_jsonl(gts, [_record(frame_id=f, cx=0.5, cy=1.0) for f in frame_ids[:-1]])
        out = tmp_path / "assign.jsonl"
        assert run(["assign", "--anchors", str(anchors), "--gts", str(gts), "--mode", mode,
                    "--k", "3", "--output", str(out)]) == 0
        expected = []
        gt_frames = read_boxes(gts)
        for frame_id, anchor_set in read_boxes(anchors).items():
            gt_boxes = gt_frames[frame_id].boxes if frame_id in gt_frames else []
            if mode == "fixed":
                result = fixed_assign(anchor_set.boxes, gt_boxes)
            else:
                result = adaptive_assign(anchor_set.boxes, gt_boxes, 3)
            for i, (label, gt_index) in enumerate(zip(result.labels, result.gt_indices)):
                record = {"frame_id": frame_id, "anchor_index": i, "label": label.value}
                if gt_index is not None:
                    record["gt_index"] = gt_index
                expected.append(record)
            for j, threshold in enumerate(result.adaptive_thresholds or ()):
                expected.append({"frame_id": frame_id, "gt_index": j,
                                 "adaptive_threshold": threshold})
        assert any("gt_index" in r and "label" in r for r in expected)
        assert out.read_bytes() == "".join(
            json.dumps(r, allow_nan=False) + "\n" for r in expected).encode()


    @pytest.mark.parametrize("mode", ["adaptive", "fixed"])
    def test_anchors_stay_columns(self, tmp_path, mode):
        """assign builds no box row for an anchor: every Box3D, checked or
        unchecked, is counted, and only the ground truths may have rows."""
        anchors = tmp_path / "anchors.jsonl"
        gts = tmp_path / "gts.jsonl"
        _write_jsonl(anchors, [_record(frame_id=f, cx=1.5 * x, cy=1.5 * y, heading=h,
                                       label="CYCLIST" if x == 2 else "VEHICLE")
                               for f in ("a", "b") for x in range(6) for y in range(6)
                               for h in (0.0, 1.5708)])
        gt_records = [_record(frame_id="a", cx=3.0, cy=3.2), _record(frame_id="b", cx=1.0, cy=6.0)]
        _write_jsonl(gts, gt_records)
        out = tmp_path / "assign.jsonl"
        built = []
        checked = Box3D.__post_init__
        unchecked = lambda cls: built.append(cls) or object.__new__(cls)  # noqa: E731
        with mock.patch.object(geometry, "_new", unchecked), \
                mock.patch.object(Box3D, "__post_init__",
                                  lambda box: built.append(type(box)) or checked(box)):
            assert run(["assign", "--anchors", str(anchors), "--gts", str(gts), "--mode", mode,
                        "--class", "VEHICLE", "--output", str(out)]) == 0
        assert len(built) <= len(gt_records)
        lines = out.read_text().splitlines()
        assert sum('"anchor_index"' in line for line in lines) == 2 * 60


class TestTrack:
    def _detections_file(self, path):
        _write_jsonl(path, [
            _record(frame_id="f0", timestamp=0.0, cx=0.0, cy=0.0, heading=0.0),
            _record(frame_id="f1", timestamp=0.1, cx=0.5, cy=0.0, heading=0.0),
            _record(frame_id="f2", timestamp=0.2, cx=1.0, cy=0.0, heading=0.0),
        ])

    def test_single_object_keeps_one_id(self, tmp_path, capsys):
        det = tmp_path / "d.jsonl"
        self._detections_file(det)
        out = tmp_path / "o.jsonl"
        assert run(["track", "--input", str(det), "--output", str(out),
                    "--min-hits", "1"]) == 0
        stdout = capsys.readouterr().out
        assert "tracks=1" in stdout
        assert "reported=3" in stdout
        frames = read_boxes(out)
        assert list(frames) == ["f0", "f1", "f2"]
        ids = [frame.boxes[0].track_id for frame in frames.values()]
        assert ids == [0, 0, 0]
        assert [frame.boxes[0].cx for frame in frames.values()] == [0.0, 0.5, 1.0]

    def test_output_bytes_deterministic(self, tmp_path):
        det = tmp_path / "d.jsonl"
        self._detections_file(det)
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        assert run(["track", "--input", str(det), "--output", str(out_a),
                    "--min-hits", "1"]) == 0
        assert run(["track", "--input", str(det), "--output", str(out_b),
                    "--min-hits", "1"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_decreasing_timestamps_are_exit_3(self, tmp_path, capsys):
        det = tmp_path / "d.jsonl"
        _write_jsonl(det, [
            _record(frame_id="f0", timestamp=1.0),
            _record(frame_id="f1", timestamp=0.5),
        ])
        code = run(["track", "--input", str(det),
                    "--output", str(tmp_path / "o.jsonl")])
        assert code == 3
        assert capsys.readouterr().err.startswith("ERROR 3:")


class TestEvalDet:
    def _gt_file(self, path):
        _write_jsonl(path, [
            _record(frame_id="f0", cx=0.0, track_id=1),
            _record(frame_id="f0", cx=30.0, track_id=2),
            _record(frame_id="f1", cx=10.0, track_id=1),
        ])

    def test_perfect_detections_score_one(self, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        self._gt_file(gt)
        assert run(["eval-det", "--detections", str(gt), "--gt", str(gt)]) == 0
        out = capsys.readouterr().out
        assert "VEHICLE.AP=1.0" in out
        assert "VEHICLE.APH=1.0" in out
        assert "VEHICLE.gt_count=3" in out
        assert "VEHICLE.det_count=3" in out
        assert "mean.AP=1.0" in out
        assert "difficulty=L2" in out
        assert "frames=2" in out

    def test_report_and_csv_files(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        self._gt_file(gt)
        report = tmp_path / "report.txt"
        csv = tmp_path / "pr.csv"
        assert run(["eval-det", "--detections", str(gt), "--gt", str(gt),
                    "--output", str(report), "--pr-csv", str(csv)]) == 0
        assert "VEHICLE.AP=1.0" in report.read_text()
        csv_lines = csv.read_text().splitlines()
        assert csv_lines[0] == "class,recall,precision,heading_precision"
        assert len(csv_lines) >= 2
        assert csv_lines[1].startswith("VEHICLE,")

    def test_missed_boxes_lower_ap(self, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        self._gt_file(gt)
        det = tmp_path / "det.jsonl"
        _write_jsonl(det, [_record(frame_id="f0", cx=0.0)])
        assert run(["eval-det", "--detections", str(det), "--gt", str(gt)]) == 0
        out = capsys.readouterr().out
        assert f"VEHICLE.AP={1.0 / 3.0!r}" in out


    def test_mean_adds_left_to_right_whatever_the_python(self, tmp_path, capsys, monkeypatch):
        # (0.1 + 0.2 + 0.3) / 3 added left to right, where the compensated
        # built-in sum of Python 3.12 on gives 0.19999999999999998.
        gt = tmp_path / "gt.jsonl"
        _write_jsonl(gt, [_record(cx=10.0 * i, label=label)
                          for i, label in enumerate(("VEHICLE", "PEDESTRIAN", "CYCLIST"))])
        values = iter([0.1, 0.2, 0.3])

        def stub_average_precision(ledgers, gt_count):
            value = next(values)
            return value, value

        monkeypatch.setattr(cli, "average_precision", stub_average_precision)
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        assert run(["eval-det", "--detections", str(gt), "--gt", str(gt)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "mean.AP=0.20000000000000004" in out
        assert "mean.APH=0.20000000000000004" in out


class TestEvalMot:
    def _gt_file(self, path):
        # Axis-aligned boxes keep the self-IoU exactly 1, so MOTP is 0.0.
        _write_jsonl(path, [
            _record(frame_id="f0", timestamp=0.0, cx=0.0, heading=0.0, track_id=7),
            _record(frame_id="f1", timestamp=0.1, cx=0.5, heading=0.0, track_id=7),
            _record(frame_id="f2", timestamp=0.2, cx=1.0, heading=0.0, track_id=7),
        ])

    def test_perfect_tracking(self, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        self._gt_file(gt)
        assert run(["eval-mot", "--tracked", str(gt), "--gt", str(gt)]) == 0
        out = capsys.readouterr().out
        assert "VEHICLE.MOTA=1.0" in out
        assert "VEHICLE.MOTP=0.0" in out
        assert "VEHICLE.FP=0" in out
        assert "VEHICLE.FN=0" in out
        assert "VEHICLE.IDS=0" in out
        assert "VEHICLE.gt_count=3" in out

    def test_dropped_frame_counts_fn(self, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        self._gt_file(gt)
        tracked = tmp_path / "tracked.jsonl"
        _write_jsonl(tracked, [
            _record(frame_id="f0", timestamp=0.0, cx=0.0, track_id=3),
            _record(frame_id="f2", timestamp=0.2, cx=1.0, track_id=3),
        ])
        assert run(["eval-mot", "--tracked", str(tracked), "--gt", str(gt)]) == 0
        out = capsys.readouterr().out
        assert "VEHICLE.FN=1" in out
        assert f"VEHICLE.MOTA={1.0 - 1.0 / 3.0!r}" in out

    def test_missing_track_id_is_exit_3(self, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        self._gt_file(gt)
        tracked = tmp_path / "tracked.jsonl"
        _write_jsonl(tracked, [_record(frame_id="f0", timestamp=0.0, cx=0.0)])
        code = run(["eval-mot", "--tracked", str(tracked), "--gt", str(gt)])
        assert code == 3
        assert capsys.readouterr().err.startswith("ERROR 3:")


def _two_detector_scene(tmp_path, seed, frames=3, objects=5, spacing=12.0):
    """Ground truth and two noisy detectors over a few frames: each detector
    finds each object (spacing apart along x) with probability 0.6 and adds
    two false positives and a pedestrian per frame. Returns the paths (gt,
    det_0, det_1)."""
    rng = np.random.default_rng(seed)
    gt, dets = [], ([], [])
    for f in range(frames):
        frame = dict(frame_id=f"f{f}", timestamp=0.1 * f)
        centers = [(spacing * k + rng.normal(0.0, 1.0), rng.normal(0.0, 1.0))
                   for k in range(objects)]
        gt += [_record(**frame, cx=x, cy=y, heading=0.0) for x, y in centers]
        for det in dets:
            det += [_record(**frame, cx=x + rng.normal(0.0, 0.4),
                            cy=y + rng.normal(0.0, 0.4),
                            heading=float(rng.normal(0.0, 0.1)),
                            score=float(rng.uniform(0.05, 1.0)))
                    for x, y in centers if rng.uniform() < 0.6]
            det += [_record(**frame, cx=float(rng.uniform(-5.0, 60.0)),
                            cy=float(rng.uniform(-5.0, 5.0)),
                            score=float(rng.uniform(0.05, 1.0)))
                    for _ in range(2)]
            det.append(_record(**frame, cx=centers[0][0], cy=centers[0][1], l=0.8, w=0.6,
                               label="PEDESTRIAN", score=float(rng.uniform(0.05, 1.0))))
    paths = [tmp_path / name for name in ("gt.jsonl", "det_0.jsonl", "det_1.jsonl")]
    for path, records in zip(paths, (gt, *dets)):
        _write_jsonl(path, records)
    return paths


@pytest.fixture(scope="module")
def keyed_iou3d(tmp_path_factory):
    """The iou_fn that cmd_ensemble scores its merges with, kept from one run."""
    tmp_path = tmp_path_factory.mktemp("keyed")
    gt, *inputs = _two_detector_scene(tmp_path, 0)
    scorers = set()

    def keeping(dets, gts, iou_thr, iou_fn):
        scorers.add(iou_fn)
        return FrameMatcher(dets, gts, iou_thr, iou_fn)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "FrameMatcher", keeping)
        assert run(["ensemble", "--inputs", *map(str, inputs), "--gt", str(gt),
                    "--class", "VEHICLE", "--output", str(tmp_path / "o.jsonl")]) == 0
    (scorer,) = scorers
    return scorer


_coordinate = st.just(0.0) | st.floats(-1.5, 1.5)
_size = st.floats(1e-300, 1e-3) | st.floats(0.1, 5.0)
_geometry_fields = [_coordinate] * 3 + [_size] * 3 + [st.just(0.0) | st.floats(-math.pi, math.pi)]


@st.composite
def _related_boxes(draw):
    """A box; its twin, of the same geometry with its own score, label and
    ids and with some zero coordinates or heading of the other sign; and a
    box whose geometry differs from the first in one field."""
    geometry = [draw(field) for field in _geometry_fields]
    other = list(geometry)
    changed = draw(st.integers(0, 6))
    other[changed] = draw(_geometry_fields[changed].filter(lambda v: v != geometry[changed]))

    def box(values):
        return Box3D(*values, score=draw(st.floats(0.0, 1.0)), label=draw(st.sampled_from(Label)),
                     track_id=draw(st.none() | st.integers(0, 9)),
                     difficulty=draw(st.sampled_from([None, 1, 2])),
                     num_points=draw(st.none() | st.integers(0, 9)),
                     source_id=draw(st.none() | st.integers(-9, 9)))

    return (box(geometry), box([-v if v == 0.0 and draw(st.booleans()) else v for v in geometry]),
            box(other))


ENSEMBLE_CASES = ["equal scores", "nms_iou 0", "nms_iou 1", "partial frames", "L1",
                  "three detectors", "skip"]


@st.composite
def _ensemble_scene(draw, case):
    """Records of ground truth and two or three detectors, and a config, for
    one of ENSEMBLE_CASES. Objects stand 3 m apart, so a box can overlap
    its neighbours' boxes too. "partial frames" adds a frame that only the
    ground truth has, one that only the second detector has, and leaves
    the first frame out of the first detector."""
    frames = [(f"f{k}", 0.1 * k) for k in range(draw(st.integers(1, 3)))]
    detectors = 3 if case == "three detectors" else draw(st.integers(2, 3))
    # Scores tie across frames often in "partial frames", where the frame order decides ties.
    score = {"equal scores": st.just(0.5), "partial frames": st.sampled_from([0.5, 1.0])}.get(
        case, st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.05, 1.0))
    offset = st.floats(-0.6, 0.6)
    gt, dets = [], [[] for _ in range(detectors)]
    for fid, t in frames:
        objects = [(3.0 * k + draw(offset), draw(offset),
                    draw(st.sampled_from(["VEHICLE", "PEDESTRIAN"])))
                   for k in range(draw(st.integers(0, 5)))]
        gt += [_record(frame_id=fid, timestamp=t, cx=x, cy=y, label=label, heading=0.0,
                       difficulty=draw(st.sampled_from([1, 2]))) for x, y, label in objects]
        for d, records in enumerate(dets):
            if case == "partial frames" and d == 0 and fid == "f0":
                continue
            for x, y, label in objects:
                for _ in range(draw(st.integers(0, 2))):
                    records.append(_record(frame_id=fid, timestamp=t, cx=x + draw(offset),
                                           cy=y + draw(offset), label=label,
                                           heading=draw(st.floats(-0.3, 0.3)), score=draw(score)))
    if case == "partial frames":
        gt += [_record(frame_id="gt only", timestamp=1.0, cx=3.0 * k, heading=0.0)
               for k in range(2)]
        dets[1] += [_record(frame_id="det only", timestamp=2.0, cx=3.0 * k, heading=0.0,
                            score=draw(score)) for k in range(2)]
    grid = draw(st.lists(st.sampled_from([0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=4))
    nms_iou = {"nms_iou 0": 0.0, "nms_iou 1": 1.0}.get(case, draw(st.sampled_from([0.1, 0.5, 0.7])))
    # A gain is at most 1 and at least -1: 2.0 skips the first newcomer, -2.0 none.
    stop_delta = {"skip": 2.0, "three detectors": -2.0}.get(
        case, draw(st.sampled_from([-2.0, 0.001])))
    config = {"ensemble": {"nms_iou": dict.fromkeys(DEFAULT_NMS_IOU, nms_iou),
                           "weight_grid": grid, "stop_delta": stop_delta},
              "metrics": {"difficulty": "L1" if case == "L1"
                          else draw(st.sampled_from(["L1", "L2"]))}}
    return gt, dets, config


class TestEnsemble:
    def _files(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        det_a = tmp_path / "det_a.jsonl"
        det_b = tmp_path / "det_b.jsonl"
        _write_jsonl(gt, [
            _record(cx=0.0, heading=0.0, track_id=1),
            _record(cx=30.0, heading=0.0, track_id=2),
        ])
        _write_jsonl(det_a, [_record(cx=0.0, heading=0.0, score=0.9)])
        _write_jsonl(det_b, [_record(cx=30.0, heading=0.0, score=0.9)])
        return gt, det_a, det_b

    def test_requires_class(self, tmp_path, capsys):
        gt, det_a, det_b = self._files(tmp_path)
        code = run(["ensemble", "--inputs", str(det_a), str(det_b),
                    "--gt", str(gt), "--output", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert "class" in capsys.readouterr().err

    def test_requires_two_inputs(self, tmp_path, capsys):
        gt, det_a, _ = self._files(tmp_path)
        code = run(["ensemble", "--inputs", str(det_a), "--gt", str(gt),
                    "--class", "VEHICLE", "--output", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR 2:")

    def test_complementary_detectors_merge(self, tmp_path, capsys):
        gt, det_a, det_b = self._files(tmp_path)
        out = tmp_path / "merged.jsonl"
        assert run(["ensemble", "--inputs", str(det_a), str(det_b),
                    "--gt", str(gt), "--class", "VEHICLE",
                    "--grid", "0.5,1.0", "--output", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "detector_0 score=0.5" in stdout
        assert "detector_1 weight=0.5 score=1.0" in stdout
        merged = read_boxes(out)["f0"].boxes
        assert sorted(b.cx for b in merged) == [0.0, 30.0]
        by_cx = {b.cx: b for b in merged}
        assert by_cx[0.0].score == 0.9
        assert by_cx[30.0].score == pytest.approx(0.45, abs=1e-12)

    def test_unhelpful_candidate_skipped(self, tmp_path, capsys):
        gt, det_a, _ = self._files(tmp_path)
        full = tmp_path / "full.jsonl"
        _write_jsonl(full, [
            _record(cx=0.0, heading=0.0, score=0.9),
            _record(cx=30.0, heading=0.0, score=0.8),
        ])
        out = tmp_path / "merged.jsonl"
        assert run(["ensemble", "--inputs", str(full), str(det_a),
                    "--gt", str(gt), "--class", "VEHICLE",
                    "--output", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "detector_0 score=1.0" in stdout
        assert "detector_1 skipped" in stdout
        assert len(read_boxes(out)["f0"].boxes) == 2

    def test_merging_stops_at_first_unhelpful_detector(self, tmp_path, capsys):
        # a finds one of three objects, b repeats a, c finds the other two.
        gt = tmp_path / "gt.jsonl"
        _write_jsonl(gt, [_record(cx=x, heading=0.0, track_id=i)
                          for i, x in enumerate((0.0, 30.0, 60.0))])
        det_a = tmp_path / "a.jsonl"
        det_b = tmp_path / "b.jsonl"
        det_c = tmp_path / "c.jsonl"
        _write_jsonl(det_a, [_record(cx=0.0, heading=0.0, score=0.9)])
        _write_jsonl(det_b, [_record(cx=0.0, heading=0.0, score=0.9)])
        _write_jsonl(det_c, [_record(cx=30.0, heading=0.0, score=0.9),
                             _record(cx=60.0, heading=0.0, score=0.9)])
        out = tmp_path / "abc.jsonl"
        assert run(["ensemble", "--inputs", str(det_a), str(det_b), str(det_c),
                    "--gt", str(gt), "--class", "VEHICLE", "--output", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "detector_1 skipped" in stdout
        assert "detector_2" not in stdout
        assert len(read_boxes(out)["f0"].boxes) == 1
        out_ac = tmp_path / "ac.jsonl"
        assert run(["ensemble", "--inputs", str(det_a), str(det_c),
                    "--gt", str(gt), "--class", "VEHICLE", "--output", str(out_ac)]) == 0
        assert len(read_boxes(out_ac)["f0"].boxes) == 3

    def test_every_box_keeps_the_index_of_its_input(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        _write_jsonl(gt, [_record(cx=x, heading=0.0, track_id=i)
                          for i, x in enumerate((0.0, 20.0, 40.0))])
        inputs = []
        for i, x in enumerate((0.0, 20.0, 40.0)):
            path = tmp_path / f"det_{i}.jsonl"
            # An id already in the file is replaced by the file's index.
            _write_jsonl(path, [_record(cx=x, heading=0.0, source_id=9)])
            inputs.append(str(path))
        out = tmp_path / "merged.jsonl"
        assert run(["ensemble", "--inputs", *inputs, "--gt", str(gt), "--class", "VEHICLE",
                    "--output", str(out)]) == 0
        merged = read_boxes(out)["f0"].boxes
        assert sorted((b.cx, b.source_id) for b in merged) == [(0.0, 0), (20.0, 1), (40.0, 2)]

    def test_step_line_is_the_same_for_a_file_grid_and_a_flag_grid(self, tmp_path, capsys):
        gt, det_a, det_b = self._files(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ensemble": {"weight_grid": [1]}}))
        argv = ["ensemble", "--inputs", str(det_a), str(det_b), "--gt", str(gt),
                "--class", "VEHICLE", "--output", str(tmp_path / "o.jsonl")]
        stdouts = []
        for grid in (["--config", str(cfg)], ["--grid", "1"]):
            assert run(argv + grid) == 0
            stdouts.append(re.sub(r"elapsed_s=\S+", "", capsys.readouterr().out))
        assert "detector_1 weight=1.0 score=1.0" in stdouts[0]
        assert stdouts[0] == stdouts[1]

    def test_empty_weight_grid_is_exit_2(self, tmp_path, capsys):
        gt, det_a, det_b = self._files(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ensemble": {"weight_grid": []}}))
        code = run(["ensemble", "--inputs", str(det_a), str(det_b), "--gt", str(gt),
                    "--class", "VEHICLE", "--config", str(cfg),
                    "--output", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert "grid" in capsys.readouterr().err

    def test_merges_each_frame_once_per_grid_weight(self, tmp_path, monkeypatch, capsys):
        # Each of three detectors finds a different one of three objects in
        # every frame, so both candidates are merged.
        frames = [("f0", 0.0), ("f1", 0.1), ("f2", 0.2)]
        xs = (0.0, 30.0, 60.0)
        gt = tmp_path / "gt.jsonl"
        _write_jsonl(gt, [_record(frame_id=f, timestamp=t, cx=x, heading=0.0)
                          for f, t in frames for x in xs])
        inputs = []
        for k, x in enumerate(xs):
            path = tmp_path / f"det_{k}.jsonl"
            _write_jsonl(path, [_record(frame_id=f, timestamp=t, cx=x, heading=0.0)
                                for f, t in frames])
            inputs.append(str(path))
        weights = []
        keep = PairPool.keep

        def counting(pool, w_a, w_b, iou_thr):
            weights.append(w_b)
            return keep(pool, w_a, w_b, iou_thr)

        monkeypatch.setattr(PairPool, "keep", counting)
        grid = [0.25, 0.5, 1.0]
        assert run(["ensemble", "--inputs", *inputs, "--gt", str(gt), "--class", "VEHICLE",
                    "--grid", "0.25,0.5,1.0", "--output", str(tmp_path / "o.jsonl")]) == 0
        assert "detector_2 weight=" in capsys.readouterr().out
        assert weights == [w for _ in inputs[1:] for w in grid for _ in frames]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("spacing", [12.0, 3.0])  # at 3 m a box reaches three objects
    # The third detector is another scene's, or the second's boxes with other scores.
    @pytest.mark.parametrize("third", ["other", "rescored"])
    def test_each_ground_truth_overlap_is_computed_once(self, tmp_path, monkeypatch, capsys,
                                                        seed, spacing, third):
        gt, *inputs = _two_detector_scene(tmp_path, seed, spacing=spacing)
        if third == "other":
            (tmp_path / "other").mkdir()
            inputs.append(_two_detector_scene(tmp_path / "other", seed + 10,
                                              spacing=spacing)[1])
        else:
            rng = np.random.default_rng(seed)
            records = [dict(json.loads(line), score=float(rng.uniform(0.05, 1.0)))
                       for line in inputs[1].read_text().splitlines()]
            inputs.append(tmp_path / "rescored.jsonl")
            _write_jsonl(inputs[2], records)
        argv = ["ensemble", "--inputs", *map(str, inputs), "--gt", str(gt), "--class", "VEHICLE",
                "--grid", "0.25,0.5,0.75,1.0"]
        plain, calls = cli.iou3d, []

        def recording(det, gt_box):
            calls.append(tuple((box.cx, box.cy, box.cz, box.length, box.width, box.height,
                                box.heading) for box in (det, gt_box)))
            return plain(det, gt_box)

        monkeypatch.setattr(cli, "iou3d", recording)
        assert run(argv + ["--output", str(tmp_path / "shared.jsonl")]) == 0
        shared_steps = re.sub(r"elapsed_s=\S+", "", capsys.readouterr().out)
        shared = list(calls)
        assert shared and len(set(shared)) == len(shared)

        # The reference search scores every merge afresh with match_frame
        # and the recording iou3d itself, so it computes pairs again: the
        # same pairs, the same output and the same steps.
        config = default_config()
        config["ensemble"]["weight_grid"] = [0.25, 0.5, 0.75, 1.0]
        calls.clear()
        merged, steps = reference_weight_search([read_boxes(path) for path in inputs],
                                                read_boxes(gt), Label.VEHICLE, config, recording)
        assert [line for line in shared_steps.splitlines() if line.startswith("detector_")] == steps
        assert "detector_1 weight=" in shared_steps
        assert len(calls) > len(shared) and set(calls) == set(shared)
        write_boxes(merged, tmp_path / "fresh.jsonl")
        assert (tmp_path / "fresh.jsonl").read_bytes() == (tmp_path / "shared.jsonl").read_bytes()

    def test_the_benchmark_scene_stays_within_800_overlaps(self, tmp_path, monkeypatch, capsys):
        # The benchmark's default detect inputs: 740 distinct pairs of a
        # scored box and a ground truth, where scoring each merge afresh
        # makes 7,570 iou3d calls, and 3,425 distinct ordered pairs that
        # the pools' suppression asks. The 2,402 output boxes are the only
        # copies: the input boxes are stamped with their source ids in place.
        spec = importlib.util.spec_from_file_location("perfbench_gen", GEN_PATH)
        gen = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, gen)  # its dataclasses look it up
        spec.loader.exec_module(gen)
        files = gen.generate("detect", 0, tmp_path)["files"]
        plain, calls = cli.iou3d, []

        def counting(det, gt_box):
            calls.append(None)
            return plain(det, gt_box)

        suppression = []

        def counting_bev(a, b):
            suppression.append(None)
            return bev_iou(a, b)

        plain_with, copies = Box3D._with, []

        def counting_with(box, **changes):
            copies.append(None)
            return plain_with(box, **changes)

        monkeypatch.setattr(cli, "iou3d", counting)
        monkeypatch.setattr(cli, "PairPool", lambda a, b: PairPool(a, b, counting_bev))
        monkeypatch.setattr(Box3D, "_with", counting_with)
        assert run(["ensemble", "--inputs", files["det_a"], files["det_b"], "--gt", files["gt"],
                    "--class", "VEHICLE", "--output", str(tmp_path / "ensemble.jsonl")]) == 0
        assert "detector_1 " in capsys.readouterr().out
        assert 0 < len(calls) <= 740
        assert 0 < len(suppression) <= 3425
        assert 0 < len(copies) <= 2402

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_related_boxes(), _related_boxes()), min_size=1, max_size=4))
    def test_the_keyed_scorer_returns_iou3d_bit_for_bit(self, keyed_iou3d, pairs):
        # Boxes whose geometries are equal as values share one key, so the
        # first of them to be scored gives the value for all; a box that
        # differs in one field of its geometry has its own.
        for dets, gts in pairs:
            for det in dets:
                for gt in gts:
                    assert keyed_iou3d(det, gt).hex() == iou3d(det, gt).hex()

    def test_tied_weights_keep_the_first_in_grid_order(self, tmp_path, capsys):
        # The candidate's one box is a true positive at any weight: AP 1.0 throughout.
        gt, det_a, det_b = self._files(tmp_path)
        out = tmp_path / "merged.jsonl"
        assert run(["ensemble", "--inputs", str(det_a), str(det_b), "--gt", str(gt),
                    "--class", "VEHICLE", "--grid", "0.7,0.3,1.0", "--output", str(out)]) == 0
        assert "detector_1 weight=0.7 score=1.0" in capsys.readouterr().out
        assert {b.cx: b.score for b in read_boxes(out)["f0"].boxes} == {0.0: 0.9, 30.0: 0.9 * 0.7}

    @pytest.mark.parametrize("seed", range(4))
    def test_weight_and_output_are_the_earliest_argmax_over_the_grid(self, tmp_path, capsys,
                                                                     seed):
        gt, *inputs = _two_detector_scene(tmp_path, seed)
        out = tmp_path / "merged.jsonl"
        assert run(["ensemble", "--inputs", *map(str, inputs), "--gt", str(gt),
                    "--class", "VEHICLE", "--output", str(out)]) == 0
        stdout = capsys.readouterr().out

        config = default_config()
        grid = config["ensemble"]["weight_grid"]
        gt_frames = read_boxes(gt)
        a, b = ({fid: replace(ds, boxes=[replace(box, source_id=i) for box in ds.boxes])
                 for fid, ds in read_boxes(path).items()} for i, path in enumerate(inputs))

        def ap(frames):
            ledgers, gt_count = [], 0
            for fid, gt_set in gt_frames.items():
                gts = [box for box in gt_set.boxes if box.label is Label.VEHICLE]
                dets = [box for box in frames[fid].boxes if box.label is Label.VEHICLE]
                ledgers.append(match_frame(dets, gts, DEFAULT_IOU_THRESHOLDS[Label.VEHICLE]))
                gt_count += len(gts)
            return average_precision(ledgers, gt_count)[0]

        merges = [{fid: reference_ensemble_pair(a[fid], b[fid], 1.0, w,
                                                DEFAULT_NMS_IOU["VEHICLE"], bev_iou)
                   for fid in a} for w in grid]
        scores = [ap(merged) for merged in merges]
        assert len(set(scores)) > 1, "a scene whose AP is flat over the grid tests no argmax"
        best = scores.index(max(scores))
        assert scores[best] - ap(a) >= config["ensemble"]["stop_delta"]
        assert f"detector_0 score={ap(a)!r}" in stdout
        assert f"detector_1 weight={float(grid[best])!r} score={scores[best]!r}" in stdout
        write_boxes(merges[best], tmp_path / "want.jsonl")
        assert out.read_bytes() == (tmp_path / "want.jsonl").read_bytes()


    @pytest.mark.parametrize("case", ENSEMBLE_CASES)
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(data=st.data())
    def test_output_and_steps_equal_the_reference_search(self, case, data):
        gt, dets, overrides = data.draw(_ensemble_scene(case))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            paths = [tmp / "gt.jsonl", *(tmp / f"det_{k}.jsonl" for k in range(len(dets)))]
            for path, records in zip(paths, [gt, *dets]):
                _write_jsonl(path, records)
            (tmp / "config.json").write_text(json.dumps(overrides))
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert run(["ensemble", "--inputs", *map(str, paths[1:]), "--gt", str(paths[0]),
                            "--class", "VEHICLE", "--config", str(tmp / "config.json"),
                            "--output", str(tmp / "got.jsonl")]) == 0
            config = default_config()
            for name, section in overrides.items():
                config[name].update(section)
            merged, steps = reference_weight_search([read_boxes(path) for path in paths[1:]],
                                                    read_boxes(paths[0]), Label.VEHICLE, config)
            write_boxes(merged, tmp / "want.jsonl")
            assert [line for line in stdout.getvalue().splitlines()
                    if line.startswith("detector_")] == steps
            assert (tmp / "got.jsonl").read_bytes() == (tmp / "want.jsonl").read_bytes()
        if case == "skip":
            assert steps[1].startswith("detector_1 skipped")
        if case == "three detectors":
            assert steps[2].startswith("detector_2 weight=")

class TestDefaultConfig:
    def test_prints_parseable_json(self, capsys):
        assert run(["default-config"]) == 0
        config = json.loads(capsys.readouterr().out)
        assert config == default_config()
        assert config["voxelizer"]["vx"] == 0.1
        assert config["voxelizer"]["vy"] == 0.1
        assert config["voxelizer"]["vz"] == 0.15
        assert config["assigner"]["k"] == 9
        assert config["ensemble"]["nms_iou"]["VEHICLE"] == 0.7
        assert config["metrics"]["iou_thr"]["VEHICLE"] == 0.7
        assert config["tracker"]["max_age"] == 2

    def test_writes_file_deterministically(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert run(["default-config", "--output", str(out_a)]) == 0
        assert run(["default-config", "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert json.loads(out_a.read_text()) == default_config()

    def test_config_file_overrides_defaults(self, tmp_path, capsys):
        det = tmp_path / "d.jsonl"
        _write_jsonl(det, [
            _record(cx=0.0, cy=0.0, heading=0.0, score=0.9),
            _record(cx=0.5, cy=0.0, heading=0.0, score=0.8),
        ])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ensemble": {"nms_iou": {"VEHICLE": 0.9}}}))
        out = tmp_path / "o.jsonl"
        assert run(["nms", "--input", str(det), "--config", str(cfg),
                    "--output", str(out)]) == 0
        # 7/9 < 0.9, so the raised threshold keeps both boxes.
        assert len(read_boxes(out)["f0"].boxes) == 2


class TestConfigValidation:
    @pytest.mark.parametrize("config, key_path", [
        ({"ensemble": {"vote_iou": "x"}}, "ensemble.vote_iou"),
        ({"tracker": {"max_age": 2.5}}, "tracker.max_age"),
        ({"assigner": {"k": True}}, "assigner.k"),
        ({"pointcloud": {"scale_range": [0.95, 1.05]}}, "pointcloud.scale_range"),
        ({"ensemble": {"nms_iou": {"TRUCK": 0.5}}}, "ensemble.nms_iou.TRUCK"),
        ({"ensemble": {"weight_grid": [0.5, "x"]}}, "ensemble.weight_grid[1]"),
        ({"metrics": 0.5}, "metrics"),
    ])
    def test_bad_key_or_type_is_exit_2(self, tmp_path, capsys, config, key_path):
        det = tmp_path / "d.jsonl"
        _write_jsonl(det, [_record()])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = run(["vote", "--input", str(det), "--config", str(cfg),
                    "--output", str(tmp_path / "o.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR 2:")
        assert f"config {key_path}:" in err

    def test_int_stands_in_for_float(self, tmp_path):
        det = tmp_path / "d.jsonl"
        _write_jsonl(det, [_record()])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ensemble": {"vote_iou": 1}}))
        assert run(["vote", "--input", str(det), "--config", str(cfg),
                    "--output", str(tmp_path / "o.jsonl")]) == 0

    @staticmethod
    def _range_argv(tmp_path, command):
        """argv of one command on inputs where no check of the library runs
        into the value: ground truth without cyclists, no anchors."""
        gt = tmp_path / "gt.jsonl"
        _write_jsonl(gt, [_record(cx=0.0, track_id=1)])
        det = tmp_path / "det.jsonl"
        _write_jsonl(det, [_record(cx=0.0, track_id=1)])
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        points = tmp_path / "p.bin"
        _write_points(points, [(1.0, 2.0, 0.5, 0.3)])
        return {
            "eval-det": ["eval-det", "--detections", str(det), "--gt", str(gt)],
            "eval-mot": ["eval-mot", "--tracked", str(det), "--gt", str(gt)],
            "assign": ["assign", "--anchors", str(empty), "--gts", str(gt)],
            "assign-fixed": ["assign", "--anchors", str(empty), "--gts", str(gt),
                             "--mode", "fixed"],
            "ensemble": ["ensemble", "--inputs", str(det), str(det), "--gt", str(gt),
                         "--class", "VEHICLE"],
            "nms": ["nms", "--input", str(det)],
            "track": ["track", "--input", str(det)],
            "voxelize": ["voxelize", "--points", str(points)],
        }[command]

    @pytest.mark.parametrize("command, config, flags, key_path", [
        ("eval-det", {"metrics": {"iou_thr": {"CYCLIST": 5.0}}}, [], "metrics.iou_thr.CYCLIST"),
        ("eval-mot", {"metrics": {"iou_thr": {"CYCLIST": 5.0}}}, [], "metrics.iou_thr.CYCLIST"),
        ("assign", {"assigner": {"k": 0}}, [], "assigner.k"),
        ("assign-fixed", {"assigner": {"neg_thr": 0.7}}, [], "assigner.neg_thr"),
        ("ensemble", {"ensemble": {"weight_grid": [0.5, 7.0]}}, [], "ensemble.weight_grid[1]"),
        ("ensemble", {}, ["--grid", "0.5,7"], "ensemble.weight_grid[1]"),
        ("ensemble", {"ensemble": {"stop_delta": math.nan}}, [], "ensemble.stop_delta"),
        ("nms", {"pointcloud": {"delta": -1.0}}, [], "pointcloud.delta"),
        ("nms", {"pointcloud": {"range": {"z_min": 4.0}}}, [], "pointcloud.range.z_min"),
        ("nms", {"tracker": {"process_noise": math.inf}}, [], "tracker.process_noise"),
        ("nms", {"metrics": {"difficulty": "L3"}}, [], "metrics.difficulty"),
        ("nms", {"ensemble": {"weight_grid": []}}, [], "ensemble.weight_grid"),
    ])
    def test_out_of_range_is_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                     command, config, flags, key_path):
        argv = self._range_argv(tmp_path, command)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"

        def no_reading(path):
            raise AssertionError(f"read {path} before checking the config")

        monkeypatch.setattr(cli, "read_boxes", no_reading)
        code = run(argv + flags + ["--config", str(cfg), "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"ERROR 2: config {key_path}:")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command, config, key_path", [
        ("track", {"tracker": {"process_noise": 10**400}}, "tracker.process_noise"),
        ("voxelize", {"voxelizer": {"vx": 10**400}}, "voxelizer.vx"),
        ("voxelize", {"pointcloud": {"range": {"x_max": 10**400}}}, "pointcloud.range.x_max"),
    ])
    def test_int_beyond_float_range_is_exit_2(self, tmp_path, capsys, command, config,
                                              key_path):
        argv = self._range_argv(tmp_path, command)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = run(argv + ["--config", str(cfg), "--output", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"ERROR 2: config {key_path}: out of float range\n"

    def test_a_grid_that_is_not_a_list_is_exit_2(self, tmp_path, capsys):
        argv = self._range_argv(tmp_path, "ensemble")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ensemble": {"weight_grid": 0.5}}))
        code = run(argv + ["--config", str(cfg), "--output", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "ERROR 2: config ensemble.weight_grid: expected a list, got 0.5\n")

    @pytest.mark.parametrize("config, flags, key_path", [
        ({"ensemble": {"nms_iou": {"VEHICLE": 5.0}}}, ["--iou", "0.5"],
         "ensemble.nms_iou.VEHICLE"),
        ({"ensemble": {"weight_grid": [0.5, 7.0]}}, ["--grid", "0.5"], "ensemble.weight_grid[1]"),
    ])
    def test_bad_file_value_is_exit_2_under_a_good_flag(self, tmp_path, capsys, config, flags,
                                                       key_path):
        argv = self._range_argv(tmp_path, "ensemble")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = run(argv + flags + ["--config", str(cfg), "--output", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"ERROR 2: config {key_path}:")

    @pytest.mark.parametrize("command, config, flags", [
        ("voxelize", {"voxelizer": {"vx": 1}}, ["--vx", "0.5"]),
        ("ensemble", {"ensemble": {"nms_iou": {"VEHICLE": 1}, "weight_grid": [1]}},
         ["--iou", "0.5", "--grid", "0.5"]),
    ])
    def test_float_flag_replaces_an_int_from_the_file(self, tmp_path, command, config, flags):
        argv = self._range_argv(tmp_path, command)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run(argv + flags + ["--config", str(cfg), "--output", str(tmp_path / "out")]) == 0

    def test_ranges_name_every_value_and_pass_the_defaults(self):
        leaves = set()

        def walk(node, path):
            if isinstance(node, dict):
                for key, item in node.items():
                    walk(item, f"{path}.{key}" if path else key)
            elif isinstance(node, list):
                leaves.update(f"{path}[{i}]" for i in range(len(node)))
            else:
                leaves.add(path)

        defaults = default_config()
        walk(defaults, "")
        declared, order = _schema()
        for leaf in leaves:
            governing = [key for key in declared
                         if leaf == key or leaf.startswith((key + ".", key + "["))]
            assert len(governing) == 1, (leaf, governing)
        assert {path for flags in OVERRIDES.values() for path in flags.values()} <= set(
            declared)
        assert {path for pair in order for path in pair[:2]} <= leaves
        assert cli._merge_checked(default_config(), defaults, "", Config()) == defaults

    @pytest.mark.parametrize("config", [
        {"assigner": {"neg_thr": 0.6, "pos_thr": 0.6}},
        {"ensemble": {"weight_grid": [1], "nms_iou": {"VEHICLE": 0}, "stop_delta": -1.0}},
        {"ensemble": {"soft_nms_score_floor": 0.0, "vote_iou": 1.0}},
        {"voxelizer": {"max_voxels": 1}, "tracker": {"iou_min": 0.0}},
    ])
    def test_values_at_the_edges_of_their_ranges_pass(self, tmp_path, config):
        det = tmp_path / "d.jsonl"
        _write_jsonl(det, [_record()])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run(["nms", "--input", str(det), "--config", str(cfg),
                    "--output", str(tmp_path / "o.jsonl")]) == 0

    def test_seed_flag_is_gone(self, tmp_path, capsys):
        det = tmp_path / "d.jsonl"
        _write_jsonl(det, [_record()])
        code = run(["nms", "--input", str(det), "--output",
                    str(tmp_path / "o.jsonl"), "--seed", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR 2:")


def _schema():
    """The settings that the Config sections declare, {dotted path: the
    values it may take}, laid out as default_config() lays them out, and
    their ORDER pairs as (lower path, upper path, strict)."""
    declared, order = {}, []

    def walk(section, config, prefix):
        order.extend((prefix + low, prefix + high, strict)
                     for low, high, strict in getattr(section, "ORDER", ()))
        for f in fields(section):
            if "allowed" in f.metadata:
                declared[prefix + f.name] = f.metadata["allowed"]
            elif f.name in config:
                walk(getattr(section, f.name), config[f.name], f"{prefix}{f.name}.")

    walk(Config(), default_config(), "")
    return declared, order


def _nested(path, value, config=None):
    """config (a new dict if None) with value set at a dotted path."""
    config = {} if config is None else config
    *sections, key = path.split(".")
    node = config
    for name in sections:
        node = node.setdefault(name, {})
    node[key] = value
    return config


def _resolve_file(tmp_path, config):
    """The resolved config of a --config file holding config."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return cli._resolve_config(argparse.Namespace(command="default-config", config=str(cfg)))


# Each config leaf's range, as an out-of-range value's error prints it.
LEAF_RANGES = {
    "pointcloud.range.x_min": "(-inf, inf)",
    "pointcloud.range.x_max": "(-inf, inf)",
    "pointcloud.range.y_min": "(-inf, inf)",
    "pointcloud.range.y_max": "(-inf, inf)",
    "pointcloud.range.z_min": "(-inf, inf)",
    "pointcloud.range.z_max": "(-inf, inf)",
    "pointcloud.delta": "[1.1754943508222875e-38, 3.4028234663852886e+38]",
    "voxelizer.vx": "(0.0, inf)",
    "voxelizer.vy": "(0.0, inf)",
    "voxelizer.vz": "(0.0, inf)",
    "voxelizer.max_points_per_voxel": "[1, inf)",
    "voxelizer.max_voxels": "[1, inf)",
    "assigner.k": "[1, inf)",
    "assigner.pos_thr": "[0.0, 1.0]",
    "assigner.neg_thr": "[0.0, 1.0]",
    "ensemble.nms_iou.VEHICLE": "[0.0, 1.0]",
    "ensemble.nms_iou.PEDESTRIAN": "[0.0, 1.0]",
    "ensemble.nms_iou.CYCLIST": "[0.0, 1.0]",
    "ensemble.vote_iou": "(0.0, 1.0]",
    "ensemble.soft_nms_sigma": "(0.0, inf)",
    "ensemble.soft_nms_score_floor": "[0.0, 1.0)",
    "ensemble.weight_grid": "(0.0, 1.0]",
    "ensemble.stop_delta": "[-inf, inf]",
    "tracker.iou_min": "[0.0, 1.0]",
    "tracker.max_age": "[1, inf)",
    "tracker.min_hits": "[1, inf)",
    "tracker.process_noise": "(0.0, 1e+100]",
    "tracker.measurement_noise": "(0.0, 1e+100]",
    "metrics.iou_thr.VEHICLE": "(0.0, 1.0]",
    "metrics.iou_thr.PEDESTRIAN": "(0.0, 1.0]",
    "metrics.iou_thr.CYCLIST": "(0.0, 1.0]",
    "metrics.difficulty": "('L1', 'L2')",
}
# The pairs of leaves that must be in order: (lower, upper, strict).
ORDERED_LEAVES = [
    ("pointcloud.range.x_min", "pointcloud.range.x_max", True),
    ("pointcloud.range.y_min", "pointcloud.range.y_max", True),
    ("pointcloud.range.z_min", "pointcloud.range.z_max", True),
    ("assigner.neg_thr", "assigner.pos_thr", False),
]


class TestConfigSchema:
    """The config's bytes, ranges and orders, pinned against literal values."""

    def test_default_config_bytes(self, capsys):
        assert run(["default-config"]) == 0
        out = capsys.readouterr().out.encode()
        assert len(out) == 1013
        assert hashlib.sha256(out).hexdigest() == (
            "88913b6168493417172ac29a527a3072cdb45dc082dabd448715556945da4bb2")

    def test_the_schema_declares_each_leaf_range(self):
        declared = {}
        for path, rule in _schema()[0].items():
            default = reduce(dict.__getitem__, path.split("."), default_config())
            keys = [f"{path}.{key}" for key in default] if isinstance(default, dict) else [path]
            declared.update(dict.fromkeys(keys, str(rule)))
        assert list(declared.items()) == list(LEAF_RANGES.items())

    @pytest.mark.parametrize("path", LEAF_RANGES)
    def test_an_out_of_range_value_prints_its_leaf_range(self, tmp_path, path):
        # Every range refuses NaN; each int setting's range starts at 1.
        default = reduce(dict.__getitem__, path.split("."), default_config())
        bad = {str: "L3", int: 0}.get(type(default), math.nan)
        listed = path == "ensemble.weight_grid"
        with pytest.raises(ValueError) as refused:
            _resolve_file(tmp_path, _nested(path, [bad] if listed else bad))
        where = path + "[0]" if listed else path
        assert str(refused.value) == f"config {where}: must be in {LEAF_RANGES[path]}, got {bad!r}"

    def test_the_schema_declares_the_ordered_pairs(self):
        assert _schema()[1] == ORDERED_LEAVES

    @pytest.mark.parametrize("low, high, strict", ORDERED_LEAVES)
    def test_each_ordered_pair_is_checked(self, tmp_path, low, high, strict):
        for value, refused in ((0.5, strict), (math.nextafter(0.5, 1.0), True)):
            config = _nested(high, 0.5, _nested(low, value))
            if not refused:
                _resolve_file(tmp_path, config)
                continue
            with pytest.raises(ValueError) as error:
                _resolve_file(tmp_path, config)
            relation = "<" if strict else "<="
            assert str(error.value) == (
                f"config {low}: must be {relation} {high} (0.5), got {value!r}")


def _config_leaves(node, keys=()):
    """(key tuple, default) of each default_config() value, named by its
    dotted key; a list is one value."""
    if isinstance(node, dict):
        return [leaf for key, item in node.items() for leaf in _config_leaves(item, keys + (key,))]
    return [pytest.param(keys, node, id=".".join(keys))]


# The edges of every declared range, and the values just past them.
EDGE_VALUES = [-math.inf, -1, -1e-300, 0, 1e-300, 0.5, 1, 1 + 2**-52, 7, math.inf, math.nan]


def _edge_values(default):
    if isinstance(default, str):
        return [level.value for level in Difficulty] + ["L3", "l1", ""]
    if isinstance(default, int):
        return [int(v) for v in EDGE_VALUES if math.isfinite(v) and v == int(v)]
    return EDGE_VALUES


def _library_reads(config):
    """Call each library function that reads a config value, with the values
    of config, on inputs where each of them checks the value it gets."""
    boxes = [Box3D(0.0, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0, score=0.9, label=label)
             for label in Label]
    boxes += [Box3D(0.5, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0, score=0.8, label=label)
              for label in Label]
    frame = DetectionSet("f", boxes)
    section = config.ensemble
    for threshold in section.nms_iou.values():
        nms(boxes, threshold)
        for weight in section.weight_grid:
            PairPool(frame, frame).merge(1.0, weight, threshold)
    soft_nms(boxes, section.soft_nms_sigma, section.soft_nms_score_floor)
    box_vote(boxes, boxes, section.vote_iou)
    for threshold in config.metrics.iou_thr.values():
        match_frame(boxes, boxes, threshold)
        mota_motp([], [], threshold)
    assigner = config.assigner
    fixed_assign(boxes, boxes, assigner.pos_thr, assigner.neg_thr)
    adaptive_assign(boxes, boxes, assigner.k)
    cloud = PointCloud([[1.0, 2.0, 0.5, 0.3]])
    concat_frames(cloud, cloud, config.pointcloud.delta)
    # replace builds each section anew, through its checks.
    range_spec = replace(config.pointcloud.range)
    replace(config.voxelizer, range=range_spec)
    replace(config.tracker)
    associate([], [], config.tracker.iou_min)
    Difficulty(config.metrics.difficulty)


class TestTrackerNoiseBound:
    """Either noise may reach 1e100, where a track that coasts for
    thousands of frames still steps without overflow, and no further."""

    def test_noise_at_the_bound_coasts_2000_frames_clean(self, tmp_path, capsys):
        # A vehicle seen once coasts while a pedestrian is seen every frame.
        det = tmp_path / "d.jsonl"
        _write_jsonl(det, [_record(frame_id="f0000", cx=0.0, cy=0.0)] + [
            _record(frame_id=f"f{k:04d}", timestamp=0.1 * k, cx=50.0, cy=50.0,
                    l=0.9, w=0.8, label="PEDESTRIAN")
            for k in range(2000)
        ])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tracker": {
            "process_noise": 1e100, "measurement_noise": 1e100, "max_age": 10**9}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["track", "--input", str(det), "--config", str(cfg),
                        "--output", str(tmp_path / "o.jsonl")])
        assert code == 0, capsys.readouterr().err
        assert "frames=2000 tracks=2 " in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["process_noise", "measurement_noise"])
    def test_next_float_above_the_bound_is_exit_2_before_any_input(self, tmp_path, capsys,
                                                                   key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tracker": {key: math.nextafter(1e100, math.inf)}}))
        code = run(["track", "--input", str(tmp_path / "missing.jsonl"),
                    "--config", str(cfg), "--output", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"ERROR 2: config tracker.{key}:")


class TestNegativeNumberFlags:
    """A flag's value may start with "-" in every form its type reads:
    exponents, inf and comma lists, which argparse alone takes for flags."""

    @pytest.fixture
    def det(self, tmp_path):
        path = tmp_path / "d.jsonl"
        _write_jsonl(path, [_record()])
        return str(path)

    def _error(self, argv, capsys, tmp_path):
        assert run(argv + ["--output", str(tmp_path / "o.jsonl")]) == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--iou-min", "-1e-05"], ["--iou-min=-1e-05"]])
    def test_exponent(self, det, capsys, tmp_path, flag):
        err = self._error(["track", "--input", det] + flag, capsys, tmp_path)
        assert err == "ERROR 2: config tracker.iou_min: must be in [0.0, 1.0], got -1e-05\n"

    def test_negative_infinity(self, det, capsys, tmp_path):
        err = self._error(["nms", "--input", det, "--iou", "-inf"], capsys, tmp_path)
        assert err.startswith("ERROR 2: config ensemble.nms_iou.VEHICLE:")

    def test_comma_list(self, det, capsys, tmp_path):
        err = self._error(["ensemble", "--inputs", det, det, "--gt", det, "--class", "VEHICLE",
                           "--grid", "-0.5,0.5"], capsys, tmp_path)
        assert err.startswith("ERROR 2: config ensemble.weight_grid[0]:")

    def test_a_flag_is_still_not_a_value(self, det, capsys, tmp_path):
        err = self._error(["track", "--input", det, "--iou-min", "--max-age", "3"],
                          capsys, tmp_path)
        assert err == "ERROR 2: argument --iou-min: expected one argument\n"


def _past_each_end(rule, default):
    """Values that rule refuses nearest each of its ends (an open end's
    bound, the next number past a closed finite one), and NaN for a float;
    an int setting takes integers only."""
    if isinstance(rule, tuple):
        return ["L3"]
    is_int = type(default) is int
    values = [] if is_int else [math.nan]
    for bound, is_open, outward in ((rule.low, rule.low_open, -1), (rule.high, rule.high_open, 1)):
        if is_open and not (is_int and math.isinf(bound)):
            values.append(bound)
        elif math.isfinite(bound):
            values.append(bound + outward if is_int else math.nextafter(bound, outward * math.inf))
    return values


class TestRangesAgreeWithTheLibrary:
    """A config's ranges and the library's checks come from one source: the
    settings that the config sections declare. The library functions check
    their own arguments too, for callers without the CLI, and no value that
    the CLI accepts may be one that they refuse. The CLI is deliberately
    stricter only for pointcloud.delta, which must lie in float32's normal
    range, where concat_frames takes any positive finite delta."""

    @pytest.mark.parametrize("path, rule", [pytest.param(path, rule, id=path)
                                            for path, rule in _schema()[0].items()])
    def test_section_and_cli_refuse_past_each_end_naming_one_range(self, tmp_path, path,
                                                                     rule):
        *sections, name = path.split(".")
        section = reduce(getattr, sections, Config())
        default = getattr(section, name)
        key = next(iter(default)) if isinstance(default, dict) else 0
        element = default[key] if isinstance(default, (dict, list)) else default
        for value in _past_each_end(rule, element):
            if isinstance(default, dict):
                key = next(iter(default))
                given, where = {**default, key: value}, f"{path}.{key}"
            elif isinstance(default, list):
                given, where = [value], f"{path}[0]"
            else:
                given, where = value, path
            with pytest.raises(ValueError) as by_cli:
                _resolve_file(tmp_path, _nested(path, given))
            assert str(by_cli.value) == f"config {where}: must be in {rule}, got {value!r}"
            with pytest.raises(ValueError) as by_section:
                replace(section, **{name: given})
            assert str(by_section.value) == f"{name} must lie in {rule}, got {value!r}"

    @pytest.mark.parametrize("keys, default", _config_leaves(default_config()))
    def test_every_accepted_value_is_accepted_by_the_library(self, tmp_path, keys, default):
        accepted = []
        for value in _edge_values(default):
            config = [value] if isinstance(default, list) else value
            for key in reversed(keys):
                config = {key: config}
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            try:
                resolved = cli._resolve_config(
                    argparse.Namespace(command="default-config", config=str(cfg)))
            except ValueError:
                continue
            _library_reads(resolved)
            accepted.append(value)
        assert accepted, "no edge value passes"


class TestFlagsThatDoNothingAreGone:
    """Point commands take no --class, and default-config takes neither
    --class nor --config: each would be accepted and ignored."""

    def _points(self, tmp_path):
        path = tmp_path / "p.bin"
        _write_points(path, [(1.0, 2.0, 0.5, 0.3)])
        return str(path)

    def _assert_rejected(self, argv, capsys):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR 2:")
        assert "unrecognized arguments" in err

    def test_concat_rejects_class(self, tmp_path, capsys):
        points = self._points(tmp_path)
        self._assert_rejected(["concat", "--current", points, "--previous", points,
                               "--output", str(tmp_path / "o.bin"),
                               "--class", "VEHICLE"], capsys)

    def test_voxelize_rejects_class(self, tmp_path, capsys):
        self._assert_rejected(["voxelize", "--points", self._points(tmp_path),
                               "--output", str(tmp_path / "o.json"),
                               "--class", "VEHICLE"], capsys)

    def test_default_config_rejects_class(self, capsys):
        self._assert_rejected(["default-config", "--class", "VEHICLE"], capsys)

    def test_default_config_rejects_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        self._assert_rejected(["default-config", "--config", str(cfg)], capsys)


# One flag value per OVERRIDES row: (text on the command line, JSON value).
OVERRIDE_VALUES = {
    ("concat", "delta"): ("0.25", 0.25),
    ("voxelize", "vx"): ("0.5", 0.5),
    ("voxelize", "vy"): ("0.5", 0.5),
    ("voxelize", "vz"): ("0.5", 0.5),
    ("voxelize", "max_points"): ("1", 1),
    ("voxelize", "max_voxels"): ("1", 1),
    ("assign", "k"): ("2", 2),
    ("assign", "pos_thr"): ("0.5", 0.5),
    ("assign", "neg_thr"): ("0.55", 0.55),
    ("nms", "iou"): ("0.3", 0.3),
    ("soft-nms", "sigma"): ("0.3", 0.3),
    ("soft-nms", "floor"): ("0.5", 0.5),
    ("vote", "nms_iou"): ("0.3", 0.3),
    ("vote", "vote_iou"): ("0.3", 0.3),
    ("ensemble", "iou"): ("0.3", 0.3),
    ("ensemble", "grid"): ("0.5,1.0", [0.5, 1.0]),
    ("track", "iou_min"): ("0.2", 0.2),
    ("track", "max_age"): ("1", 1),
    ("track", "min_hits"): ("1", 1),
    ("eval-det", "iou"): ("0.3", 0.3),
    ("eval-det", "level"): ("L1", "L1"),
    ("eval-mot", "iou"): ("0.3", 0.3),
}


def _override_argv(tmp_path, command, dest):
    """Inputs and argv for one subcommand, without --output.

    The inputs are chosen so that every OVERRIDE_VALUES entry changes the
    output: overlaps of 0.43, 0.54, 0.67 and 0.82 straddle the default
    thresholds, and the track sequence has a 0.15-IoU step and a two-frame gap.
    """
    def boxes(name, records):
        path = tmp_path / name
        _write_jsonl(path, records)
        return str(path)

    dets = boxes("dets.jsonl", [_record(cx=x, heading=0.0, score=s)
                                for x, s in ((0.0, 0.9), (0.8, 0.8), (1.6, 0.7))])
    other = boxes("other.jsonl", [_record(cx=30.0, heading=0.0, score=0.6)])
    gt = boxes("gt.jsonl", [_record(cx=0.0, heading=0.0, track_id=1),
                            _record(cx=30.0, heading=0.0, track_id=2)])
    shifted = boxes("shifted.jsonl", [_record(cx=0.8, heading=0.0, track_id=5)])
    near = boxes("near.jsonl", [_record(cx=1.2, heading=0.0)])
    sequence = boxes("sequence.jsonl", [
        _record(frame_id="f0", timestamp=0.0, cx=0.0, heading=0.0),
        _record(frame_id="f0", timestamp=0.0, cx=50.0, heading=0.0),
        _record(frame_id="f1", timestamp=0.1, cx=2.95, heading=0.0),
        _record(frame_id="f2", timestamp=0.2, cx=2.95, heading=0.0),
        _record(frame_id="f3", timestamp=0.3, cx=2.95, heading=0.0),
        _record(frame_id="f3", timestamp=0.3, cx=50.0, heading=0.0),
    ])
    points = tmp_path / "pts.bin"
    _write_points(points, [(0.05, 0.05, 0.05, 0.5), (0.05, 0.05, 0.05, 0.5),
                           (0.25, 0.3, 0.1, 0.5), (3.6, 0.05, 0.05, 0.5)])
    p = str(points)
    return {
        "concat": ["concat", "--current", p, "--previous", p],
        "voxelize": ["voxelize", "--points", p, "--mode", "hard"],
        "assign": ["assign", "--anchors", dets, "--gts", near, "--mode",
                   "adaptive" if dest == "k" else "fixed"],
        "nms": ["nms", "--input", dets],
        "soft-nms": ["soft-nms", "--input", dets],
        "vote": ["vote", "--input", dets],
        "ensemble": ["ensemble", "--inputs", dets, other, "--gt", gt, "--class", "VEHICLE"],
        "track": ["track", "--input", sequence],
        "eval-det": ["eval-det", "--detections", shifted, "--gt", gt],
        "eval-mot": ["eval-mot", "--tracked", shifted, "--gt", gt],
    }[command]


class TestOverrideTable:
    def test_every_row_has_a_test_value(self):
        rows = {(command, dest) for command, flags in OVERRIDES.items() for dest in flags}
        assert rows == set(OVERRIDE_VALUES)

    def test_every_path_exists_in_default_config(self):
        for flags in OVERRIDES.values():
            for path in flags.values():
                node = default_config()
                for key in path.split("."):
                    assert isinstance(node, dict) and key in node, path
                    node = node[key]

    @pytest.mark.parametrize("command, dest", sorted(OVERRIDE_VALUES))
    def test_flag_matches_config_file(self, tmp_path, command, dest):
        text, value = OVERRIDE_VALUES[(command, dest)]
        argv = _override_argv(tmp_path, command, dest)
        path = OVERRIDES[command][dest].split(".")
        default = default_config()
        for key in path:
            default = default[key]
        if isinstance(default, dict):
            value = dict.fromkeys(default, value)
        config = value
        for key in reversed(path):
            config = {key: config}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        by_flag = tmp_path / "by_flag.out"
        by_config = tmp_path / "by_config.out"
        flag = "--" + dest.replace("_", "-")
        assert run(argv + [flag, text, "--output", str(by_flag)]) == 0
        assert run(argv + ["--config", str(cfg), "--output", str(by_config)]) == 0
        assert by_flag.read_bytes() == by_config.read_bytes()
        # The value is not the default, so a flag that is not read shows.
        by_default = tmp_path / "by_default.out"
        assert run(argv + ["--output", str(by_default)]) == 0
        assert by_flag.read_bytes() != by_default.read_bytes()


def test_a_report_line_is_written_without_a_copy_of_it(tmp_path):
    # assign writes each frame's block as one line of about 1 MB; the line
    # and its line feed are written one after the other, not joined first.
    import tracemalloc

    line = "x" * (1 << 20)
    path = tmp_path / "report.txt"
    tracemalloc.start()
    try:
        cli._write_report(iter(["a", line, "b"]), str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == b"a\n" + line.encode() + b"\nb\n"
    assert peak < 1.5 * len(line), f"peak {peak / len(line):.2f} times the line"
