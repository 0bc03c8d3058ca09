"""Self-tests of the benchmark. Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import chains  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

COUNT_UNITS = {"count"}


def _contents(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _declared(trace: bool) -> list:
    return [m["name"] for m in run.declared_metrics(trace)]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_byte_identical_for_a_seed(tmp_path, workload):
    first = gen.generate(workload, 7, tmp_path / "a")
    second = gen.generate(workload, 7, tmp_path / "b")
    gen.generate(workload, 8, tmp_path / "c")
    assert _contents(tmp_path / "a") == _contents(tmp_path / "b")
    assert _contents(tmp_path / "a") != _contents(tmp_path / "c")
    assert {k: v for k, v in first.items() if k != "files"} == {
        k: v for k, v in second.items() if k != "files"}


def _run_chain(workload: str, tmp_path: Path, capsys):
    from lidarpost import cli

    manifest = gen.generate(workload, 3, tmp_path / "in", gen.TINY)
    (tmp_path / "out").mkdir()
    steps = chains.build(workload, manifest, tmp_path / "out")
    stdouts = []
    for step in steps:
        assert cli.run(step.argv) == 0, step.argv
        stdouts.append(capsys.readouterr().out)
    return manifest, steps, stdouts


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_output_check_catches_a_flipped_byte(tmp_path, workload, capsys):
    manifest, steps, stdouts = _run_chain(workload, tmp_path, capsys)
    checker = chains.Checker(manifest)
    recorded = {}
    for step, stdout in zip(steps, stdouts):
        assert checker.check(step, stdout) == []
        recorded.update(chains.digests(step))
    for step in steps:
        for path in map(Path, step.outputs):
            original = path.read_bytes()
            flipped = bytearray(original)
            flipped[len(flipped) // 2] ^= 0x01
            path.write_bytes(bytes(flipped))
            assert chains.compare_digests(chains.digests(step), recorded), path.name
            path.write_bytes(original)
    assert chains.compare_digests(recorded, recorded) == []


def test_concat_invariant_catches_a_flipped_byte(tmp_path, capsys):
    manifest, steps, stdouts = _run_chain("sweep", tmp_path, capsys)
    merged = Path(steps[0].outputs[0])
    data = bytearray(merged.read_bytes())
    data[7] ^= 0x01
    merged.write_bytes(bytes(data))
    assert chains.Checker(manifest).check(steps[0], stdouts[0])


def _tiny(workload: str, trace: bool, work: Path) -> dict:
    return run.bench(workload, 5, 0.0, trace, gen.TINY, work, setup_probes=1)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_tiny_runs_report_every_declared_metric(tmp_path, workload, capsys):
    plain = _tiny(workload, False, tmp_path / "plain")
    traced = _tiny(workload, True, tmp_path / "traced")
    for out, trace in ((plain, False), (traced, True)):
        run.report(out, trace)
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        assert list(result["metrics"]) == _declared(trace)
    assert all(plain["metrics"][name] > 0 for name in _declared(False))
    assert Path(traced["spans_path"]).stat().st_size > 0


def test_traced_counts_repeat_exactly(tmp_path):
    counts = [m["name"] for m in run.declared_metrics(True) if m["unit"] in COUNT_UNITS]
    first, second = (_tiny("track", True, tmp_path / str(i))["metrics"] for i in range(2))
    assert first["tracker.hungarian_calls"] > 0
    assert {c: first[c] for c in counts} == {c: second[c] for c in counts}


def test_digests_cover_every_default_seed_output(tmp_path, capsys):
    recorded = json.loads((HERE / "digests.json").read_text())
    for workload in gen.WORKLOADS:
        manifest = gen.generate(workload, 0, tmp_path / workload / "in")
        steps = chains.build(workload, manifest, tmp_path / workload / "out")
        expected = {f"{s.metric}:{Path(p).name}" for s in steps for p in s.outputs}
        assert set(recorded[workload]) == expected


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
