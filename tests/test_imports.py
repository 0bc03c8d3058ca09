"""The package's import graph: box-side layers depend only on the neutral
modules, never on one another."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lidarpost
from lidarpost import cli, matching, metrics, tracker

PACKAGE_DIR = Path(lidarpost.__file__).parent
SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
GEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
LAYERS = {"assigner", "ensemble", "io", "metrics", "tracker"}
NEUTRAL = {"geometry", "matching", "pointcloud", "schema"}


def _package_imports(module: str) -> set:
    """Names of the lidarpost modules that a module's source imports."""
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.level == 0 and (node.module or "").startswith("lidarpost."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("lidarpost."))
    return found


def test_layers_import_only_the_neutral_modules():
    for module in sorted(LAYERS):
        imported = _package_imports(module)
        assert imported <= NEUTRAL, f"{module} imports {sorted(imported - NEUTRAL)}"


def test_geometry_and_matching_import_no_package_module():
    assert _package_imports("geometry") == set()
    assert _package_imports("matching") == set()


def test_schema_imports_no_package_module():
    """Every layer may declare its settings with it."""
    assert _package_imports("schema") == set()


def _absolute_imports(module: str) -> set:
    """Names of the outside modules that a module's source imports."""
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
    return found - {"__future__", "typing"}


def test_matching_imports_only_numpy_and_scipy_optimize():
    """Loading more of SciPy when the CLI starts would show in its set-up
    time; the tie-break works on dense NumPy arrays instead."""
    assert _absolute_imports("matching") == {"numpy", "scipy.optimize"}


def _fresh_import(statement: str, expression: str) -> str:
    """The printed value of expression after statement, in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    out = subprocess.run([sys.executable, "-c", f"import sys; {statement}; print({expression})"],
                         capture_output=True, text=True, check=True, env=env)
    return out.stdout.strip()


@pytest.mark.parametrize("package", ["scipy.sparse.csgraph", "scipy.optimize"])
def test_cli_import_leaves_scipy_csgraph_unloaded(package):
    """Only hungarian uses scipy.optimize, and only for a matrix with a
    large overlap component."""
    loaded = _fresh_import("import lidarpost.cli",
                           f"any(m.startswith({package!r}) for m in sys.modules)")
    assert loaded == "False"


def _tracking_fixture(folder: Path):
    """Detections and ground truth of 12 objects over 6 frames, one dropped
    and one false positive a frame. Objects 0 and 1, and 2 and 3, walk side
    by side, so that each of their detections overlaps both their tracks."""
    rng = np.random.default_rng(3)
    starts = [(0.0, 0.0), (0.0, 0.5), (10.0, 5.0), (10.0, 5.4)]
    starts += [(20.0 * k, -15.0 + 3.0 * k) for k in range(8)]
    dets, gts = [], []
    for t in range(6):
        frame = {"frame_id": f"t{t}", "timestamp": 0.1 * t, "cz": 0.9, "h": 1.7,
                 "heading": 0.0, "label": "PEDESTRIAN"}
        for i, (x, y) in enumerate(starts):
            x += 0.15 * t
            gts.append({**frame, "cx": x, "cy": y, "l": 0.8, "w": 0.8, "score": 1.0,
                        "track_id": i})
            if i != (5 * t) % len(starts):
                dx, dy = rng.normal(0.0, 0.05, 2)
                dets.append({**frame, "cx": x + dx, "cy": y + dy, "l": 0.8, "w": 0.8,
                             "score": round(float(rng.uniform(0.5, 1.0)), 3)})
        dets.append({**frame, "cx": 60.0 + t, "cy": 30.0, "l": 0.8, "w": 0.8, "score": 0.4})
    paths = {name: folder / f"{name}.jsonl" for name in ("dets", "gt")}
    for name, records in (("dets", dets), ("gt", gts)):
        paths[name].write_text("".join(json.dumps(r) + "\n" for r in records))
    return paths


def test_track_and_eval_mot_leave_scipy_optimize_unloaded(tmp_path):
    """Tracker-shaped matrices split into small overlap components, which
    hungarian matches in NumPy and plain Python: SciPy's import would double
    the peak memory of a tracking run."""
    paths = _tracking_fixture(tmp_path)
    tracks, report = tmp_path / "tracks.jsonl", tmp_path / "mot.txt"
    loaded = _fresh_import(
        "from lidarpost import cli, matching; solve = matching._max_weight_matching; "
        "solved = []; matching._max_weight_matching = lambda w: solved.append(w) or solve(w); "
        f"codes = [cli.run(['track', '--input', {str(paths['dets'])!r}, "
        f"'--output', {str(tracks)!r}]), cli.run(['eval-mot', '--tracked', {str(tracks)!r}, "
        f"'--gt', {str(paths['gt'])!r}, '--output', {str(report)!r}])]",
        "codes, len(solved) > 0, any(m.startswith('scipy.optimize') for m in sys.modules)")
    assert loaded.splitlines()[-1] == "[0, 0] True False"
    assert "MOTA" in report.read_text()


# Runs the benchmark's track workload: its inputs, from perfbench/gen.py (the
# first argument) into a folder (the second), then the three segments' track
# and eval-mot commands.
BENCHMARK_TRACK = """
import importlib.util, sys
from lidarpost import cli
spec = importlib.util.spec_from_file_location("perfbench_gen", sys.argv[1])
gen = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = gen  # its dataclasses look it up
spec.loader.exec_module(gen)
out = sys.argv[2]
files = gen.generate("track", 0, out)["files"]
codes = []
for k in range(3):
    tracks = f"{out}/tracks_{k}.jsonl"
    codes.append(cli.run(["track", "--input", files[f"dets{k}"], "--output", tracks]))
    codes.append(cli.run(["eval-mot", "--tracked", tracks, "--gt", files[f"gt{k}"],
                          "--output", f"{out}/mot_{k}.txt"]))
print(codes, any(m.startswith("scipy.optimize") for m in sys.modules))
"""


def test_the_benchmark_track_workload_leaves_scipy_optimize_unloaded(tmp_path):
    """The seed-0 track workload that the benchmark runs, 150 objects over
    three segments, splits into overlap components small enough for the
    plain Python solver at every frame of track and eval-mot."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    out = subprocess.run([sys.executable, "-c", BENCHMARK_TRACK, str(GEN_PATH), str(tmp_path)],
                         capture_output=True, text=True, check=True, env=env)
    assert out.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] False"
    assert all("MOTA" in (tmp_path / f"mot_{k}.txt").read_text() for k in range(3))


def test_a_dense_matrix_still_loads_scipy_optimize():
    """One component of 300 rows and columns is past the plain Python
    solver: the whole matrix goes to linear_sum_assignment."""
    loaded = _fresh_import(
        "import numpy as np; from lidarpost.matching import hungarian; "
        "pairs = hungarian(np.random.default_rng(0).uniform(size=(150, 150)))",
        "len(pairs), any(m.startswith('scipy.optimize') for m in sys.modules)")
    assert loaded == "150 True"


@pytest.mark.parametrize("module, allowed", [
    ("geometry", ["lidarpost", "lidarpost.geometry"]),
    ("schema", ["lidarpost", "lidarpost.schema"]),
    ("pointcloud", ["lidarpost", "lidarpost.geometry", "lidarpost.pointcloud",
                    "lidarpost.schema"]),
])
def test_neutral_module_import_loads_no_other_layer_and_no_scipy(module, allowed):
    """The package root imports no module, so importing one loads only what
    it needs itself."""
    loaded = _fresh_import(
        f"import lidarpost.{module}",
        "sorted(m for m in sys.modules if m.split('.')[0] in ('lidarpost', 'scipy'))")
    assert loaded == repr(allowed)


def _span_tables():
    """CLI_SPANS and TRACKER_SPANS, the names the benchmark's tracer replaces."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.CLI_SPANS, spans.TRACKER_SPANS


def test_patched_names_are_module_attributes():
    """tracker and metrics look hungarian and associate up as module
    globals at call time, so replacing the attribute reaches every call.
    Every name the tracer replaces must exist where it looks for it."""
    assert tracker.hungarian is matching.hungarian
    assert metrics.hungarian is matching.hungarian
    assert callable(tracker.associate)
    cli_spans, tracker_spans = _span_tables()
    for name in [*cli_spans, "Tracker"]:
        assert hasattr(cli, name), f"lidarpost.cli has no {name}"
    for name in tracker_spans:
        assert hasattr(tracker, name), f"lidarpost.tracker has no {name}"


@pytest.mark.parametrize("command, reached", [
    ("nms", {"nms"}),
    ("soft-nms", {"soft_nms"}),
    ("vote", {"nms", "box_vote"}),
])
def test_filter_commands_call_the_current_module_attributes(tmp_path, monkeypatch,
                                                            command, reached):
    """A filter command reaches a wrapper set over cli.nms, cli.soft_nms or
    cli.box_vote after import, as the tracer sets them."""
    calls = set()
    for name in ("nms", "soft_nms", "box_vote"):
        def recording(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls.add(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, recording)
    det = tmp_path / "d.jsonl"
    det.write_text(json.dumps({"frame_id": "f0", "timestamp": 0.0, "cx": 1.0, "cy": 2.0,
                               "cz": 0.5, "l": 4.0, "w": 2.0, "h": 1.5, "heading": 0.1,
                               "score": 0.9, "label": "VEHICLE"}) + "\n")
    assert cli.run([command, "--input", str(det), "--output", str(tmp_path / "o.jsonl")]) == 0
    assert calls == reached


# Imported names a module keeps without using them, by module.
UNUSED_ON_PURPOSE = {
    # The benchmark's tracer times ensemble_pair by replacing this attribute.
    "cli": {"ensemble_pair"},
}


def test_every_imported_name_is_used():
    """Each name bound by a top-level import of a package module appears in
    that module as a name, alone or as the base of an attribute."""
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(alias.asname or alias.name for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = bound - used - UNUSED_ON_PURPOSE.get(path.stem, set())
        assert not unused, f"{path.stem} imports {sorted(unused)} and never uses them"
