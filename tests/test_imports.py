"""The package's import graph: box-side layers depend only on the neutral
modules, never on one another."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lidarpost
from lidarpost import cli, matching, metrics, tracker

PACKAGE_DIR = Path(lidarpost.__file__).parent
SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
LAYERS = {"assigner", "ensemble", "io", "metrics", "tracker"}
NEUTRAL = {"geometry", "matching", "pointcloud"}


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
    """Only track and eval-mot solve an assignment, so only they load
    scipy.optimize, when they first call hungarian."""
    loaded = _fresh_import("import lidarpost.cli",
                           f"any(m.startswith({package!r}) for m in sys.modules)")
    assert loaded == "False"


@pytest.mark.parametrize("module, allowed", [
    ("geometry", ["lidarpost", "lidarpost.geometry"]),
    ("pointcloud", ["lidarpost", "lidarpost.geometry", "lidarpost.pointcloud"]),
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
