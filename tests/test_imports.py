"""The package's import graph: box-side layers depend only on the neutral
modules, never on one another."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import lidarpost
from lidarpost import matching, metrics, tracker

PACKAGE_DIR = Path(lidarpost.__file__).parent
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


def test_cli_import_leaves_scipy_csgraph_unloaded():
    probe = ("import sys, lidarpost.cli; "
             "print(any(m.startswith('scipy.sparse.csgraph') for m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def test_patched_names_are_module_attributes():
    """tracker and metrics look hungarian and associate up as module
    globals at call time, so replacing the attribute reaches every call."""
    assert tracker.hungarian is matching.hungarian
    assert metrics.hungarian is matching.hungarian
    assert callable(tracker.associate)
