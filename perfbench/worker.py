"""Run one workload's repetitions in a fresh interpreter.

Usage: ``python3 worker.py SPEC.json``. ``run.py`` writes the spec (source
directory, workload, manifest of generated inputs, seconds, trace flag,
recorded digests) and reads the result file the worker writes. Running the
workload in its own process makes ``peak_rss_mb`` belong to it alone.

Each repetition runs the workload's whole chain through
``lidarpost.cli.run``, timing every command from outside, and scales each
wall time by the reference probes taken right before and after it (see
calibrate.py). After each command it checks the command's output. A
command fails on a non-zero exit, a failed invariant, or an output whose
sha256 differs from the first repetition's or from the digest recorded for
the default seed. With tracing on, repetitions
alternate untraced and traced, so one run yields both the per-layer
figures and the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    import numpy
    import scipy
    from lidarpost import cli

    import calibrate
    import chains
    import spans

    steps = chains.build(spec["workload"], spec["manifest"], spec["out_dir"])
    checker = chains.Checker(spec["manifest"])
    tracer = spans.Tracer() if spec["trace"] else None
    reps = []
    errors = []
    attempted = failed = 0
    first_digests = None
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            tracer.install()
            first_span = tracer.mark()
        times = {}
        wall = {}
        rep_digests = {}
        gc.collect()
        before = calibrate.probe()
        for step in steps:
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if traced:
                    code = tracer.command(step.argv[0], cli.run, step.argv)
                else:
                    code = cli.run(step.argv)
            elapsed = time.perf_counter() - t0
            after = calibrate.probe()
            wall[step.metric] = wall.get(step.metric, 0.0) + elapsed
            times[step.metric] = times.get(step.metric, 0.0) + calibrate.corrected(elapsed, before, after)
            attempted += 1
            if code != 0:
                problems = [f"exit {code}: {err.getvalue().strip()}"]
            else:
                try:
                    problems = checker.check(step, out.getvalue())
                    found = chains.digests(step)
                except Exception as exc:  # a malformed output fails the command, not the run
                    problems = [f"output check raised {type(exc).__name__}: {exc}"]
                    found = {}
                problems += chains.compare_digests(found, first_digests)
                problems += chains.compare_digests(found, spec["digests"])
                rep_digests.update(found)
            if problems:
                failed += 1
                errors.extend(f"{step.metric}: {p}" for p in problems)
            gc.collect()
            before = calibrate.probe()
        if traced:
            tracer.uninstall()
        if first_digests is None:
            first_digests = rep_digests
        reps.append({
            "traced": traced,
            "times": times,
            "wall": wall,
            "layers": tracer.summarize(first_span) if traced else None,
        })
        done = time.perf_counter() - start >= spec["seconds"]
        if done and (tracer is None or len(reps) % 2 == 0):
            break
    if tracer is not None:
        tracer.write(spec["trace_path"])
    return {
        "reps": reps,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "digests": first_digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }


if __name__ == "__main__":
    spec_path = Path(sys.argv[1])
    spec = json.loads(spec_path.read_text())
    result = run(spec)
    Path(spec["result_path"]).write_text(json.dumps(result))
