"""lidarpost benchmark: seeded sweep / detect / track workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

The benchmark generates the workload's inputs from the seed, measures the
set-up time of a fresh interpreter several times, then runs the workload's
command chain through ``lidarpost.cli.run`` in a fresh worker process,
repeating it until ``--seconds`` have passed. Every command's output is
checked. It prints a machine block, every metric by name with its unit and
sample count, and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

DEFAULT_SEED = 0
SETUP_PROBES = 5
# Every run must end within 180 s; the worker gets what the set-up left.
RUN_LIMIT_S = 170.0
COMMAND_METRICS = {
    "sweep": ["concat_s", "voxelize_dynamic_s", "voxelize_hard_s"],
    "detect": ["nms_s", "soft_nms_s", "vote_s", "assign_s", "ensemble_s", "eval_det_s"],
    "track": ["track_s", "eval_mot_s"],
}
_READY = "import sys; sys.path.insert(0, sys.argv[1]); import lidarpost.cli as c; c.build_parser()"


def machine(nproc: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": nproc, "cpu": cpu, "blas_threads": nproc}


def worker_env(nproc: int) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def _setup_probe(src: Path, env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _READY, str(src)], env=env, check=True, timeout=60)
    return time.perf_counter() - t0


def measure_setup(src: Path, env: dict, probes: int):
    """Times of fresh interpreters reaching a ready CLI (import plus parser).

    Returns (corrected, wall) lists; see calibrate.py. With more than one
    probe, an untimed first probe writes the bytecode cache.
    """
    if probes > 1:
        _setup_probe(src, env)
    corrected, wall = [], []
    before = calibrate.probe()
    for _ in range(probes):
        wall.append(_setup_probe(src, env))
        after = calibrate.probe()
        corrected.append(calibrate.corrected(wall[-1], before, after))
        before = after
    return corrected, wall


def load_digests(workload: str):
    path = HERE / "digests.json"
    return json.loads(path.read_text()).get(workload) if path.exists() else None


def bench(workload: str, seed: int, seconds: float, trace: bool, scale: gen.Scale = gen.FULL,
          work_dir=None, setup_probes: int = SETUP_PROBES, check_digests: bool = True) -> dict:
    """Run one workload and return its metrics, checks and raw repetitions."""
    started = time.perf_counter()
    src = ROOT / "src"
    if not (src / "lidarpost" / "cli.py").is_file():
        raise FileNotFoundError(f"no lidarpost sources under {src}")
    work = Path(work_dir) if work_dir else ROOT / ".perfbench_work" / f"{workload}-{seed}-{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    manifest = gen.generate(workload, seed, work / "in", scale)
    nproc = len(os.sched_getaffinity(0))
    env = worker_env(nproc)
    setup, setup_wall = measure_setup(src, env, setup_probes)
    spec = {
        "src": str(src),
        "workload": workload,
        "manifest": manifest,
        "out_dir": str(work / "out"),
        "seconds": seconds,
        "trace": trace,
        "digests": load_digests(workload) if check_digests and seed == DEFAULT_SEED and scale == gen.FULL else None,
        "result_path": str(work / "result.json"),
        "trace_path": str(work / "spans.jsonl"),
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    budget = RUN_LIMIT_S - (time.perf_counter() - started)
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)], env=env, check=True,
                   timeout=budget)
    result = json.loads((work / "result.json").read_text())

    untraced = [r for r in result["reps"] if not r["traced"]]
    frames = manifest["frames"]
    fps = [frames / sum(r["times"].values()) for r in untraced]
    commands = {m: statistics.median(r["times"][m] for r in untraced) for m in COMMAND_METRICS[workload]}
    metrics = {
        "setup_s": statistics.median(setup),
        "frames_per_s": statistics.median(fps),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    wall = {
        "setup_s": statistics.median(setup_wall),
        "frames_per_s": statistics.median(frames / sum(r["wall"].values()) for r in untraced),
        **{m: statistics.median(r["wall"][m] for r in untraced) for m in COMMAND_METRICS[workload]},
    }
    samples = {"setup_s": len(setup), "frames_per_s": len(fps)}
    if trace:
        traced = [r for r in result["reps"] if r["traced"]]
        layers = spans.median_summary([r["layers"] for r in traced])
        traced_fps = statistics.median(frames / sum(r["times"].values()) for r in traced)
        layers["trace.overhead_frames_per_s"] = traced_fps - metrics["frames_per_s"]
        for metric in (m for ms in COMMAND_METRICS.values() for m in ms):
            layers[metric] = commands.get(metric, 0.0)
        metrics = layers
        samples["traced"] = len(traced)
    return {
        "workload": workload,
        "seed": seed,
        "metrics": metrics,
        "commands": commands,
        "wall": wall,
        "samples": samples,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "errors": result["errors"],
        "digests": result["digests"],
        "machine": {**machine(nproc), **result["versions"]},
        "scale": manifest["scale"],
        "spans_path": spec["trace_path"] if trace else None,
    }


def declared_metrics(trace: bool) -> list:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return declared["per_layer" if trace else "end_to_end"]


def report(out: dict, trace: bool) -> None:
    """Print the human-readable block, then the one-line JSON result."""
    declared = declared_metrics(trace)
    metrics = out["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    samples = out["samples"]
    print(f"lidarpost benchmark: workload={out['workload']} seed={out['seed']} trace={int(trace)}")
    print("machine " + json.dumps(out["machine"], sort_keys=True))
    print("scale " + json.dumps(out["scale"], sort_keys=True))
    if trace:
        print(f"per-layer metrics: times are medians over {samples['traced']} traced repetitions, "
              f"counts are per repetition, command times are medians over "
              f"{samples['frames_per_s']} untraced repetitions; "
              f"tracker step percentiles over {metrics['tracker.steps']} steps")
        print(f"spans written to {out['spans_path']}")
    else:
        n = samples["frames_per_s"]
        wall = out["wall"]
        print(f"{'metric':<20} {'corrected':>12} {'wall':>12}  unit   samples")
        print(f"{'setup_s':<20} {metrics['setup_s']:12.6f} {wall['setup_s']:12.6f}  s      "
              f"median of {samples['setup_s']} fresh interpreters")
        print(f"{'frames_per_s':<20} {metrics['frames_per_s']:12.6f} {wall['frames_per_s']:12.6f}  1/s    "
              f"median of {n} repetitions")
        print(f"{'peak_rss_mb':<20} {metrics['peak_rss_mb']:12.1f} {'':>12}  MB     worker process")
        print(f"{'failed_ratio':<20} {out['failed'] / out['attempted']:12.6f} {'':>12}  ratio  "
              f"{out['failed']} of {out['attempted']} commands")
        for metric in (m for ms in COMMAND_METRICS.values() for m in ms):
            if metric in out["commands"]:
                print(f"{metric:<20} {out['commands'][metric]:12.6f} {wall[metric]:12.6f}  s      "
                      f"median of {n} repetitions")
            else:
                print(f"{metric:<20} {'-':>12} {'-':>12}  s      not in this workload")
    if trace:
        for m in declared:
            print(f"{m['name']:<32} {metrics[m['name']]:.6g} {m['unit']}")
    for error in out["errors"]:
        print("CHECK FAILED " + error, file=sys.stderr)
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = bench(args.workload, args.seed, args.seconds, bool(args.trace))
        report(out, bool(args.trace))
    except (OSError, KeyError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
