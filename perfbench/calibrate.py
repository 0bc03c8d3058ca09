"""A fixed reference load that measures how fast the machine runs right now.

The benchmark's machine is shared: for tens of seconds at a time, other
tenants slow every CPU-bound step here by 20-70%, so raw wall times of the
same code differ by more than any useful regression bound between runs.
The benchmark therefore times this fixed load (JSON parsing, small-object
Python arithmetic and a little NumPy, the same mix as lidarpost's hot
paths) right before and right after every timed command, and scales the
command's wall time by ``REF_SECONDS / mean(before, after)``. The result is
the command's time at the speed the reference had on an idle machine.
Raw wall times are reported beside the corrected ones.
"""

from __future__ import annotations

import gc
import json
import math
import time

import numpy as np

# Time of one probe() on an idle 2-vCPU Intel Xeon sandbox (Python 3.11,
# NumPy 2.4): the fastest of 200 probes there.
REF_SECONDS = 0.063

_LINE = json.dumps({"frame_id": "f000", "timestamp": 0.0, "cx": 12.1, "cy": -3.4,
                    "cz": 0.6, "l": 4.5, "w": 1.9, "h": 1.6, "heading": 0.31,
                    "score": 0.87, "label": "VEHICLE"})
_ITERATIONS = 16000


class _Point:
    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float) -> None:
        self.x = x
        self.y = y
        self.z = z


def probe() -> float:
    """Run the reference load once; returns its wall time in seconds."""
    values = np.arange(256.0)
    acc = 0.0
    gc.collect()
    gc.disable()  # a collection of the program's leftovers is not machine speed
    try:
        t0 = time.perf_counter()
        for i in range(_ITERATIONS):
            record = json.loads(_LINE)
            point = _Point(record["cx"] + i, record["cy"], record["cz"])
            acc += math.hypot(point.x, point.y) * math.cos(record["heading"])
            if i % 50 == 0:
                acc += float((values * values).sum())
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    if not math.isfinite(acc):
        raise ArithmeticError("reference load produced a non-finite sum")
    return elapsed


def corrected(wall_s: float, before_s: float, after_s: float) -> float:
    """Wall time scaled to the reference's idle speed."""
    return wall_s * REF_SECONDS / (0.5 * (before_s + after_s))
