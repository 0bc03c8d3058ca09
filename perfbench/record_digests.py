"""Record the sha256 of every output of the default seed into digests.json.

Usage, from the repository root: ``python3 perfbench/record_digests.py``.
Run it only when an output is meant to change; the benchmark fails every
command whose default-seed output no longer matches the recorded digest.
"""

from __future__ import annotations

import json
import sys

import gen
import run


def main() -> int:
    digests = {}
    for workload in gen.WORKLOADS:
        out = run.bench(workload, run.DEFAULT_SEED, 0.0, False, setup_probes=1, check_digests=False)
        if out["failed"]:
            print(f"{workload}: {out['failed']} commands failed: {out['errors']}", file=sys.stderr)
            return 1
        digests[workload] = out["digests"]
    path = run.HERE / "digests.json"
    path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
