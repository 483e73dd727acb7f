"""Benchmark entry point: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scatter-mem --seed 1 --seconds 15 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same workload, then one traced round, and
reports the per-layer metrics instead.  Before the result, one ``ops``
line per operation kind gives attempted and failed counts.  The last
line of standard output is the JSON result; a failed check makes the
exit status non-zero.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: String hashing is pinned: with a random hash seed, the same inputs
#: took up to 1.6x longer to bulk load and query from one process to
#: the next, which would swamp the differences the benchmark is for.
HASH_SEED = "0"
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
    os.environ["PYTHONHASHSEED"] = HASH_SEED
    os.execv(sys.executable, [sys.executable] + sys.argv)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

try:
    import repro  # the program under test, from this checkout's src/
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")
if SRC not in Path(repro.__file__).resolve().parents:
    sys.exit(f"perfbench: imported {repro.__file__}, not the one in {SRC}")

from layers import PER_LAYER  # noqa: E402

#: workload name -> module implementing ``run(seed, seconds, tracing)``.
WORKLOADS = {
    "churn-disk": "churn_disk",
    "serve-disk": "serve_disk",
    "scatter-mem": "scatter_mem",
}

#: end-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "subgraph_p50_ms": "ms",
    "knn_p50_ms": "ms",
    "queries_per_s": "1/s",
    "space_amp": "ratio",
    "peak_rss_mb": "MiB",
}

#: The seed the reference figures in README.md use, and the holdout.
DEFAULT_SEED = 1
HOLDOUT_SEED = 7


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    module = __import__(WORKLOADS[args.workload])
    result = module.run(args.seed, args.seconds, bool(args.trace))

    for line in result.ops.lines(args.workload):
        print(line)
    for message in result.errors:
        print(f"check failed: {message}")
    attempted, failed = result.ops.total()
    units = PER_LAYER if args.trace else END_TO_END
    values = result.layers if args.trace else result.end_to_end
    missing = set(units) - set(values) if not args.trace else set()
    if missing:
        raise RuntimeError(f"workload did not report {sorted(missing)}")
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    correct = not result.errors
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
