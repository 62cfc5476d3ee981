"""Benchmark of the codec stack: four seeded workloads, end to end and per layer.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload wire-single --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the workload with tracing off and prints the
end-to-end metrics; ``--trace 1`` measures it once more with the
benchmark's span wrappers on and prints the per-layer ledger.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A run whose answers
differ from the expected ones prints ``"correct": false`` and exits 1.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from pbench import calibrate, procs  # noqa: E402
from pbench.measure import WORKLOADS  # noqa: E402
from pbench.server import build_dir, child_env  # noqa: E402

METRIC_UNITS = {
    "setup_s": "s",
    "cpu_us_per_op": "us",
    "latency_us": "us",
    "ops_per_s": "1/s",
    "rss_mb": "MiB",
}


def _source_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: run from the root of a checkout (no src/repro here)",
            file=sys.stderr,
        )
        sys.exit(2)
    return root


def _prepare(root: Path) -> str:
    """Point this process at the checkout and build the native kernels."""
    env = child_env(root)
    os.environ["REPRO_NATIVE_CACHE_DIR"] = env["REPRO_NATIVE_CACHE_DIR"]
    os.environ.pop("REPRO_BACKEND", None)
    sys.path.insert(0, env["PYTHONPATH"])
    from repro.backends import default_backend

    return default_backend().name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = _source_root()
    calibrate.pin_to_one_core()
    backend = _prepare(root)
    header = procs.run_header(
        root, args.workload, args.seed, args.seconds, bool(args.trace), backend
    )
    print("perfbench " + json.dumps(header), flush=True)

    if args.trace:
        from pbench.ledger import run_traced

        record = run_traced(root, args.workload, args.seed, args.seconds)
        metrics = record["per_layer"]
    else:
        from pbench.measure import run_e2e

        record = run_e2e(root, args.workload, args.seed, args.seconds)
        metrics = {
            name: {"value": value, "unit": METRIC_UNITS[name]}
            for name, value in record["metrics"].items()
        }
        print(f"  op = one {WORKLOADS[args.workload].op}")
        for name, entry in metrics.items():
            print(f"  {name:<16} {entry['value']:>14.4f} {entry['unit']}")
    tally = record["tally"]
    left = procs.child_pids(os.getpid())
    if left:
        tally.fail(1, f"processes still running after the run: {left}")
    correct = tally.failed == 0 and tally.attempted > 0
    print(f"  error_ratio      {tally.failed / max(tally.attempted, 1):>14.6f} "
          f"({tally.failed} of {tally.attempted} ops)")
    for error in tally.errors:
        print("  error: " + error)

    out = build_dir(root) / "runs"
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with (out / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").open("w") as fh:
        json.dump(
            {"header": header, "metrics": metrics, "detail": record.get("detail"),
             "attempted": tally.attempted, "failed": tally.failed,
             "errors": tally.errors},
            fh, indent=1, default=str,
        )
    print(json.dumps({
        "correct": correct,
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
