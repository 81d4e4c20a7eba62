"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload hybrid_solve --seed 1 --seconds 25 --trace 0

``--trace 0`` is a timed run with no instrumentation and prints the
end-to-end metrics; ``--trace 1`` is a traced run that prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out PATH``
additionally writes that result -- and, for a traced run, its spans as a
Chrome trace-event document -- to ``PATH``; nothing else is written.

The library is imported from ``src/`` of the checkout, so a directory
without it makes the run fail with a non-zero exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_library() -> None:
    src = CHECKOUT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library at {src / 'repro'}; run from a full checkout")
    sys.path.insert(0, str(src))
    # Pin the library's environment seams: the executor is always explicit,
    # and scheduling priorities use the static Table-I cost model rather
    # than a per-host calibration file outside the checkout.
    os.environ.pop("REPRO_EXECUTOR", None)
    os.environ["REPRO_CALIBRATION"] = str(CHECKOUT / "perfbench" / "no-calibration.json")
    # One BLAS thread per calling thread: the executor's workers are the
    # only parallelism, and idle BLAS threads spinning after a large call
    # (the LAPACK reference, the GEMM peak) cannot slow the next op.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def format_table(result: dict) -> str:
    lines = [f"{'metric':34} {'value':>14}  unit"]
    for name, value in result["metrics"].items():
        lines.append(f"{name:34} {value:14.6g}  {result['units'][name]}")
    return "\n".join(lines)


def summarize(result: dict) -> dict:
    """The result line: correctness, op counts and every metric with its unit."""
    outcome = result["outcome"]
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": result["units"][name]}
            for name, value in result["metrics"].items()
        },
    }


def main(argv=None) -> int:
    args = _parse(argv)
    _import_library()
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    outcome = result["outcome"]
    for reason in outcome.reasons:
        print(f"failed op: {reason}", file=sys.stderr)
    summary = summarize(result)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{outcome.attempted} ops, {outcome.failed} failed")
    print(format_table(result))
    if args.out is not None:
        doc = dict(summary, workload=args.workload, seed=args.seed)
        if "tracer" in result:
            doc["trace"] = tracer.chrome_trace(result["tracer"].spans)
        args.out.write_text(json.dumps(doc))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
