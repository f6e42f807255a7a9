"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark builds its seeded inputs,
drives the named workload for ``S`` seconds through the public API,
checks every output against a reference, and prints, as the last line
of standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run records spans around every call and reports the
per-layer ledger instead (see README.md).  A run whose input left its
workload's regime prints no result and exits with code 3; a run whose
outputs fail a check prints ``"correct": false`` and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import workloads  # noqa: E402  (needs the paths above)
from perfbench.tracer import Tracer  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=sorted(workloads.SIZES), default="full",
        help="stream size; 'tiny' is the self-test's seconds-long size",
    )
    return parser.parse_args(argv)


def run(args) -> dict:
    """Run one workload and return the result object (not yet printed)."""
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            from perfbench import ledger

            result = ledger.traced_run(
                args.workload, args.seed, args.seconds,
                workloads.SIZES[args.size], ROOT, workdir,
                os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"),
            )
        else:
            measured = workloads.measure(
                args.workload, args.seed, args.seconds,
                workloads.SIZES[args.size], ROOT, workdir, Tracer(False),
            )
            result = workloads.result(measured, workloads.end_to_end(measured))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def _exit_on_sigterm(signum, _frame) -> None:
    # Unwind through every ``finally``, which stops the servers we started.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        result = run(args)
    except workloads.RegimeError as exc:
        print(f"refused: {args.workload} left its regime: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
