"""The pipeline benchmark: one command, three workloads.

    python3 pipebench/run.py --workload run-dense --seed 1 --seconds 20 --trace 0

Run from the repository root (any checkout holding ``src/repro``).
Prints a table of every metric with its unit, then, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the metrics ``BENCHMARK.json`` names: its ``end_to_end`` list
with ``--trace 0`` (tracing off), its ``per_layer`` list with
``--trace 1`` (the traced per-layer breakdown).  ``--workload all`` runs
every workload both ways.  README.md describes the workloads, the
layers and which end-to-end metric each layer should move.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def run_one(workload, args):
    """Run one workload in one tracing mode; returns (session, info, table)."""
    from workloads import WORKLOADS, Session

    workdir = ROOT / ".pipebench" / f"{workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        session = Session(workdir, corrupt_reference=args.corrupt_reference)
        info, table = WORKLOADS[workload](
            session, args.seed, args.seconds, args.trace, args.scale
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return session, info, table


def print_table(workload, args, session, info, table):
    mode = "per-layer, traced" if args.trace else "end-to-end, tracing off"
    print(f"pipebench {workload}: seed={args.seed} seconds={args.seconds} scale={args.scale}")
    print(
        f"  host: cpus={os.cpu_count()} python={platform.python_version()} git={git_sha()}"
    )
    print(f"  input: {info['traces']} traces, {info['addresses']} addresses")
    print(f"  {mode}:")
    for name, (value, unit, note) in table.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"    {name:<30} {shown:>14} {unit:<6} {note}")
    ratio = session.failed / session.attempted if session.attempted else 0.0
    print(
        f"    {'fail_ratio':<30} {ratio:>14.6g} {'ratio':<6} "
        f"{session.failed} failed / {session.attempted} attempted"
    )
    for error in session.errors:
        print(f"  FAILED {error}")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="pipebench")
    parser.add_argument(
        "--workload", required=True, choices=("run-dense", "stress-10k", "serve-paper", "all")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "smoke"),
        default="full",
        help="smoke: tiny/small/stress-smoke inputs (the self-test)",
    )
    parser.add_argument(
        "--corrupt-reference",
        action="store_true",
        help="alter each reference so every check fails (the self-test)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        runs = [(name["name"], trace) for name in spec["workloads"] for trace in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    attempted = failed = 0
    metrics = {}
    for workload, trace in runs:
        args.trace = trace
        session, info, table = run_one(workload, args)
        print_table(workload, args, session, info, table)
        attempted += session.attempted
        failed += session.failed
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        prefix = f"{workload}/" if len(runs) > 1 else ""
        for metric in wanted:
            value, unit, _ = table[metric["name"]]
            metrics[prefix + metric["name"]] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
