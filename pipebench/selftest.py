"""Self-test of the pipeline benchmark, at tiny input sizes.

    python3 pipebench/selftest.py

Runs every workload in both tracing modes on the smoke inputs (tiny
preset, ``stress_smoke_config``, small preset) and checks that:

* every metric BENCHMARK.json names is in the JSON line, with its unit;
* every metric ``TABLE`` lists for the workload is in the printed
  table, with a unit, and ``fail_ratio`` is 0;
* a deliberately altered reference makes ``fail_ratio`` non-zero, so
  the correctness check can fail.

Exits 0 when all hold; prints each violation and exits 1 otherwise.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

TABLE_ROW = re.compile(r"^    (\S+)\s+(\S+)\s+(\S+)")

#: the table rows each workload must print, per tracing mode
TABLE = {
    ("run-dense", 0): [
        "setup_s", "wall_s", "peak_rss_mb", "traces_per_s", "fail_ratio",
    ],
    ("stress-10k", 0): ["setup_s", "wall_s", "peak_rss_mb", "traces_per_s", "fail_ratio"],
    ("serve-paper", 0): [
        "setup_s", "wall_s", "peak_rss_mb", "traces_per_s",
        "refresh_ms_p50", "refresh_ms_p95", "fail_ratio",
    ],
    ("run-dense", 1): [
        "ingest.s", "mappings.s", "sanitize.s", "neighbors.s", "other_sides.s",
        "origins.s", "passes.s", "write.s", "fused_load.s", "cache_load.s",
        "ingest.traces", "ingest.malformed", "sanitize.retained", "sanitize.discarded",
        "neighbors.addresses", "origins.resolved", "passes.iterations",
        "passes.inferences", "write.bytes", "cache_load.hit_ratio",
        "jobs_wall_s", "warm_wall_s", "journal_wall_s", "trace.coverage", "trace.overhead_s",
    ],
    ("stress-10k", 1): [
        "mappings.s", "stream_fold.s", "origins.s", "passes.s", "write.s",
        "stream_fold.traces", "stream_fold.bytes", "stream_fold.peak_block_bytes",
        "origins.resolved", "passes.iterations", "passes.inferences",
        "trace.coverage", "trace.overhead_s",
    ],
    ("serve-paper", 1): [
        "serve.ingest.s", "serve.quiesce.s", "serve.quiesces", "serve.dirty_halves",
        "serve.iterations", "trace.coverage", "trace.overhead_s",
    ],
}


def bench(workload, trace, *extra):
    """Run the benchmark at smoke size; returns (table rows, result)."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", str(trace), "--scale", "smoke",
            *extra,
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.splitlines()
    rows = {}
    for line in lines[:-1]:
        match = TABLE_ROW.match(line)
        if match:
            rows[match.group(1)] = (match.group(2), match.group(3))
    return rows, json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for (workload, trace), names in TABLE.items():
        rows, result = bench(workload, trace)
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        for metric in wanted:
            got = result["metrics"].get(metric["name"])
            if got is None or got["unit"] != metric["unit"]:
                problems.append(f"{workload} trace={trace}: JSON lacks {metric['name']} [{metric['unit']}]")
        for name in names:
            if name not in rows:
                problems.append(f"{workload} trace={trace}: table lacks {name}")
        if rows.get("fail_ratio", ("",))[0] != "0" or not result["correct"]:
            problems.append(f"{workload} trace={trace}: failures on the real reference")
    for workload in ("run-dense", "stress-10k", "serve-paper"):
        _, result = bench(workload, 0, "--corrupt-reference")
        if result["failed"] == 0 or result["correct"]:
            problems.append(f"{workload}: an altered reference was not detected")
    for problem in problems:
        print(f"selftest: {problem}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
