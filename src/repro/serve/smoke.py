"""End-to-end serve smoke: stream, query, kill, resume, diff.

The CI serve job's integration leg.  One run:

1. builds a tiny world and computes the batch golden output
   (``mapit run --json``);
2. starts a real ``mapit serve`` daemon subprocess following an
   initially-empty stream file, with the HTTP API on an ephemeral port
   and periodic checkpoints into a journal;
3. appends the world's traces to the stream in chunks, polling the API
   between chunks (health, fingerprint, links) — every response must
   be internally consistent;
4. SIGKILLs the daemon mid-stream (after at least one checkpoint),
   appends the remaining traces, and resumes with
   ``mapit serve --resume --once``;
5. asserts the resumed output is **byte-identical** to the batch
   golden.

Everything runs against localhost; the only wall-clock use is
``time.monotonic`` deadlines (DET002-clean).
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from typing import List, Union

from repro.diff.worlds import world_from_preset


class SmokeError(AssertionError):
    """A smoke step failed; the message says which."""


def _http_json(port: int, path: str, timeout: float = 5.0) -> dict:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=timeout
    ) as response:
        return json.loads(response.read().decode())


def _wait_for(predicate, deadline: float, what: str, interval: float = 0.05):
    """Poll *predicate* until it returns a truthy value or *deadline*
    (monotonic seconds) passes."""
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() > deadline:
            raise SmokeError(f"timed out waiting for {what}")
        time.sleep(interval)


def _start_daemon(args: List[str]) -> "subprocess.Popen[str]":
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _read_port(process: "subprocess.Popen[str]", timeout: float = 30.0) -> int:
    """Parse the ephemeral port from the daemon's stderr banner."""
    deadline = time.monotonic() + timeout
    assert process.stderr is not None
    while time.monotonic() < deadline:
        line = process.stderr.readline()
        if not line:
            raise SmokeError(
                f"daemon exited before binding (rc={process.poll()})"
            )
        if "serve: http on" in line:
            return int(line.rsplit(":", 1)[1])
    raise SmokeError("no http banner within timeout")


def run_smoke(
    workdir: Union[str, Path],
    seed: int = 0,
    chunk: int = 20,
    timeout: float = 60.0,
) -> List[str]:
    """Run the full smoke; returns report lines, raises SmokeError."""
    root = Path(workdir)
    root.mkdir(parents=True, exist_ok=True)
    report: List[str] = []

    # 1. world + batch golden
    world = world_from_preset("tiny", seed)
    world_dir = world.save(root / "world")
    golden = root / "golden.json"
    completed = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "run", str(world_dir),
            "--json", "--output", str(golden),
        ],
        capture_output=True,
        text=True,
    )
    if completed.returncode != 0:
        raise SmokeError(f"batch golden failed: {completed.stderr}")
    report.append(f"golden: {len(world.traces)} traces -> {golden.name}")
    golden_data = json.loads(golden.read_text())
    if not golden_data["inferences"]:
        raise SmokeError("golden run produced no inferences; world too small")
    probe = golden_data["inferences"][0]

    # 2. serve dataset = the world minus its traces file
    serve_dir = root / "serve-dataset"
    shutil.copytree(world_dir, serve_dir)
    (serve_dir / "traces.txt").unlink()
    stream = root / "stream.txt"
    stream.write_text("")
    journal = root / "journal"
    lines = (world_dir / "traces.txt").read_text().splitlines(keepends=True)

    daemon_args = [
        str(serve_dir),
        "--follow", str(stream),
        "--http", "0",
        "--journal", str(journal),
        "--checkpoint-every", "5",
        "--quiesce-every", "7",
        "--poll-interval", "0.05",
    ]
    process = _start_daemon(daemon_args)
    killed = False
    try:
        port = _read_port(process)
        report.append(f"daemon: pid {process.pid}, http port {port}")
        deadline = time.monotonic() + timeout

        # 3. stream the first half in chunks, querying between chunks
        half = max(chunk, len(lines) // 2)
        streamed = 0
        while streamed < half:
            batch = lines[streamed : streamed + chunk]
            with open(stream, "a") as handle:
                handle.writelines(batch)
            streamed += len(batch)
            health = _wait_for(
                lambda: (
                    lambda h: h if h["stats"]["folds"] > 0 else None
                )(_http_json(port, "/health")),
                deadline,
                "first quiesce",
            )
        health = _wait_for(
            lambda: (
                lambda h: h
                if h["stats"]["folds"] >= streamed and h["stats"]["checkpoints"] >= 1
                else None
            )(_http_json(port, "/health")),
            deadline,
            f"{streamed} folds and a checkpoint",
        )
        fingerprint = _http_json(port, "/fingerprint")
        if fingerprint["fingerprint"] != health["fingerprint"] and (
            fingerprint["seq"] == health["seq"]
        ):
            raise SmokeError("fingerprint/health disagree at the same seq")
        links = _http_json(port, f"/links?asn={probe['local_as']}")
        explain = _http_json(port, f"/explain?address={probe['address']}")
        report.append(
            f"mid-stream: {health['stats']['folds']} folds, "
            f"{health['stats']['checkpoints']} checkpoint(s), seq {health['seq']}, "
            f"AS{probe['local_as']} links {len(links['links'])}, "
            f"explain records {len(explain['records'])}"
        )

        # 4. kill -9 mid-stream, append the rest, resume --once
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=10)
        killed = True
        report.append("killed daemon with SIGKILL")
        with open(stream, "a") as handle:
            handle.writelines(lines[streamed:])
        resumed_out = root / "resumed.json"
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "serve", str(serve_dir),
                "--follow", str(stream),
                "--journal", str(journal),
                "--resume", "--once",
                "--json", "--output", str(resumed_out),
            ],
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        if completed.returncode != 0:
            raise SmokeError(f"resume failed: {completed.stderr}")
        if "resume: restored checkpoint" not in completed.stderr:
            raise SmokeError(
                f"resume did not restore a checkpoint: {completed.stderr}"
            )

        # 5. byte-identity against the batch golden
        if resumed_out.read_bytes() != golden.read_bytes():
            raise SmokeError("resumed serve output differs from batch golden")
        report.append("resumed output byte-identical to batch golden")
    finally:
        if not killed and process.poll() is None:
            process.kill()
            process.wait(timeout=10)
    return report
