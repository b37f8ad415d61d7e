"""The chaos harness behind ``mapit chaos``.

Fault tolerance is only trustworthy if it is *exercised*: the harness
builds a seeded synthetic world, records the fault-free golden output,
then re-runs the real CLI (in-process, same code path as a terminal
user) under seeded process-level fault schedules and asserts the final
output is byte-identical to the golden run.  Schedules:

``kill``
    a worker dies abruptly (``os._exit``) on every pooled attempt of
    shard 0 — the supervisor must retry and finally degrade the shard
    to inline execution;
``hang``
    a worker stalls past ``--shard-timeout`` on its first attempt —
    the supervisor must kill it and the retry must succeed;
``torn-journal``
    a journaled run crashes right after journaling its result, the
    result line is torn mid-line, and ``--resume`` must re-run the
    passes over the cached graph;
``enospc``
    journal and cache writes fail with ``ENOSPC`` — durability
    degrades, the run itself completes;
``corrupt-cache``
    a *binary* (struct-packed) ``.mapitc`` entry is bit-flipped
    between runs — the warm run must detect the checksum mismatch
    (one ``perf.cache.invalid``, no hit) and re-parse;
``serve``
    the incremental daemon is killed mid-ingest (after one durable
    checkpoint; a later checkpoint write hits ``ENOSPC`` and degrades)
    and resumed from the journal — the resumed output must be
    byte-identical to the batch golden (docs/SERVE.md).

A passing run can be recorded as a small JSON *regression bundle*
(preset, seed, schedules, golden sha256); replaying the bundle re-runs
the schedules and additionally pins the golden output's digest, so a
determinism regression in the simulator or the pipeline is caught even
if every schedule still self-agrees.
"""

from __future__ import annotations

import io
import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.io.atomic import atomic_write_json, file_sha256
from repro.robust.faults import ChaosInjector, FaultInjector, SimulatedCrash
from repro.robust.hooks import CHAOS_SCHEDULES, chaos

#: regression-bundle format version
BUNDLE_VERSION = 1

#: deadline used by schedules that need one; hangs last several times
#: longer, so a hung worker always overruns it
_DEADLINE = 0.75
_HANG = 5.0


@dataclass
class ScheduleResult:
    """One schedule's verdict: did the faulted output match the golden?"""

    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "ok" if self.ok else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"schedule {self.name}: {status}{suffix}"


@dataclass
class ChaosOutcome:
    """Everything one harness invocation produced."""

    preset: str
    seed: int
    jobs: int
    golden_sha256: str
    results: List[ScheduleResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def lines(self) -> List[str]:
        out = [
            f"chaos: preset={self.preset} seed={self.seed} jobs={self.jobs}",
            f"golden output sha256 {self.golden_sha256}",
        ]
        out.extend(result.line() for result in self.results)
        verdict = "all schedules byte-identical" if self.ok else "DIVERGENCE"
        out.append(f"chaos: {verdict}")
        return out

    def to_bundle(self) -> Dict[str, object]:
        return {
            "version": BUNDLE_VERSION,
            "preset": self.preset,
            "seed": self.seed,
            "jobs": self.jobs,
            "schedules": [result.name for result in self.results],
            "golden_sha256": self.golden_sha256,
        }


def _run_cli(argv: Sequence[str]) -> Tuple[int, str, str]:
    """Run the real CLI in-process, capturing stdout/stderr."""
    from repro import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(list(argv))
    return code, stdout.getvalue(), stderr.getvalue()


def _build_world(preset: str, seed: int, root: Path) -> Path:
    from repro.io.save import save_scenario
    from repro.sim.presets import SCENARIO_PRESETS
    from repro.sim.scenario import build_scenario

    scenario = build_scenario(SCENARIO_PRESETS[preset](seed))
    return save_scenario(scenario, root / "world")


def _default_config():
    """The MapItConfig ``mapit run`` uses with no algorithm flags."""
    from repro import MapItConfig

    return MapItConfig(f=0.5, enable_stub_heuristic=True, remove_rule="majority")


def _run_to(world: Path, output: Path, *extra: str) -> Tuple[int, str]:
    code, _, stderr = _run_cli(
        ["run", str(world), "--output", str(output), "--json", *extra]
    )
    return code, stderr


def _compare(name: str, code: int, output: Path, golden_sha: str) -> ScheduleResult:
    if code != 0:
        return ScheduleResult(name, False, f"exit code {code}")
    actual = file_sha256(output)
    if actual != golden_sha:
        return ScheduleResult(name, False, f"output sha {actual[:12]} != golden")
    return ScheduleResult(name, True)


def run_chaos(
    preset: str = "tiny",
    seed: int = 0,
    schedules: Optional[Sequence[str]] = None,
    jobs: int = 4,
    workdir: Optional[Union[str, Path]] = None,
) -> ChaosOutcome:
    """Run the fault schedules against one seeded world.

    Builds the world, records the fault-free golden output (serial, no
    faults armed), then runs each schedule and compares output bytes.
    *workdir*, when given, keeps the scratch datasets and journals for
    inspection; otherwise a temp directory is used and removed.
    """
    selected = list(schedules) if schedules else list(CHAOS_SCHEDULES)
    unknown = [name for name in selected if name not in CHAOS_SCHEDULES]
    if unknown:
        raise ValueError(f"unknown chaos schedule(s): {', '.join(unknown)}")
    cleanup = workdir is None
    root = Path(tempfile.mkdtemp(prefix="mapit-chaos-")) if cleanup else Path(workdir)
    root.mkdir(parents=True, exist_ok=True)
    try:
        world = _build_world(preset, seed, root)
        golden = root / "golden.json"
        code, stderr = _run_to(world, golden, "--jobs", "1")
        if code != 0:
            raise RuntimeError(
                f"golden run failed with exit code {code}:\n{stderr}"
            )
        outcome = ChaosOutcome(
            preset=preset, seed=seed, jobs=jobs, golden_sha256=file_sha256(golden)
        )
        runners = {
            "kill": _schedule_kill,
            "hang": _schedule_hang,
            "torn-journal": _schedule_torn_journal,
            "enospc": _schedule_enospc,
            "corrupt-cache": _schedule_corrupt_cache,
            "serve": _schedule_serve,
        }
        for name in selected:
            outcome.results.append(
                runners[name](root, world, outcome.golden_sha256, seed, jobs)
            )
        return outcome
    finally:
        if cleanup:
            shutil.rmtree(root, ignore_errors=True)


# ----------------------------------------------------------------------
# schedules


def _schedule_kill(
    root: Path, world: Path, golden_sha: str, seed: int, jobs: int
) -> ScheduleResult:
    """Kill shard 0's worker on both pooled attempts -> inline rescue."""
    output = root / "out-kill.json"
    injector = ChaosInjector(seed=seed, kill_shards={(0, 1), (0, 2)})
    with chaos(injector):
        code, _ = _run_to(world, output, "--jobs", str(jobs))
    return _compare("kill", code, output, golden_sha)


def _schedule_hang(
    root: Path, world: Path, golden_sha: str, seed: int, jobs: int
) -> ScheduleResult:
    """Hang shard 1's first attempt past the deadline -> kill + retry."""
    output = root / "out-hang.json"
    injector = ChaosInjector(
        seed=seed, hang_shards={(1, 1)}, hang_seconds=_HANG
    )
    with chaos(injector):
        code, _ = _run_to(
            world, output, "--jobs", str(jobs), "--shard-timeout", str(_DEADLINE)
        )
    return _compare("hang", code, output, golden_sha)


def _crashed_journal_run(
    root: Path, world: Path, seed: int, jobs: int, output: Path
) -> Tuple[Path, str]:
    """A journaled run killed after its result; returns (journal_dir, id)."""
    from repro.robust.journal import run_identity_for

    journal_dir = root / "journal"
    injector = ChaosInjector(seed=seed, crash_after_result=True)
    crashed = False
    try:
        with chaos(injector):
            _run_to(world, output, "--jobs", str(jobs), "--journal", str(journal_dir))
    except SimulatedCrash:
        crashed = True
    if not crashed:
        raise RuntimeError("chaos: the run finished before the scheduled crash")
    run_id = run_identity_for(world, _default_config(), "strict")
    return journal_dir, run_id


def _schedule_torn_journal(
    root: Path, world: Path, golden_sha: str, seed: int, jobs: int
) -> ScheduleResult:
    """Crash, tear the journaled result, resume -> byte-identical."""
    output = root / "out-torn.json"
    try:
        journal_dir, run_id = _crashed_journal_run(root, world, seed, jobs, output)
    except RuntimeError as exc:
        return ScheduleResult("torn-journal", False, str(exc))
    journal_path = journal_dir / f"{run_id}.journal.jsonl"
    if not journal_path.exists():
        return ScheduleResult("torn-journal", False, "no journal written")
    FaultInjector(seed).corrupt_file(journal_path, kind="truncated_file")
    code, _ = _run_to(
        world,
        output,
        "--jobs",
        str(jobs),
        "--journal",
        str(journal_dir),
        "--resume",
        run_id,
    )
    return _compare("torn-journal", code, output, golden_sha)


def _schedule_enospc(
    root: Path, world: Path, golden_sha: str, seed: int, jobs: int
) -> ScheduleResult:
    """Journal and cache writes hit ENOSPC -> run still completes."""
    output = root / "out-enospc.json"
    journal_dir = root / "journal-enospc"
    injector = ChaosInjector(
        seed=seed, journal_enospc_seqs=frozenset({0}), cache_enospc=True
    )
    with chaos(injector):
        code, _ = _run_to(
            world, output, "--jobs", str(jobs), "--journal", str(journal_dir)
        )
    return _compare("enospc", code, output, golden_sha)


def _schedule_corrupt_cache(
    root: Path, world: Path, golden_sha: str, seed: int, jobs: int
) -> ScheduleResult:
    """Bit-flip a *binary* cache entry between runs -> warm re-parse.

    Also pins the entry format: the cold run must have stored a
    struct-packed entry (the layout this release writes), so the flip
    lands in binary table data and the checksum verification — not a
    JSON parse error — is what catches it.  The warm run's metrics
    must show that detection (one ``perf.cache.invalid``, no hit): a
    flipped byte need not change the output, so equal bytes alone
    cannot tell a detected entry from a served one.
    """
    from repro.perf.cache import BINARY_MAGIC

    cache_dir = root / "cache"
    cold = root / "out-cache-cold.json"
    code, _ = _run_to(world, cold, "--jobs", "1", "--cache", str(cache_dir))
    result = _compare("corrupt-cache", code, cold, golden_sha)
    if not result.ok:
        return result
    entries = sorted(cache_dir.glob("*.mapitc"))
    if not entries:
        return ScheduleResult("corrupt-cache", False, "no cache entry stored")
    entry = entries[0]
    data = bytearray(entry.read_bytes())
    if not data.startswith(BINARY_MAGIC):
        return ScheduleResult(
            "corrupt-cache", False, "stored entry is not a binary entry"
        )
    position = len(data) // 2
    data[position] ^= 0xFF
    entry.write_bytes(bytes(data))
    warm = root / "out-cache-warm.json"
    metrics = root / "metrics-cache-warm.json"
    code, _ = _run_to(
        world, warm, "--jobs", "1", "--cache", str(cache_dir), "--metrics", str(metrics)
    )
    result = _compare("corrupt-cache", code, warm, golden_sha)
    if not result.ok:
        return result
    counters = json.loads(metrics.read_text())["counters"]
    detected = (counters.get("perf.cache.invalid", 0), counters.get("perf.cache.hits", 0))
    if detected != (1, 0):
        return ScheduleResult(
            "corrupt-cache",
            False,
            f"flipped entry not detected (invalid, hits) = {detected}, expected (1, 0)",
        )
    return result


def _schedule_serve(
    root: Path, world: Path, golden_sha: str, seed: int, jobs: int
) -> ScheduleResult:
    """Kill the serve daemon mid-ingest, resume -> byte-identical.

    The serve dataset is the world minus its traces file; the traces
    stream in through ``--follow``.  The schedule crashes the daemon
    after fold 12 — past the first durable checkpoint (fold 5, journal
    seq 0) — while the *second* checkpoint's journal write (seq 1)
    hits ``ENOSPC`` and degrades.  The resumed ``--once`` run must
    restore the surviving checkpoint, refold the tail, and emit
    exactly the batch golden bytes.
    """
    serve_dataset = root / "serve-dataset"
    if serve_dataset.exists():
        shutil.rmtree(serve_dataset)
    shutil.copytree(world, serve_dataset)
    (serve_dataset / "traces.txt").unlink()
    journal_dir = root / "journal-serve"
    output = root / "out-serve.json"
    serve_args = [
        "serve",
        str(serve_dataset),
        "--follow",
        str(world / "traces.txt"),
        "--once",
        "--json",
        "--output",
        str(output),
        "--journal",
        str(journal_dir),
        "--checkpoint-every",
        "5",
        "--quiesce-every",
        "7",
    ]
    injector = ChaosInjector(
        seed=seed,
        serve_crash_after_folds=12,
        journal_enospc_seqs=frozenset({1}),
    )
    crashed = False
    try:
        with chaos(injector):
            _run_cli(serve_args)
    except SimulatedCrash:
        crashed = True
    if not crashed:
        return ScheduleResult(
            "serve", False, "the daemon finished before the scheduled crash"
        )
    code, _, stderr = _run_cli([*serve_args, "--resume"])
    if "resume: restored checkpoint" not in stderr:
        return ScheduleResult("serve", False, "resume did not restore a checkpoint")
    return _compare("serve", code, output, golden_sha)


# ----------------------------------------------------------------------
# regression bundles


def write_bundle(path: Union[str, Path], outcome: ChaosOutcome) -> None:
    """Record a passing outcome as a replayable regression bundle."""
    atomic_write_json(path, outcome.to_bundle())


def replay_bundle(
    path: Union[str, Path],
    jobs: Optional[int] = None,
    workdir: Optional[Union[str, Path]] = None,
) -> ChaosOutcome:
    """Re-run a recorded bundle; also pins the golden output's digest.

    The recorded ``golden_sha256`` must reproduce exactly — this is the
    harness's determinism tripwire across interpreter and platform
    changes, independent of whether every schedule still self-agrees.
    """
    data = json.loads(Path(path).read_text())
    if data.get("version") != BUNDLE_VERSION:
        raise ValueError(
            f"unsupported chaos bundle version {data.get('version')!r}"
        )
    outcome = run_chaos(
        preset=data["preset"],
        seed=int(data["seed"]),
        schedules=list(data["schedules"]),
        jobs=jobs if jobs is not None else int(data.get("jobs", 4)),
        workdir=workdir,
    )
    expected = data["golden_sha256"]
    if outcome.golden_sha256 != expected:
        outcome.results.append(
            ScheduleResult(
                "golden-pin",
                False,
                f"golden sha {outcome.golden_sha256[:12]} != recorded "
                f"{expected[:12]}",
            )
        )
    else:
        outcome.results.append(ScheduleResult("golden-pin", True))
    return outcome
