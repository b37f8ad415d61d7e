"""Chaos schedules: the recovery paths, held to the core run's bytes.

MAP-IT's answer depends only on the trace set, so a run that is
killed, hung, torn or resumed must write the bytes of a clean run.
With ``chaos=...``, :func:`~repro.diff.harness.compare_world` saves the
world as a dataset directory and runs the real CLI under each schedule
(in-process, as a terminal user would; the ``serve`` schedule also
starts a daemon subprocess).  Every faulted run must write exactly the
comparison's own core run, ``result.to_json(indent=2)`` plus a
newline, which the oracle comparison checks in turn.  Each schedule
also reads its faulted run's ``--metrics`` and fails unless its fault
fired: equal bytes alone cannot tell a recovered fault from one that
never happened.  Every CLI call passes the comparison's config.

``serial`` (always runs first)
    ``run --jobs 1``, the reference path;
``kill``
    ``run --jobs 2``; shard 0's worker dies on both pooled attempts and
    the supervisor degrades the shard to inline execution;
``hang``
    ``run --jobs 2 --shard-timeout 0.75``; shard 1's worker stalls 5 s
    on its first attempt, is killed, and the retry succeeds;
``torn-journal``
    a journaled run crashes right after journaling its result, the
    journal is cut mid-line, and ``--resume`` re-runs the passes over
    the graph cached beside the journal;
``enospc``
    a journaled run whose first journal write and cache store fail
    with ``ENOSPC``: durability degrades, the run completes;
``corrupt-cache``
    a byte of a cold run's ``.mapitc`` entry is flipped; the warm run
    must detect it (no hit) and parse again;
``serve``
    a ``mapit serve`` daemon follows half the stream, answers HTTP
    queries, checkpoints, and is SIGKILLed; the rest of the stream
    lands and ``serve --resume --once`` restores the checkpoint while
    its first checkpoint write fails with ``ENOSPC``.

Pooled runs use two workers, the fewest that fork.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import urllib.request
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import cli
from repro.core.config import MapItConfig
from repro.diff.harness import ChaosRun
from repro.diff.worlds import World
from repro.io.bundle import find_traces
from repro.perf.cache import BINARY_MAGIC
from repro.robust.faults import ChaosInjector, FaultInjector, SimulatedCrash
from repro.robust.hooks import chaos
from repro.robust.journal import RunJournal

#: worker count of every pooled run: the fewest that fork
_JOBS = "2"
#: the hang schedule's deadline; its hang lasts several times longer
_DEADLINE = 0.75
_HANG = 5.0
#: how long the serve schedule waits on its daemon, in seconds
_SERVE_TIMEOUT = 60.0


class ScheduleFailed(Exception):
    """Why a schedule's faulted run does not count."""


def config_flags(config: MapItConfig) -> List[str]:
    """The ``mapit run``/``serve`` flags that build *config*.

    Raises :class:`ValueError` for a config the CLI cannot express.
    """
    expressible = MapItConfig(
        f=config.f,
        enable_stub_heuristic=config.enable_stub_heuristic,
        remove_rule=config.remove_rule,
    )
    if config != expressible:
        raise ValueError(f"the mapit CLI cannot express {config!r}")
    flags = ["--f", repr(config.f), "--remove-rule", config.remove_rule]
    if not config.enable_stub_heuristic:
        flags.append("--no-stub-heuristic")
    return flags


def run_schedules(
    world: World, config: MapItConfig, expected: str, schedules: Sequence[str]
) -> List[ChaosRun]:
    """Run ``serial`` and then *schedules* on *world*; each must write
    *expected* (the core run's JSON) and show its fault fired."""
    unknown = [name for name in schedules if name not in CHAOS_SCHEDULES]
    if unknown:
        raise ValueError(f"unknown chaos schedule(s): {', '.join(unknown)}")
    flags = config_flags(config)
    runs = []
    with tempfile.TemporaryDirectory(prefix="mapit-chaos-") as tmp, _without_env():
        root = Path(tmp)
        context = _Context(root, world.save(root / "world"), flags, expected.encode())
        for name in ("serial", *dict.fromkeys(schedules)):
            try:
                evidence = _SCHEDULES[name](context)
            except ScheduleFailed as failure:
                runs.append(ChaosRun(name, failure=str(failure)))
            else:
                runs.append(ChaosRun(name, evidence=evidence))
    return runs


@contextmanager
def _without_env() -> Iterator[None]:
    """Hide ``$MAPIT_*`` (cache, journal, jobs, deadline defaults) from
    the CLI calls, so each faulted run runs only what its flags say."""
    saved = {name: os.environ.pop(name) for name in list(os.environ) if name.startswith("MAPIT_")}
    try:
        yield
    finally:
        os.environ.update(saved)


@dataclass
class _Context:
    """One world saved for the schedules, and how to run the CLI on it."""

    root: Path
    dataset: Path
    flags: List[str]
    expected: bytes

    def written(
        self,
        label: str,
        command: Sequence[str],
        injector: Optional[ChaosInjector] = None,
    ) -> Tuple[Dict[str, int], str]:
        """Run ``mapit`` *command* in-process with *injector* armed, the
        config flags and ``--json --output --metrics``; fail unless it
        wrote the core bytes.  Returns its metric counters and stderr."""
        output = self.root / f"{label}.json"
        metrics = self.root / f"{label}.metrics.json"
        argv = [*command, *self.flags, "--json", "--output", str(output)]
        stderr = io.StringIO()
        armed = chaos(injector) if injector is not None else nullcontext()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr), armed:
            code = cli.main([*argv, "--metrics", str(metrics)])
        if code != 0:
            last = stderr.getvalue().strip().splitlines()[-1:] or [""]
            raise ScheduleFailed(f"{label} exited {code}: {last[0]}")
        if not output.exists() or output.read_bytes() != self.expected:
            raise ScheduleFailed(f"{label} output differs from the core bytes")
        return json.loads(metrics.read_text())["counters"], stderr.getvalue()

    def run(
        self, label: str, *argv: str, injector: Optional[ChaosInjector] = None
    ) -> Dict[str, int]:
        """``mapit run`` on the dataset; returns its counters."""
        return self.written(label, ["run", str(self.dataset), *argv], injector)[0]


def _fired(counters: Dict[str, int], least: Dict[str, int]) -> str:
    """The evidence line, or a failure naming each counter below its
    least value."""
    short = [
        f"{name} {counters.get(name, 0)} < {value}"
        for name, value in least.items()
        if counters.get(name, 0) < value
    ]
    if short:
        raise ScheduleFailed("did not fire: " + ", ".join(short))
    return ", ".join(f"{name} {counters[name]}" for name in least)


def _journal_of(directory: Path) -> Tuple[Path, str]:
    """The one journal in *directory* and its run id."""
    journals = sorted(directory.glob("*.journal.jsonl"))
    if len(journals) != 1:
        raise ScheduleFailed(f"expected one journal in {directory.name}, found {len(journals)}")
    return journals[0], journals[0].name[: -len(".journal.jsonl")]


# ----------------------------------------------------------------------
# schedules: each returns its evidence or raises ScheduleFailed


def _serial(context: _Context) -> str:
    context.run("serial", "--jobs", "1")
    return ""


def _kill(context: _Context) -> str:
    injector = ChaosInjector(kill_shards={(0, 1), (0, 2)})
    counters = context.run("kill", "--jobs", _JOBS, injector=injector)
    return _fired(
        counters,
        {"robust.supervise.worker_deaths": 2, "robust.supervise.degraded_inline": 1},
    )


def _hang(context: _Context) -> str:
    injector = ChaosInjector(hang_shards={(1, 1)}, hang_seconds=_HANG)
    counters = context.run(
        "hang", "--jobs", _JOBS, "--shard-timeout", str(_DEADLINE), injector=injector
    )
    return _fired(counters, {"robust.supervise.timeouts": 1})


def _torn_journal(context: _Context) -> str:
    journal = context.root / "journal-torn"
    argv = ("--jobs", _JOBS, "--journal", str(journal))
    try:
        context.run("torn", *argv, injector=ChaosInjector(crash_after_result=True))
    except SimulatedCrash:
        pass
    else:
        raise ScheduleFailed("did not fire: the journaled run did not crash")
    path, run_id = _journal_of(journal)
    FaultInjector(0).corrupt_file(path, kind="truncated_file")
    counters = context.run("torn-resume", *argv, "--resume", run_id)
    return "crashed after its result, " + _fired(
        counters, {"robust.journal.torn_tail": 1, "perf.cache.hits": 1}
    )


def _enospc(context: _Context) -> str:
    journal = context.root / "journal-enospc"
    injector = ChaosInjector(journal_enospc_seqs={0}, cache_enospc=True)
    counters = context.run(
        "enospc", "--jobs", _JOBS, "--journal", str(journal), injector=injector
    )
    return _fired(
        counters, {"robust.journal.write_failed": 1, "perf.cache.store_failed": 1}
    )


def _corrupt_cache(context: _Context) -> str:
    cache = context.root / "cache"
    context.run("cache-cold", "--jobs", "1", "--cache", str(cache))
    entries = sorted(cache.glob("*.mapitc"))
    if not entries:
        raise ScheduleFailed("the cold run stored no cache entry")
    data = bytearray(entries[0].read_bytes())
    if not data.startswith(BINARY_MAGIC):
        raise ScheduleFailed("the stored entry is not a binary entry")
    data[len(data) // 2] ^= 0xFF
    entries[0].write_bytes(bytes(data))
    counters = context.run("cache-warm", "--jobs", "1", "--cache", str(cache))
    if counters.get("perf.cache.hits", 0):
        raise ScheduleFailed("did not fire: the warm run served the flipped entry")
    return _fired(counters, {"perf.cache.invalid": 1}) + ", perf.cache.hits 0"


def _serve(context: _Context) -> str:
    dataset = context.root / "serve-dataset"
    shutil.copytree(context.dataset, dataset)
    find_traces(dataset).unlink()
    stream = context.root / "stream.txt"
    stream.write_text("")
    journal = context.root / "journal-serve"
    lines = find_traces(context.dataset).read_text().splitlines(keepends=True)
    half = max(1, len(lines) // 2)
    # every 5 folds, or often enough for a shrunk world's first half
    checkpoint_every = str(min(5, half))
    session = [
        "serve", str(dataset), "--follow", str(stream), "--journal", str(journal),
        "--checkpoint-every", checkpoint_every, "--quiesce-every", "7",
    ]
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", *session, *context.flags,
            "--http", "0", "--poll-interval", "0.05",
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=_child_env(),
    )
    try:
        deadline = time.monotonic() + _SERVE_TIMEOUT
        port = _read_port(daemon)
        with open(stream, "a") as handle:
            handle.writelines(lines[:half])
        _query(port, json.loads(context.expected)["inferences"][:1], deadline)
        if daemon.poll() is not None:
            raise ScheduleFailed(f"the daemon exited {daemon.returncode} before the kill")
    except OSError as exc:  # the daemon's HTTP API failed (urllib raises OSError)
        raise ScheduleFailed(f"serve query failed: {exc}") from exc
    finally:
        daemon.kill()  # SIGKILL: no drain, no final checkpoint
        daemon.wait(timeout=10)
        daemon.stderr.close()
    with open(stream, "a") as handle:
        handle.writelines(lines[half:])
    # the resumed run appends after the verified records it restores from
    seq = len(RunJournal(journal, _journal_of(journal)[1]).read())
    counters, stderr = context.written(
        "serve",
        [*session, "--resume", "--once"],
        ChaosInjector(journal_enospc_seqs={seq}),
    )
    if "resume: restored checkpoint" not in stderr:
        raise ScheduleFailed("did not fire: the resume restored no checkpoint")
    return "resume: restored checkpoint, " + _fired(
        counters, {"robust.journal.write_failed": 1}
    )


def _child_env() -> Dict[str, str]:
    """The environment of a ``mapit`` subprocess: this interpreter's
    ``repro`` first on the path, no ``$MAPIT_*`` defaults."""
    source = str(Path(cli.__file__).resolve().parents[1])
    env = {name: value for name, value in os.environ.items() if not name.startswith("MAPIT_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (source, env.get("PYTHONPATH"))))
    return env


def _read_port(daemon: "subprocess.Popen[str]") -> int:
    """The ephemeral port from the daemon's ``serve: http on`` banner."""
    assert daemon.stderr is not None
    for line in iter(daemon.stderr.readline, ""):
        if "serve: http on" in line:
            return int(line.rsplit(":", 1)[1])
    raise ScheduleFailed(f"the daemon exited {daemon.wait()} before serving http")


def _get(port: int, path: str) -> dict:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=5.0) as response:
        return json.loads(response.read().decode())


def _query(port: int, probes: List[dict], deadline: float) -> None:
    """Poll ``/health`` until a checkpoint is durable, then check
    ``/fingerprint``, ``/links`` and ``/explain`` answer mid-stream."""
    while True:
        health = _get(port, "/health")
        if health["stats"]["checkpoints"] >= 1:
            break
        if time.monotonic() > deadline:
            raise ScheduleFailed("the daemon wrote no checkpoint in time")
        time.sleep(0.05)
    fingerprint = _get(port, "/fingerprint")
    if fingerprint["seq"] == health["seq"] and (
        fingerprint["fingerprint"] != health["fingerprint"]
    ):
        raise ScheduleFailed("/fingerprint and /health disagree at the same seq")
    for probe in probes:
        if not isinstance(_get(port, f"/links?asn={probe['local_as']}")["links"], list):
            raise ScheduleFailed("/links answered no link list")
        if not isinstance(_get(port, f"/explain?address={probe['address']}")["records"], list):
            raise ScheduleFailed("/explain answered no record list")


#: every schedule by name, in run order
_SCHEDULES: Dict[str, Callable[[_Context], str]] = {
    "serial": _serial,
    "kill": _kill,
    "hang": _hang,
    "torn-journal": _torn_journal,
    "enospc": _enospc,
    "corrupt-cache": _corrupt_cache,
    "serve": _serve,
}
#: the schedules ``--chaos`` can name; ``serial`` runs before any of them
CHAOS_SCHEDULES = tuple(name for name in _SCHEDULES if name != "serial")
