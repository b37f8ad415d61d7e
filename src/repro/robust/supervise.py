"""Supervised shard execution: deadlines, retries, inline degradation.

:func:`repro.perf.pool.fork_map` used to hand its shards to a bare
``Pool.map`` — one hung or OOM-killed worker stalled or aborted the
whole run.  This module is the replacement substrate: shards are
dispatched individually via ``apply_async``, each dispatch is watched
by the parent (a start *sentinel* from the worker arms the per-shard
deadline; the worker's ``Process.exitcode`` exposes abrupt deaths), and
a shard that times out, crashes, or raises is retried with capped
exponential backoff.  The final attempt runs *inline in the parent* —
the degraded path is the serial path, so a poisoned pool can never fail
a run that serial mode would complete.

Deadlines are a user contract, so the inline attempt enforces them too
when it can (``SIGALRM`` on the main thread of a POSIX process); a
shard that exceeds its deadline everywhere raises
:class:`ShardDeadlineExhausted`, which the CLI maps to exit code 124.

Every attempt, timeout, death, and degradation feeds the
``robust.supervise.*`` metrics (docs/OBSERVABILITY.md) and, when a
budget is armed, the :class:`~repro.robust.errors.ErrorBudget` over the
fraction of shards that needed rescue.

This is the only module allowed to talk to ``multiprocessing.Pool``
directly — mapitlint rule FORK002 enforces that every other call site
goes through :func:`repro.perf.pool.fork_map`.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.observer import NULL_OBS, Observability
from repro.robust.errors import ErrorBudget

#: shard index range, as in :mod:`repro.perf.pool`
Shard = Tuple[int, int]

#: how often the parent polls sentinels, results, and worker exitcodes
_POLL_INTERVAL = 0.02

#: how long after a worker's death we keep waiting for an in-flight
#: result before declaring its shard lost (the pool's result-handler
#: thread may still deliver a value the worker sent before dying)
_DEATH_GRACE = 0.25


class ShardDeadlineExhausted(RuntimeError):
    """A shard missed its deadline on every attempt, including inline.

    The CLI maps this to exit code 124 (the ``timeout(1)`` convention).
    """

    def __init__(self, shard: Shard, attempts: int, timeout: float) -> None:
        self.shard = shard
        self.attempts = attempts
        self.timeout = timeout
        super().__init__(
            f"shard {shard} exceeded its {timeout:g}s deadline on all "
            f"{attempts} attempt(s), including inline execution"
        )


#: every try of a shard, the final inline one included: two pooled
#: tries, then the in-parent fallback
MAX_ATTEMPTS = 3

#: backoff before retry round *n* is
#: ``min(BACKOFF_CAP, BACKOFF_BASE * 2**(n-1))`` seconds
BACKOFF_BASE = 0.05
BACKOFF_CAP = 1.0


def default_shard_timeout() -> Optional[float]:
    """The per-shard deadline used when a caller does not pass one.

    Reads ``MAPIT_SHARD_TIMEOUT`` (seconds; the CLI's
    ``--shard-timeout`` overrides it) and falls back to no deadline,
    which a value that is not finite and > 0 also means.
    """
    raw = os.environ.get("MAPIT_SHARD_TIMEOUT", "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if 0 < value < math.inf else None


# ----------------------------------------------------------------------
# worker side

#: parent-created sentinel queue, inherited by forked workers; carries
#: ("start", shard_index, attempt, pid) messages that arm deadlines
_SENTINEL_QUEUE: Any = None


def _quiet_worker_signals() -> None:
    """Pool initializer: workers must not traceback-spray on interrupt.

    The parent owns interrupt handling (terminate children, restore
    state, exit 130).  Workers ignore SIGINT, and drop any inherited
    SIGTERM handler back to the default so ``Pool.terminate`` stops
    them silently instead of replaying the parent's interrupt logic.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _supervised_entry(
    worker: Callable[[Shard], Any], shard: Shard, index: int, attempt: int
) -> Tuple[int, int, Any]:
    """Runs in the worker: announce the start, then run the shard."""
    queue = _SENTINEL_QUEUE
    if queue is not None:
        queue.put((index, attempt, os.getpid()))
    from repro.robust.hooks import active_chaos

    chaos = active_chaos()
    if chaos is not None:
        chaos.maybe_fault_shard(index, attempt)
    return index, attempt, worker(shard)


# ----------------------------------------------------------------------
# parent side


def _alarm_usable() -> bool:
    """SIGALRM-based inline deadlines need POSIX and the main thread."""
    return hasattr(signal, "SIGALRM") and (
        threading.current_thread() is threading.main_thread()
    )


def _run_inline(
    worker: Callable[[Shard], Any],
    shard: Shard,
    attempts: int,
    timeout: Optional[float],
) -> Any:
    """The final, in-parent attempt — the serial path, deadline-armed.

    When a deadline is configured and enforceable (``SIGALRM``), an
    overrun raises :class:`ShardDeadlineExhausted`; without enforcement
    the shard simply runs to completion, exactly like serial mode.
    """
    if timeout is None or not _alarm_usable():
        return worker(shard)

    def _on_alarm(signum, frame):
        raise ShardDeadlineExhausted(shard, attempts, timeout)

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return worker(shard)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class _Unset:
    __slots__ = ()


_UNSET = _Unset()


def supervised_pool_map(
    worker: Callable[[Shard], Any],
    ranges: Sequence[Shard],
    jobs: int,
    *,
    timeout: Optional[float] = None,
    obs: Observability = NULL_OBS,
    budget: Optional[ErrorBudget] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """Run *worker* over *ranges* in a supervised ``fork`` pool.

    The caller (:func:`repro.perf.pool.fork_map`) has already stashed
    the shared payload; results come back in shard order, exactly as
    ``pool.map`` would return them.  *timeout* is the per-shard
    deadline in seconds (``None``: none; worker deaths are still
    detected and retried); each shard gets :data:`MAX_ATTEMPTS` tries.
    Raises whatever the worker raises (after retries and the inline
    fallback), or :class:`ShardDeadlineExhausted` when a deadline
    can't be met even inline.

    *on_result*, when given, fires in the parent with ``(index, value)``
    the moment a shard's result lands — exactly once per shard, in
    completion (not shard) order.  Checkpointing callers (the sweep
    orchestrator) use it to make each shard durable before the map as a
    whole finishes; a crash mid-map then loses only in-flight shards.
    """
    global _SENTINEL_QUEUE
    context = multiprocessing.get_context("fork")
    results: List[Any] = [_UNSET] * len(ranges)
    attempts: Dict[int, int] = {index: 0 for index in range(len(ranges))}
    todo = list(range(len(ranges)))
    rescued: set = set()
    round_number = 0
    pool = None
    try:
        while todo:
            round_number += 1
            if round_number > 1:
                delay = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** (round_number - 2)))
                time.sleep(delay)
            pooled, inline = [], []
            for index in todo:
                attempts[index] += 1
                if attempts[index] >= MAX_ATTEMPTS:
                    inline.append(index)
                else:
                    pooled.append(index)
            done: Dict[int, Any] = {}
            failed: Dict[int, str] = {}
            if pooled:
                if pool is None:
                    _SENTINEL_QUEUE = context.SimpleQueue()
                    pool = context.Pool(
                        processes=min(jobs, len(ranges)),
                        initializer=_quiet_worker_signals,
                    )
                done, failed = _dispatch_round(
                    pool, worker, ranges, pooled, attempts, timeout, obs,
                    on_result=on_result,
                )
                if failed:
                    # A worker died or overran inside this pool; assume
                    # nothing about its shared queues and rebuild.
                    _shutdown_pool(pool)
                    pool = None
                    _SENTINEL_QUEUE = None
            for index, value in done.items():
                results[index] = value
            for index in inline:
                obs.inc("robust.supervise.degraded_inline")
                rescued.add(index)
                results[index] = _run_inline(
                    worker, ranges[index], attempts[index], timeout
                )
                if on_result is not None:
                    on_result(index, results[index])
            rescued.update(failed)
            todo = sorted(failed)
            if todo:
                obs.inc("robust.supervise.retries", len(todo))
    finally:
        if pool is not None:
            _shutdown_pool(pool)
        _SENTINEL_QUEUE = None
    if budget is not None:
        budget.check("supervise", len(rescued), len(ranges))
    assert not any(value is _UNSET for value in results)
    return results


def _shutdown_pool(pool) -> None:
    """Terminate children promptly and reap them."""
    pool.terminate()
    pool.join()


def _pool_processes(pool) -> Dict[int, Any]:
    """pid -> Process for the pool's current workers (best effort)."""
    processes = {}
    for process in getattr(pool, "_pool", []) or []:
        if process.pid is not None:
            processes[process.pid] = process
    return processes


def _dispatch_round(
    pool,
    worker: Callable[[Shard], Any],
    ranges: Sequence[Shard],
    todo: Sequence[int],
    attempts: Dict[int, int],
    timeout: Optional[float],
    obs: Observability,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> Tuple[Dict[int, Any], Dict[int, str]]:
    """Dispatch one attempt of every shard in *todo*; watch them all.

    Returns ``(done, failed)`` — shard index to result value, and shard
    index to failure reason (``timeout`` / ``worker-died`` /
    ``error: ...``).  Never raises for a shard failure; the caller
    decides between retry and inline degradation.  *on_result* fires as
    each successful result arrives, before the round returns.
    """
    queue = _SENTINEL_QUEUE
    tasks = {}
    for index in todo:
        obs.inc("robust.supervise.dispatched")
        tasks[index] = pool.apply_async(
            _supervised_entry, (worker, ranges[index], index, attempts[index])
        )
    known = _pool_processes(pool)
    started: Dict[int, Tuple[float, int]] = {}
    dying_since: Dict[int, float] = {}
    done: Dict[int, Any] = {}
    failed: Dict[int, str] = {}
    while len(done) + len(failed) < len(tasks):
        while queue is not None and not queue.empty():
            index, attempt, pid = queue.get()
            if attempt == attempts.get(index):
                started[index] = (time.monotonic(), pid)
        known.update(_pool_processes(pool))
        now = time.monotonic()
        for index, task in tasks.items():
            if index in done or index in failed:
                continue
            if task.ready():
                try:
                    _, _, value = task.get()
                    done[index] = value
                except BaseException as exc:  # noqa: BLE001 - retried, then surfaced inline
                    obs.inc("robust.supervise.worker_errors")
                    failed[index] = f"error: {type(exc).__name__}: {exc}"
                else:
                    # Outside the try: a raising callback must surface,
                    # not be misread as a shard failure and retried.
                    if on_result is not None:
                        on_result(index, value)
                continue
            start = started.get(index)
            if start is None:
                continue
            start_time, pid = start
            if timeout is not None and now - start_time > timeout:
                obs.inc("robust.supervise.timeouts")
                failed[index] = "timeout"
                _kill_worker(pid)
                continue
            process = known.get(pid)
            if process is not None and process.exitcode is not None:
                if index not in dying_since:
                    dying_since[index] = now
                elif now - dying_since[index] > _DEATH_GRACE:
                    obs.inc("robust.supervise.worker_deaths")
                    failed[index] = f"worker-died: exit code {process.exitcode}"
        if len(done) + len(failed) < len(tasks):
            time.sleep(_POLL_INTERVAL)
    return done, failed


def _kill_worker(pid: int) -> None:
    """Free a hung pool slot; the pool replaces the killed worker."""
    try:
        os.kill(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
