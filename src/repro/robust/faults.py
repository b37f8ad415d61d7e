"""Deterministic fault injection for ingestion-robustness testing.

Degradation has to be testable to be trusted, so this module damages
datasets the way the wild damages them — along a small taxonomy of
fault kinds — with a seeded RNG so every corruption is reproducible:

======================  ==================================================
kind                    what it does
======================  ==================================================
``garbled_line``        replaces a record with separator-free junk
``invalid_address``     rewrites an address into an out-of-range quad
``null_field``          nulls/removes a required field (dst)
``byte_flip``           flips one byte high (non-ASCII) inside a record
``truncated_file``      cuts a file mid-line, as a crash mid-write would
``empty_file``          truncates a file to zero bytes
======================  ==================================================

Line-level kinds are guaranteed to make the record unparseable, which
keeps accounting exact: a corruptor that *sometimes* produces a
still-valid line would make "lenient mode skipped N records" untestable.
The injector also damages in-memory traces (cycles, all-gap hop lists,
truncations) to exercise the sanitizer, and can simulate a crash partway
through a write for atomicity tests.
"""

from __future__ import annotations

import errno
import json
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.traceroute.model import Hop, Trace

#: line-level fault kinds, applicable to individual records
LINE_FAULTS = ("garbled_line", "invalid_address", "null_field", "byte_flip")
#: file-level fault kinds, applicable to whole files
FILE_FAULTS = ("truncated_file", "empty_file")
#: in-memory trace fault kinds, applicable to Trace objects
TRACE_FAULTS = ("cycle", "all_gaps", "truncated_hops")
#: engine-logic fault kinds, applicable via :func:`engine_fault`
ENGINE_FAULTS = ("count_inflate", "member_high")

FAULT_KINDS = LINE_FAULTS + FILE_FAULTS


class SimulatedCrash(RuntimeError):
    """Raised by :meth:`FaultInjector.crash_after` to model a mid-write kill."""


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault: what was damaged, where, and how."""

    kind: str
    target: str
    line_number: Optional[int] = None
    detail: str = ""

    def __str__(self) -> str:
        where = f":{self.line_number}" if self.line_number is not None else ""
        return f"{self.kind} @ {self.target}{where}"


class FaultInjector:
    """Seedable, deterministic corruptor for datasets and traces."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------
    # line-level faults

    def corrupt_line(self, line: str, kind: str, format: str = "text") -> str:
        """Damage one record so it can no longer be parsed."""
        if kind == "garbled_line":
            # '#' is excluded: a junk line starting with it would be
            # skipped as a comment instead of counted as malformed.
            junk = "".join(
                self._rng.choice("!%&?~^=;") for _ in range(self._rng.randint(6, 18))
            )
            return junk if format == "text" else "{" + junk
        if kind == "invalid_address":
            bad = f"{self._rng.randint(300, 999)}.0.0.{self._rng.randint(300, 999)}"
            if format == "text":
                head, _, _ = line.partition("|")
                return f"{head}|{bad}|{bad}"
            record = self._load_json(line)
            record["dst"] = bad
            return json.dumps(record, separators=(",", ":"))
        if kind == "null_field":
            if format == "text":
                head, _, tail = line.partition("|")
                rest = tail.partition("|")[2]
                return f"{head}||{rest}"  # empty dst field
            record = self._load_json(line)
            record["dst"] = None
            return json.dumps(record, separators=(",", ":"))
        if kind == "byte_flip":
            # Damage one byte so the line is guaranteed malformed
            # wherever it lands.  Text format: flip the high bit of a
            # byte in the dst/hops region — never a digit, dot, or
            # separator afterwards.  JSON: overwrite with a raw control
            # character, which json.loads rejects in any position.
            if format == "text":
                payload_start = line.find("|") + 1
                if payload_start >= len(line):
                    payload_start = 0
                # Never flip a space: 0x20 | 0x80 is U+00A0, which
                # str.split() still treats as whitespace, leaving the
                # line parseable.
                candidates = [
                    index
                    for index in range(payload_start, len(line))
                    if not line[index].isspace()
                ]
                position = self._rng.choice(candidates) if candidates else 0
                flipped = chr(ord(line[position]) | 0x80)
            else:
                position = self._rng.randrange(len(line)) if line else 0
                flipped = "\x00"
            return line[:position] + flipped + line[position + 1 :]
        raise ValueError(f"unknown line fault kind {kind!r}")

    def _load_json(self, line: str) -> dict:
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            return {"dst": None}
        return record if isinstance(record, dict) else {"dst": None}

    def corrupt_lines(
        self,
        lines: Iterable[str],
        rate: float,
        kinds: Sequence[str] = LINE_FAULTS,
        format: str = "text",
    ) -> Tuple[List[str], List[FaultRecord]]:
        """Corrupt a *rate* fraction of lines; returns (lines, faults).

        The returned :class:`FaultRecord` list names the exact 1-based
        line numbers damaged, so tests can reconstruct the clean subset.
        """
        out: List[str] = []
        faults: List[FaultRecord] = []
        for line_number, line in enumerate(lines, start=1):
            if line.strip() and self._rng.random() < rate:
                kind = self._rng.choice(list(kinds))
                out.append(self.corrupt_line(line, kind, format))
                faults.append(FaultRecord(kind, "lines", line_number))
            else:
                out.append(line)
        return out, faults

    # ------------------------------------------------------------------
    # file- and dataset-level faults

    def corrupt_file(
        self,
        path: Union[str, Path],
        kind: str = "byte_flip",
        rate: float = 0.05,
        format: Optional[str] = None,
    ) -> List[FaultRecord]:
        """Damage one file in place; returns the injected faults."""
        path = Path(path)
        if format is None:
            format = "jsonl" if path.suffix == ".jsonl" else "text"
        if kind == "empty_file":
            path.write_bytes(b"")
            return [FaultRecord(kind, path.name)]
        if kind == "truncated_file":
            data = path.read_bytes()
            if len(data) < 2:
                return []
            # Cut somewhere in the second half, never exactly on a
            # newline boundary, leaving a partial final record.
            cut = self._rng.randrange(len(data) // 2, len(data) - 1)
            while cut > 1 and data[cut - 1 : cut] == b"\n":
                cut -= 1
            path.write_bytes(data[:cut])
            return [FaultRecord(kind, path.name, detail=f"cut at byte {cut}")]
        if kind in LINE_FAULTS:
            lines = path.read_text().splitlines()
            damaged, faults = self.corrupt_lines(lines, rate, (kind,), format)
            path.write_text("\n".join(damaged) + ("\n" if damaged else ""))
            return [
                FaultRecord(fault.kind, path.name, fault.line_number)
                for fault in faults
            ]
        raise ValueError(f"unknown file fault kind {kind!r}")

    def corrupt_dataset(
        self,
        directory: Union[str, Path],
        rate: float = 0.05,
        kinds: Sequence[str] = LINE_FAULTS,
        targets: Sequence[str] = ("traces.txt", "traces.jsonl"),
    ) -> List[FaultRecord]:
        """Damage the trace files of a dataset directory in place."""
        root = Path(directory)
        faults: List[FaultRecord] = []
        line_kinds = [kind for kind in kinds if kind in LINE_FAULTS]
        file_kinds = [kind for kind in kinds if kind in FILE_FAULTS]
        for name in targets:
            path = root / name
            if not path.exists():
                continue
            if line_kinds:
                format = "jsonl" if path.suffix == ".jsonl" else "text"
                lines = path.read_text().splitlines()
                damaged, line_faults = self.corrupt_lines(
                    lines, rate, line_kinds, format
                )
                path.write_text("\n".join(damaged) + ("\n" if damaged else ""))
                faults.extend(
                    FaultRecord(fault.kind, name, fault.line_number)
                    for fault in line_faults
                )
            for kind in file_kinds:
                faults.extend(self.corrupt_file(path, kind))
        return faults

    # ------------------------------------------------------------------
    # in-memory trace faults

    def corrupt_trace(self, trace: Trace, kind: str) -> Trace:
        """Damage one in-memory trace along the sanitizer's taxonomy."""
        hops = list(trace.hops)
        if kind == "all_gaps":
            return trace.replace_hops(tuple(Hop(None) for _ in hops))
        if kind == "truncated_hops":
            if len(hops) > 1:
                keep = self._rng.randrange(1, len(hops))
                hops = hops[:keep]
            return trace.replace_hops(tuple(hops))
        if kind == "cycle":
            responsive = [i for i, hop in enumerate(hops) if hop.responded]
            if len(responsive) >= 2:
                first, last = responsive[0], responsive[-1]
                if last - first > 1:
                    hops[last] = hops[first]
            return trace.replace_hops(tuple(hops))
        raise ValueError(f"unknown trace fault kind {kind!r}")

    def corrupt_traces(
        self,
        traces: Iterable[Trace],
        rate: float,
        kinds: Sequence[str] = TRACE_FAULTS,
    ) -> Tuple[List[Trace], List[FaultRecord]]:
        """Damage a *rate* fraction of in-memory traces."""
        out: List[Trace] = []
        faults: List[FaultRecord] = []
        for index, trace in enumerate(traces):
            if self._rng.random() < rate:
                kind = self._rng.choice(list(kinds))
                out.append(self.corrupt_trace(trace, kind))
                faults.append(FaultRecord(kind, "traces", index))
            else:
                out.append(trace)
        return out, faults

    # ------------------------------------------------------------------
    # crash simulation

    def crash_after(self, items: Iterable, count: int) -> Iterator:
        """Yield *count* items, then raise :class:`SimulatedCrash`.

        Wrap the line iterator feeding a writer with this to model the
        process being killed partway through emitting a file.
        """
        for index, item in enumerate(items):
            if index >= count:
                raise SimulatedCrash(f"simulated crash after {count} item(s)")
            yield item


# ----------------------------------------------------------------------
# process-level chaos


@dataclass
class ChaosInjector:
    """Seeded process-level fault schedule for the chaos schedules
    (:mod:`repro.diff.chaos`) and the recovery tests.

    One injector describes *when* faults fire, keyed by deterministic
    coordinates — ``(shard_index, attempt)`` for worker faults, journal
    sequence numbers for write faults, the journaled result for the
    crash — so the same schedule replays identically on every run.
    Worker faults are pid-guarded: they only fire in forked children,
    never in the parent, so the supervisor's inline degradation (and
    every serial run) always stays clean.

    ``kill_shards``
        ``(shard_index, attempt)`` pairs whose worker dies abruptly
        (``os._exit(137)``) mid-shard;
    ``hang_shards``
        pairs whose worker stalls ``hang_seconds`` — long enough to
        blow any reasonable ``--shard-timeout``;
    ``journal_enospc_seqs``
        journal sequence numbers whose append fails with ``ENOSPC``
        (fires once per seq);
    ``cache_enospc``
        the next ``.mapitc`` cache store fails with ``ENOSPC``
        (fires once);
    ``crash_after_result``
        raise :class:`SimulatedCrash` right after a journaled run's
        result is journaled — the resume test's kill switch.
    """

    seed: int = 0
    kill_shards: FrozenSet[Tuple[int, int]] = frozenset()
    hang_shards: FrozenSet[Tuple[int, int]] = frozenset()
    hang_seconds: float = 5.0
    journal_enospc_seqs: FrozenSet[int] = frozenset()
    cache_enospc: bool = False
    crash_after_result: bool = False
    _parent_pid: int = field(default_factory=os.getpid)
    _fired: Set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.kill_shards = frozenset(tuple(pair) for pair in self.kill_shards)
        self.hang_shards = frozenset(tuple(pair) for pair in self.hang_shards)
        self.journal_enospc_seqs = frozenset(self.journal_enospc_seqs)

    def maybe_fault_shard(self, index: int, attempt: int) -> None:
        """Kill or hang the *worker* running (shard, attempt) — children only."""
        if os.getpid() == self._parent_pid:
            return
        if (index, attempt) in self.kill_shards:
            os._exit(137)
        if (index, attempt) in self.hang_shards:
            time.sleep(self.hang_seconds)

    def maybe_fail_write(self, kind: str, seq: int = 0) -> None:
        """Raise ``ENOSPC`` for a scheduled journal/cache write (once each)."""
        key = f"{kind}:{seq}"
        if key in self._fired:
            return
        scheduled = (kind == "journal" and seq in self.journal_enospc_seqs) or (
            kind == "cache" and self.cache_enospc
        )
        if scheduled:
            self._fired.add(key)
            raise OSError(errno.ENOSPC, f"chaos: no space left ({kind} #{seq})")

    def maybe_crash_after_result(self) -> None:
        """Model the process dying right after its result was journaled."""
        if self.crash_after_result:
            raise SimulatedCrash("simulated crash after the journaled result")


# ----------------------------------------------------------------------
# engine-logic faults


def _half_selected(half, rate: float, seed: int) -> bool:
    """Deterministic per-half selection: the same (seed, half) always
    decides the same way, independent of call order or call count."""
    return random.Random(f"{seed}:{half[0]}:{half[1]}").random() < rate


@contextmanager
def engine_fault(kind: str = "count_inflate", rate: float = 0.3, seed: int = 0):
    """Temporarily seed a counting bug into the production engine.

    The differential harness (:mod:`repro.diff`) needs a way to prove
    it *would* catch a real tally bug, and the shrinker needs genuine
    diverging worlds to minimize.  Within the context,
    :meth:`repro.core.engine.Engine.plurality` misbehaves on a
    deterministic *rate* fraction of halves:

    ``count_inflate``
        reports the winning count one higher than it is, so the f
        threshold and both remove tests (add_rule's f test and the
        default majority test, which read the same plurality) pass
        where they should fail;
    ``member_high``
        records the *highest*-numbered member AS of the winning
        sibling group instead of the most frequent one.

    The paper-literal oracle is untouched, so every misbehaving half
    that changes an inference becomes a divergence.  The original
    method is restored on exit, even on error.
    """
    if kind not in ENGINE_FAULTS:
        raise ValueError(f"unknown engine fault kind {kind!r}")
    from repro.core.engine import Engine, Plurality

    original = Engine.plurality

    def faulty(self, half):
        result = original(self, half)
        if result is None or not _half_selected(half, rate, seed):
            return result
        if kind == "count_inflate":
            return Plurality(
                result.canonical_as,
                result.member_as,
                result.count + 1,
                result.total,
            )
        _, member_counts, _ = self.count_groups(half)
        members = member_counts.get(result.canonical_as, {})
        member = max(members) if members else result.member_as
        return Plurality(result.canonical_as, member, result.count, result.total)

    Engine.plurality = faulty
    try:
        yield
    finally:
        Engine.plurality = original


@contextmanager
def dirty_tracking_fault(rate: float = 0.5, seed: int = 0) -> Iterator[None]:
    """Temporarily drop a fraction of serve's dirty-half invalidations.

    Simulates the canonical incremental-engine bug — a stale cached
    tally (and a missed newly eligible candidate) surviving a
    neighbor-set change — so tests can prove the serve replay of
    :func:`repro.diff.harness.compare_world` catches it.  Only
    :meth:`repro.core.engine.Engine.invalidate_halves` misbehaves, which
    batch runs never call, so the batch reference stays correct.
    Selection is per-half deterministic (the same ``(seed, half)``
    always drops), so shrinking under the fault converges.  The
    original method is restored on exit, even on error.
    """
    from repro.core.engine import Engine

    original = Engine.invalidate_halves

    def leaky(self, halves):
        kept = [half for half in halves if not _half_selected(half, rate, seed)]
        return original(self, kept)

    Engine.invalidate_halves = leaky
    try:
        yield
    finally:
        Engine.invalidate_halves = original
