"""The serve daemon: bounded ingest, quiesce cadence, atomic snapshots.

:class:`ServeDaemon` glues the streaming pieces together
(docs/SERVE.md has the state machine):

* reader threads (file tail, socket connections) call :meth:`offer`,
  which either enqueues a raw line or — when the bounded queue is full
  — *sheds* it deterministically (drop-newest, count, feed the
  ErrorBudget at the next quiesce);
* one pump (the daemon's worker thread, or the caller itself in
  ``--once`` mode) drains the queue: parse via the fused loader's
  :func:`~repro.robust.ingest.record_parser`, fold the record into the
  :class:`~repro.serve.incremental.IncrementalIndex`, and every
  ``quiesce_every`` folds re-run the dirty-region multipass and publish
  a fresh immutable :class:`ServeSnapshot` by a single reference swap
  (atomic under the GIL — readers never observe a torn state), patched
  from the previous one for the records that changed;
* every ``checkpoint_every`` folds the fold state and source offsets
  and line counts go to the run journal, so a killed daemon resumes
  exactly where the last durable checkpoint left off.
"""

from __future__ import annotations

import threading
from collections import deque
from itertools import chain
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.core.results import INDIRECT, LinkInference, MapItResult
from repro.core.state import DirectInference, IndirectInference, MapItState
from repro.graph.halves import Half
from repro.graph.othersides import OtherSideTable
from repro.net.ipv4 import format_address
from repro.obs.observer import NULL_OBS, Observability
from repro.perf.flat import GraphFold
from repro.robust.errors import ErrorBudget, IngestReport
from repro.robust.ingest import record_parser
from repro.robust.journal import RunJournal
from repro.serve.checkpoint import CHECKPOINT_UNIT, restore_latest_checkpoint
from repro.serve.incremental import IncrementalIndex
from repro.traceroute.parse import TraceParseError

#: counters a snapshot/checkpoint carries (all deterministic)
_STAT_KEYS = (
    "ingested",
    "parsed",
    "malformed",
    "skipped",
    "shed",
    "folds",
    "quiesces",
    "checkpoints",
)


#: the direct and indirect tables a quiesce ended with
StateTables = Tuple[Dict[Half, DirectInference], Dict[Half, IndirectInference]]


class ServeSnapshot:
    """One immutable published view of the inference state.

    Built at a quiesce point and swapped in with a single attribute
    assignment; every field is derived from that one quiesce, so any
    reader holding a snapshot sees an internally consistent world.

    A snapshot is patched from the *previous* one: the records that
    left are dropped and the new ones built (``to_dict``), and only the
    address and AS index entries that hold a changed record are rebuilt;
    every other entry, and every record dict, is shared with the
    previous snapshot.  Nothing a snapshot holds is mutated after it is
    built.  The index entries list each inference in result order.

    The fingerprint is hashed when first read, from the tables of the
    state the quiesce ended in: the engine starts each run on a fresh
    state (``Engine.restart``), so those tables change no more once
    published.  The hash is taken under the snapshot's lock, so
    concurrent first readers hash once.
    """

    __slots__ = (
        "seq",
        "result",
        "stats",
        "records",
        "records_built",
        "by_address",
        "by_as",
        "other_sides",
        "_tables",
        "_fingerprint",
        "_lock",
    )

    def __init__(
        self,
        seq: int,
        tables: Optional[StateTables],
        result: Optional[MapItResult],
        stats: Dict[str, int],
        other_sides: Optional[OtherSideTable] = None,
        previous: Optional["ServeSnapshot"] = None,
    ) -> None:
        self.seq = seq
        self.result = result
        self.stats = stats
        # the quiesce-time point-to-point table, captured by reference:
        # the index publishes a patched *copy* when the universe grows,
        # so this one is immutable from the moment it lands here
        self.other_sides = other_sides
        self._tables = tables
        self._fingerprint: Optional[str] = None if tables is not None else ""
        self._lock = threading.Lock()
        self.records: Dict[LinkInference, dict] = {}
        self.records_built = 0
        #: per address, and per AS at either end, its inferences
        self.by_address: Dict[int, List[LinkInference]] = {}
        self.by_as: Dict[int, List[LinkInference]] = {}
        if result is not None:
            self._patch(result, previous if previous is not None else ServeSnapshot.empty())

    def _patch(self, result: MapItResult, previous: "ServeSnapshot") -> None:
        """Build the records and indexes from *previous*'s."""
        published = previous.records
        current = set(chain(result.inferences, result.uncertain))
        added = current.difference(published)
        removed = published.keys() - current
        records = self.records = dict(published)
        for inference in removed:
            del records[inference]
        for inference in added:
            records[inference] = inference.to_dict()
        self.records_built = len(added)
        # The uncertain list's order is not a function of its records
        # (_collect lists the log's before the live directs'), so
        # every index entry holding an uncertain record is rebuilt.
        earlier = previous.result.uncertain if previous.result is not None else []
        moved = [*added, *removed, *result.uncertain, *earlier]
        position = {inference: at for at, inference in enumerate(result.uncertain)}

        def rank(inference: LinkInference) -> tuple:
            """Where *inference* stands in ``inferences + uncertain``:
            confident directs by half, then confident indirects by
            half, then the uncertain list in its own order."""
            if inference.uncertain:
                return (1, position[inference])
            return (0, inference.kind == INDIRECT, inference.address, inference.forward)

        self.by_address = _patched(
            previous.by_address,
            {inference.address for inference in moved},
            added,
            removed,
            rank,
            lambda inference: (inference.address,),
        )
        self.by_as = _patched(
            previous.by_as,
            {asn for inference in moved for asn in (inference.local_as, inference.remote_as)},
            added,
            removed,
            rank,
            lambda inference: {inference.local_as, inference.remote_as},
        )

    @classmethod
    def empty(cls) -> "ServeSnapshot":
        return cls(0, None, None, {key: 0 for key in _STAT_KEYS})

    @property
    def fingerprint(self) -> str:
        """The §4.6 state digest of this quiesce, hashed on first read."""
        with self._lock:
            if self._fingerprint is None:
                self._fingerprint = MapItState.digest(*self._tables)
            return self._fingerprint

    def links(self, inferences: Iterable[LinkInference]) -> List[dict]:
        """The published record dicts of *inferences* (an index entry)."""
        records = self.records
        return [records[inference] for inference in inferences]

    def other_side(self, address: int) -> Optional[int]:
        """The inferred point-to-point partner as of this snapshot."""
        if self.other_sides is None:
            return None
        return self.other_sides.other_side.get(address)

    def summary(self) -> Dict[str, object]:
        """Headline fields every API response embeds."""
        base: Dict[str, object] = {"seq": self.seq, "fingerprint": self.fingerprint}
        if self.result is not None:
            base.update(self.result.summary())
            base["converged"] = self.result.converged
        return base


def _patched(index, keys, added, removed, rank, keys_of):
    """A copy of *index* (key -> inferences in result order) with each
    of *keys* rebuilt: its kept inferences, less *removed*, plus the
    *added* ones filed under it by *keys_of*, ordered by *rank*.  The
    lists of every other key are shared with *index*."""
    fresh: Dict[int, List[LinkInference]] = {}
    for inference in added:
        for key in keys_of(inference):
            fresh.setdefault(key, []).append(inference)
    patched = dict(index)
    for key in keys:
        members = [inference for inference in index.get(key, ()) if inference not in removed]
        members += fresh.get(key, ())
        if members:
            members.sort(key=rank)
            patched[key] = members
        else:
            patched.pop(key, None)
    return patched


class ServeDaemon:
    """A long-running incremental MAP-IT service over one index."""

    def __init__(
        self,
        index: IncrementalIndex,
        *,
        format: str = "jsonl",
        on_error: str = "lenient",
        budget: Optional[ErrorBudget] = None,
        journal: Optional[RunJournal] = None,
        obs: Observability = NULL_OBS,
        quiesce_every: int = 64,
        checkpoint_every: int = 0,
        queue_limit: int = 1024,
    ) -> None:
        if quiesce_every < 0 or checkpoint_every < 0:
            raise ValueError("the quiesce and checkpoint cadences must be >= 0")
        if checkpoint_every and journal is None:
            raise ValueError("a checkpoint cadence needs a journal")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.index = index
        self.format = format
        self.on_error = on_error
        self.budget = budget
        self.journal = journal
        self.obs = obs
        self.quiesce_every = quiesce_every
        self.checkpoint_every = checkpoint_every
        self.queue_limit = queue_limit
        self._parse = record_parser(format)
        self.snapshot = ServeSnapshot.empty()
        self.offsets: Dict[str, int] = {}
        #: per source, the number of the line that reached ``offsets``
        self.line_counts: Dict[str, int] = {}
        self.stats: Dict[str, int] = {key: 0 for key in _STAT_KEYS}
        self.queries = 0
        self._queue: Deque[Tuple[str, int, str, Optional[int]]] = deque()
        self._lock = threading.Lock()
        self._line_numbers: Dict[str, int] = {}
        self._folds_since_quiesce = 0
        self._folds_since_checkpoint = 0
        if obs.enabled:
            obs.event(
                "serve.start",
                format=format,
                on_error=on_error,
                quiesce_every=self.quiesce_every,
                checkpoint_every=self.checkpoint_every,
                queue_limit=self.queue_limit,
            )

    # -- reader side (any thread) -------------------------------------------

    def offer(self, line: str, source: str = "stream", offset: Optional[int] = None) -> bool:
        """Enqueue one raw line; returns False when it was shed.

        Shedding is deterministic: the queue has a hard bound and a
        line arriving while it is full is dropped and counted — the
        newest observation loses, never a random victim.  Shed counts
        feed the ErrorBudget at the next quiesce.
        """
        with self._lock:
            number = self._line_numbers.get(source, 0) + 1
            self._line_numbers[source] = number
            if len(self._queue) >= self.queue_limit:
                self.stats["shed"] += 1
                self.obs.inc("serve.shed")
                return False
            self._queue.append((source, number, line, offset))
            self.stats["ingested"] += 1
        self.obs.inc("serve.ingested")
        return True

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    # -- pump side (one thread) ---------------------------------------------

    def pump(self, max_records: Optional[int] = None) -> int:
        """Drain queued lines into the index; returns records processed.

        Runs the parse → fold → cadence pipeline for each line; the
        quiesce and checkpoint cadences fire between records, so a
        checkpoint's fold state and source offsets are always mutually
        consistent.
        """
        processed = 0
        while max_records is None or processed < max_records:
            with self._lock:
                if not self._queue:
                    break
                entry = self._queue.popleft()
            self._process(*entry)
            processed += 1
        return processed

    def ingest_entry(self, line: str, source: str, offset: Optional[int] = None) -> None:
        """Synchronous ingest (the ``--once`` path): no queue, no shed."""
        with self._lock:
            number = self._line_numbers.get(source, 0) + 1
            self._line_numbers[source] = number
            self.stats["ingested"] += 1
        self.obs.inc("serve.ingested")
        self._process(source, number, line, offset)

    def adopt(
        self, fold: GraphFold, report: IngestReport, source: str, offset: int, lines: int
    ) -> None:
        """Adopt a whole file's batch load as the warm base: *fold* and
        *report* are what the graph loader built from *source*'s first
        *offset* bytes, *lines* lines.

        :meth:`IncrementalIndex.restore_state` replaces the tables, so
        this is only for an index that has folded nothing yet.  The
        counters and ``serve.*`` metrics advance as if :meth:`_process`
        had taken each line, and the source's numbering continues from
        the file's end.  Runs on the pump thread before any reader
        starts, but keeps the locked-counter discipline of the live
        path.  The folds count toward the quiesce cadence, so one
        quiesce publishes the base.
        """
        self.index.restore_state(fold)
        for key, amount in (
            ("ingested", lines),
            ("parsed", report.parsed),
            ("malformed", report.malformed),
            ("skipped", report.skipped),
            ("folds", report.parsed),
        ):
            if amount:
                self._bump(key, amount)
                self.obs.inc(f"serve.{key}", amount)
        self._folds_since_quiesce += report.parsed
        self.offsets[source] = offset
        self.line_counts[source] = lines
        with self._lock:
            self._line_numbers[source] = lines

    def _bump(self, key: str, amount: int = 1) -> int:
        """Locked counter increment; returns the new value.

        ``stats`` is mutated from the reader side (:meth:`offer` sheds
        and counts under the lock) *and* the pump side, so every pump
        increment holds the same lock — the mutual-lock discipline
        RACE001 checks.
        """
        with self._lock:
            self.stats[key] += amount
            return self.stats[key]

    def stats_view(self) -> Dict[str, int]:
        """A consistent copy of the counters, taken under the lock."""
        with self._lock:
            return dict(self.stats)

    def _process(self, source: str, number: int, raw: str, offset: Optional[int]) -> None:
        line = raw.strip()
        if offset is not None:
            self.offsets[source] = offset
            self.line_counts[source] = number
        if not line or (self.format == "text" and line.startswith("#")):
            return
        try:
            record = self._parse(line, number)
        except TraceParseError:
            if self.on_error == "strict":
                raise
            self._bump("malformed")
            self.obs.inc("serve.malformed")
            if self.obs.enabled:
                self.obs.event(
                    "serve.reject", source=source, line=number, snippet=line[:120]
                )
            return
        if record is None:
            self._bump("skipped")
            self.obs.inc("serve.skipped")
            return
        self._bump("parsed")
        self.obs.inc("serve.parsed")
        self.index.fold_record(record)
        self._bump("folds")
        self.obs.inc("serve.folds")
        self._folds_since_quiesce += 1
        self._folds_since_checkpoint += 1
        if self.quiesce_every and self._folds_since_quiesce >= self.quiesce_every:
            self.quiesce()
        if (
            self.journal is not None
            and self.checkpoint_every
            and self._folds_since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint()

    # -- quiesce / checkpoint -------------------------------------------------

    def quiesce(self) -> ServeSnapshot:
        """Re-infer over the dirty region and publish a new snapshot.

        Also the deterministic point where the ErrorBudget judges the
        stream: malformed plus shed records against everything offered,
        exactly like batch ingest judges a whole file.
        """
        self._folds_since_quiesce = 0
        result = self.index.quiesce()
        self._bump("quiesces")
        self.obs.inc("serve.quiesces")
        stats = self.stats_view()
        snapshot = ServeSnapshot(
            self.snapshot.seq + 1,
            self.index.tables(),
            result,
            stats,
            other_sides=self.index.graph.other_sides,
            previous=self.snapshot,
        )
        self.obs.inc("serve.snapshot.records_built", snapshot.records_built)
        # One reference assignment: atomic under the GIL, so readers
        # always see either the old or the new complete snapshot.
        self.snapshot = snapshot
        self.obs.gauge("serve.queue_depth", self.queue_depth)
        self.obs.gauge("serve.inferences", len(result.inferences))
        if self.obs.enabled:
            self.obs.event(
                "serve.quiesce",
                seq=snapshot.seq,
                fingerprint=snapshot.fingerprint,
                folds=stats["folds"],
                inferences=len(result.inferences),
                uncertain=len(result.uncertain),
                iterations=result.iterations,
            )
        if self.budget is not None:
            considered = stats["parsed"] + stats["malformed"] + stats["shed"]
            self.budget.check(
                "serve", stats["malformed"] + stats["shed"], considered
            )
        return snapshot

    def checkpoint(self) -> bool:
        """Append the fold state (as the record's blob), source offsets
        and line counts to the journal; returns whether it stuck.

        A failed write (ENOSPC) disables the journal and costs only
        durability — the daemon keeps serving (docs/ROBUSTNESS.md).
        """
        if self.journal is None:
            return False
        self._folds_since_checkpoint = 0
        stats = self.stats_view()
        seq = stats["checkpoints"]
        stuck = self.journal.append(
            CHECKPOINT_UNIT,
            {
                "offsets": dict(self.offsets),
                "lines": dict(self.line_counts),
                "stats": stats,
                "fingerprint": self.snapshot.fingerprint,
            },
            blob=self.index.export_state().to_bytes(),
        )
        if stuck:
            self._bump("checkpoints")
            self.obs.inc("serve.checkpoints")
            if self.obs.enabled:
                self.obs.event(
                    "serve.checkpoint",
                    seq=seq,
                    folds=stats["folds"],
                    offsets=dict(self.offsets),
                )
        return stuck

    def resume(self) -> bool:
        """Restore the newest durable checkpoint; returns success.

        The follow sources then seek to the restored offsets, so every
        line folded after the checkpoint is re-read and re-folded —
        at-least-once delivery with idempotent folds (set unions), which
        is why recovery is byte-identical.  Line numbering continues
        from each source's restored line count, so errors and rejects
        name the same line an uninterrupted session would.
        """
        if self.journal is None:
            return False
        checkpoint = restore_latest_checkpoint(self.journal, self.index.restore_state)
        if checkpoint is None:
            return False
        self.offsets = dict(checkpoint["offsets"])
        self.line_counts = dict(checkpoint["lines"])
        with self._lock:
            for key in _STAT_KEYS:
                self.stats[key] = checkpoint["stats"].get(key, 0)
            self._line_numbers = dict(checkpoint["lines"])
            folds = self.stats["folds"]
        self._folds_since_quiesce = 0
        self._folds_since_checkpoint = 0
        if self.obs.enabled:
            self.obs.event(
                "serve.resume",
                folds=folds,
                offsets=dict(self.offsets),
                fingerprint=checkpoint["fingerprint"],
            )
        return True

    # -- daemon loop -----------------------------------------------------------

    def finalize(self) -> ServeSnapshot:
        """Quiesce anything folded since the last snapshot (or produce
        the first one) and write a final checkpoint — the shutdown and
        ``--once`` completion step."""
        if self._folds_since_quiesce or self.snapshot.seq == 0:
            self.quiesce()
        if self.journal is not None:
            self.checkpoint()
        return self.snapshot

    def run_loop(self, stop: threading.Event, idle_wait: float = 0.05) -> None:
        """Drain the queue until *stop* is set, then finalize.

        When the stream goes idle before the quiesce cadence fires, the
        pending folds are quiesced immediately so readers catch up to
        the stream's tail instead of waiting for ``quiesce_every``.
        """
        while not stop.is_set():
            if self.pump(max_records=256) == 0:
                if self._folds_since_quiesce:
                    self.quiesce()
                stop.wait(idle_wait)
        self.pump()
        self.finalize()
        if self.obs.enabled:
            self.obs.event(
                "serve.shutdown",
                folds=self.stats_view()["folds"],
                seq=self.snapshot.seq,
            )

    # -- query support ----------------------------------------------------------

    def note_query(self) -> None:
        # handler threads run this concurrently; unlocked += loses counts
        with self._lock:
            self.queries += 1
        self.obs.inc("serve.queries")

    def explain_records(self, address: int) -> Dict[str, object]:
        """Snapshot-derived explain payload for one interface address.

        Every field — records *and* the other-side judgement — comes
        from the captured snapshot, never the live index: handler
        threads must not read structures the pump is folding into.
        """
        snapshot = self.snapshot
        other = snapshot.other_side(address)
        return {
            "address": format_address(address),
            "records": snapshot.links(snapshot.by_address.get(address, ())),
            "other_side": format_address(other) if other is not None else None,
            "seq": snapshot.seq,
            "fingerprint": snapshot.fingerprint,
        }
