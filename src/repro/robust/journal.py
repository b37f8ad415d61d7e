"""Crash-safe run journal: durable units, byte-identical resume.

A MAP-IT run journals one durable unit: its result.  ``mapit run
--resume <run-id>`` replays a journaled result; without one it re-runs
the passes over the interface graph.  The graph is a pure function of
the traces file, so the resume loads it again — as a verified hit on
the ``.mapitc`` :class:`~repro.perf.cache.BundleCache` entry in the
same directory (keyed by the same source sha256), or by re-parsing —
and the passes are a pure function of the graph, so either way the
output is byte-identical to an uninterrupted run.  The multipass
converges in a few iterations, so re-running it costs less than
journaling its state would.  ``graph`` and ``iteration`` records left
by journals of earlier releases are skipped; their blobs are never
opened.

Layout, next to the ``.mapitc`` cache entries::

    <dir>/<run-id>.journal.jsonl     # one JSON record per unit
    <dir>/<run-id>.seq<NNNNNN>.blob  # the binary payload of record NNNNNN

Other journal users (the sweep orchestrator's cells, serve
checkpoints) append their own units; a serve checkpoint stores its
fold state as a blob beside its record.  The journal alone decides
where a record goes and what its blob is called: before its first
append it finds its verified records, so every append continues the
sequence whoever opened it, and a blob is named by its record's seq,
so no two records ever share one.

The run id is a sha256 prefix over (traces sha256, format, ingest
mode, config repr) — the inputs that determine the result — so a
journal can never be resumed against different inputs by accident.

Each journal line carries its own sha256; appends are flushed and
fsynced.  A crash mid-append leaves a *torn tail*: opening the journal
verifies every line and stops at the first damaged one, so the units
before it remain usable, and truncates the damaged tail once.  A
failed write (ENOSPC) disables journaling for the rest of the run —
durability degrades, the run itself never fails because of its
journal.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.io.atomic import atomic_write_bytes, file_sha256
from repro.io.bundle import find_traces
from repro.obs.observer import NULL_OBS, Observability
from repro.robust.hooks import active_chaos

#: bump when the record or blob layout changes; old journals then key
#: to a different run id and are simply not resumed.  Journals of this
#: version written by earlier releases still resume: their ``graph``
#: and ``iteration`` records are skipped.
JOURNAL_VERSION = 1


def run_identity(
    source_sha256: str, config: Any, mode: str, format: str
) -> str:
    """The run id for a (traces, config, ingest mode) combination.

    16 hex chars of a sha256 over everything that determines the run's
    result.  ``config`` contributes through its ``repr`` —
    :class:`~repro.core.config.MapItConfig` is a frozen dataclass, so
    the repr is canonical.
    """
    material = "\n".join(
        (
            "mapit-run-journal",
            str(JOURNAL_VERSION),
            source_sha256,
            format,
            mode,
            repr(config),
        )
    )
    return hashlib.sha256(material.encode()).hexdigest()[:16]


def run_identity_for(directory: Union[str, Path], config: Any, mode: str) -> str:
    """The run id for a dataset directory's traces file
    (:func:`~repro.io.bundle.find_traces`)."""
    from repro.traceroute.parse import trace_format_for_path

    path = find_traces(directory)
    if path is None:
        raise FileNotFoundError(f"no traces.txt or traces.jsonl in {Path(directory)}")
    return run_identity(file_sha256(path), config, mode, trace_format_for_path(path.name))


class RunJournal:
    """Append-only journal of one run's completed units.

    The journal file is read once, on the first :meth:`read` or
    :meth:`append`: its verified records are kept, a damaged tail is
    truncated, and appends continue the sequence after them.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        run_id: str,
        obs: Observability = NULL_OBS,
    ) -> None:
        self.directory = Path(directory)
        self.run_id = run_id
        self.obs = obs
        #: set after a failed write: the run continues unjournaled
        self.disabled = False
        #: the verified records, once the file has been read
        self._records: Optional[List[Dict[str, Any]]] = None

    @property
    def path(self) -> Path:
        return self.directory / f"{self.run_id}.journal.jsonl"

    def _blob_path(self, name: str) -> Path:
        return self.directory / f"{self.run_id}.{name}.blob"

    # -- writing -----------------------------------------------------------

    def append(
        self, unit: str, payload: Dict[str, Any], blob: Optional[bytes] = None
    ) -> bool:
        """Durably append one completed unit; returns whether it stuck.

        The record takes the next seq after the journal's verified
        records.  A *blob* is written atomically first, as
        ``<run-id>.seq<NNNNNN>.blob`` for the record's seq, and the
        payload records its name (``blob``) and sha256 (``sha256``).
        The line's sha256 covers ``(seq, unit, payload)`` in canonical
        JSON, so a torn or bit-flipped tail is detectable on read.
        """
        records = self._verified()
        if self.disabled:
            return False
        seq = len(records)
        try:
            chaos = active_chaos()
            if chaos is not None:
                chaos.maybe_fail_write("journal", seq)
            self.directory.mkdir(parents=True, exist_ok=True)
            if blob is not None:
                name = f"seq{seq:06d}"
                sha = atomic_write_bytes(self._blob_path(name), blob)
                payload = {**payload, "blob": name, "sha256": sha}
            record = {"seq": seq, "unit": unit, "payload": payload}
            body = json.dumps(record, sort_keys=True, separators=(",", ":"))
            stamped = {**record, "sha256": hashlib.sha256(body.encode()).hexdigest()}
            line = json.dumps(stamped, sort_keys=True, separators=(",", ":"))
            with open(self.path, "a") as handle:
                handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            # A full disk costs resumability, never the run itself.
            self.disabled = True
            self.obs.inc("robust.journal.write_failed")
            return False
        records.append(record)
        self.obs.inc("robust.journal.units")
        return True

    # -- reading -----------------------------------------------------------

    def _verified(self) -> List[Dict[str, Any]]:
        """The verified records, reading the file on first use.

        Stops at the first line that is torn, corrupt, or out of
        sequence — everything before it is trusted, everything after
        is not — counts ``robust.journal.torn_tail`` and rewrites the
        file as the verified lines, so appends keep seq numbers dense.
        """
        if self._records is not None:
            return self._records
        records: List[Dict[str, Any]] = []
        self._records = records
        try:
            # errors="replace": a bit-flipped byte that breaks UTF-8 must
            # surface as a torn line (sha mismatch), not a decode crash
            with open(self.path, errors="replace") as handle:
                lines = handle.read().splitlines()
        except OSError:
            return records
        for index, line in enumerate(lines):
            try:
                record = json.loads(line)
                stored_sha = record.pop("sha256")
                body = json.dumps(record, sort_keys=True, separators=(",", ":"))
                ok = (
                    stored_sha == hashlib.sha256(body.encode()).hexdigest()
                    and record.get("seq") == index
                )
            except (ValueError, KeyError, TypeError, AttributeError):
                ok = False
            if not ok:
                self.obs.inc("robust.journal.torn_tail")
                self._truncate_to(lines[:index])
                break
            records.append(record)
        return records

    def _truncate_to(self, lines: List[str]) -> None:
        """Rewrite the journal as its verified lines (drop a torn tail)."""
        try:
            atomic_write_bytes(self.path, "".join(f"{line}\n" for line in lines).encode())
        except OSError:
            self.disabled = True
            self.obs.inc("robust.journal.write_failed")

    def read(self) -> List[Dict[str, Any]]:
        """The journal's verified records, in order (see :meth:`_verified`)."""
        return list(self._verified())

    def units(self, unit: str) -> List[Dict[str, Any]]:
        """The payloads of every verified record of kind *unit*, in order."""
        return [
            record["payload"] for record in self._verified() if record.get("unit") == unit
        ]

    def load_blob(self, payload: Dict[str, Any]) -> Optional[bytes]:
        """The blob a record's *payload* names, or None if missing or
        corrupt (``robust.journal.blob_corrupt``)."""
        try:
            data = self._blob_path(payload["blob"]).read_bytes()
        except OSError:
            return None
        if hashlib.sha256(data).hexdigest() != payload["sha256"]:
            self.obs.inc("robust.journal.blob_corrupt")
            return None
        return data


# ----------------------------------------------------------------------
# the journaled pipeline


def journaled_run(
    bundle,
    config=None,
    obs: Optional[Observability] = None,
    *,
    journal: RunJournal,
    resume: bool = False,
):
    """Run MAP-IT over ``bundle.graph`` and journal the result.

    *bundle* must come from ``load_bundle(..., graph_only=True)``; the
    run is its :meth:`~repro.io.bundle.InputBundle.run_mapit` exactly —
    same engine, same result.  With ``resume=True`` a result the journal
    already holds is replayed instead; without one the passes run
    again.  Either way the returned result is byte-identical
    (``to_json``) to an uninterrupted unjournaled run.
    """
    from repro.core.results import MapItResult

    if bundle.graph is None:
        raise ValueError("journaled_run needs a bundle loaded with graph_only=True")
    effective_obs = obs if obs is not None else NULL_OBS

    if resume:
        results = journal.units("result")
        if results:
            effective_obs.inc("robust.journal.replayed")
            return MapItResult.from_json(results[-1]["json"])
        if effective_obs.enabled:
            effective_obs.event("journal.resume", run_id=journal.run_id)

    result = bundle.run_mapit(config, obs=obs)
    journal.append("result", {"json": result.to_json()})
    chaos = active_chaos()
    if chaos is not None:
        chaos.maybe_crash_after_result()
    return result
