"""Resilient trace ingestion: strict / lenient / quarantine modes.

The strict parsers in :mod:`repro.traceroute.parse` raise
:class:`~repro.traceroute.parse.TraceParseError` on the first bad
record.  This module wraps them with the three ingestion policies the
pipeline exposes:

``strict``
    any malformed record aborts the load (the historical behaviour,
    but now with a line number and the offending text attached);
``lenient``
    malformed records are skipped and counted, each one captured as a
    structured :class:`~repro.robust.errors.IngestError`;
``quarantine``
    like lenient, but the raw rejected lines are additionally written
    to ``<quarantine_dir>/<source>.rejects.txt`` (with a matching
    ``.errors.jsonl``) so they can be inspected or re-ingested later.

In lenient and quarantine modes an optional
:class:`~repro.robust.errors.ErrorBudget` bounds the malformed
fraction: a load whose reject rate crosses the budget raises
:class:`~repro.robust.errors.ErrorBudgetExceeded` instead of quietly
returning a fraction of the dataset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, TypeVar, Union

from repro.obs.observer import NULL_OBS, Observability
from repro.robust.errors import (
    MAX_DETAILED_ERRORS,
    SNIPPET_LIMIT,
    ErrorBudget,
    IngestError,
    IngestReport,
)
from repro.traceroute.atlas import parse_atlas_measurement
from repro.traceroute.model import Trace
from repro.traceroute.parse import (
    RecordTuple,
    TextTokenizer,
    TraceParseError,
    parse_json_trace,
    parse_text_trace,
    trace_format_for_path,
    trace_record,
)

MODES = ("strict", "lenient", "quarantine")
FORMATS = ("text", "jsonl", "atlas")

#: what a record parser returns: a Trace or a RecordTuple
Record = TypeVar("Record")


def _check_mode(mode: str, quarantine_dir) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown ingest mode {mode!r}; expected one of {MODES}")
    if mode == "quarantine" and quarantine_dir is None:
        raise ValueError("quarantine mode requires a quarantine_dir")


def _write_quarantine(
    quarantine_dir: Union[str, Path],
    source: str,
    rejects: List[str],
    errors: List[IngestError],
) -> str:
    from repro.io.atomic import atomic_write_lines  # local: avoids import cycle

    directory = Path(quarantine_dir)
    directory.mkdir(parents=True, exist_ok=True)
    stem = Path(source).name.replace("/", "_")
    rejects_path = directory / f"{stem}.rejects.txt"
    atomic_write_lines(rejects_path, rejects)
    atomic_write_lines(
        directory / f"{stem}.errors.jsonl",
        (json.dumps(error.to_dict(), separators=(",", ":")) for error in errors),
    )
    return str(rejects_path)


def _parse_atlas_line(line: str, line_number: int) -> Optional[Trace]:
    """Atlas JSON-lines parsing with TraceParseError on malformed JSON.

    Returns None for records Atlas semantics say to skip (IPv6, no
    results) — those are *skips*, not errors.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"invalid JSON: {exc.msg}", line_number, line) from exc
    if not isinstance(record, dict):
        raise TraceParseError(
            f"expected a JSON object, got {type(record).__name__}", line_number, line
        )
    return parse_atlas_measurement(record)


def parse_record(line: str, line_number: int, format: str) -> Optional[Trace]:
    """Parse one stripped, non-blank record of any supported format.

    Returns ``None`` for records the format says to skip silently
    (Atlas IPv6 / no-result measurements); raises
    :class:`~repro.traceroute.parse.TraceParseError` for malformed
    input.  This is the single per-record entry point shared by the
    serial ingester and the sharded parallel workers, so both reject
    exactly the same lines for exactly the same reasons.
    """
    if format == "text":
        return parse_text_trace(line, line_number)
    if format == "jsonl":
        return parse_json_trace(line, line_number)
    return _parse_atlas_line(line, line_number)


def record_parser(format: str) -> Callable[[str, int], Optional[RecordTuple]]:
    """The per-record parser of the object-free graph loaders (the
    fused loader's shards, the serve daemon).

    ``parse(line, line_number)`` returns one stripped, non-blank
    record's :data:`RecordTuple` (``None`` to skip it) and raises what
    :func:`parse_record` raises on the same line.  Text goes through a
    fresh :class:`~repro.traceroute.parse.TextTokenizer` (its memo
    keeps one entry per distinct hop token and destination),
    jsonl/atlas through :func:`parse_record`.
    """
    if format == "text":
        return TextTokenizer().parse

    def parse(line: str, line_number: int) -> Optional[RecordTuple]:
        trace = parse_record(line, line_number, format)
        return None if trace is None else trace_record(trace)

    return parse


@dataclass
class RecordTally:
    """What :func:`policy_records` counts over one run of lines."""

    parsed: int = 0
    malformed: int = 0
    skipped: int = 0
    errors: List[IngestError] = field(default_factory=list)
    rejects: List[str] = field(default_factory=list)
    #: strict mode: (reason, line_number, text) of the first bad record
    strict_error: Optional[Tuple[str, Optional[int], Optional[str]]] = None


def policy_records(
    tally,
    lines: Iterable[str],
    first_line_number: int,
    format: str,
    source: str,
    mode: str,
    parse: Callable[[str, int], Optional[Record]],
) -> Iterator[Record]:
    """The per-record policy loop over *lines*, tallying into *tally*
    (a :class:`RecordTally`, or any object with its fields).

    Skips blank lines (and ``#`` comments in text) and yields
    ``parse(line, line_number)`` for every record that parses;
    ``None`` results count as skipped.  A malformed record raises
    nothing here: strict mode records the error in
    ``tally.strict_error`` and ends the iteration, the tolerant modes
    count it, keep its detail up to ``MAX_DETAILED_ERRORS`` and, in
    quarantine, its line.  O(lines); the one copy of the policy
    semantics, driven by the serial ingester and the fused loader's
    shards alike, whichever record format *parse* reads.
    """
    for offset, raw in enumerate(lines):
        line_number = first_line_number + offset
        line = raw.strip()
        if not line:
            continue
        if format == "text" and line.startswith("#"):
            continue
        try:
            record = parse(line, line_number)
            if record is None:
                tally.skipped += 1
                continue
        except TraceParseError as exc:
            if mode == "strict":
                tally.strict_error = (exc.reason, exc.line_number, exc.text)
                return
            tally.malformed += 1
            if len(tally.errors) < MAX_DETAILED_ERRORS:
                tally.errors.append(
                    IngestError(source, line_number, exc.reason, line[:SNIPPET_LIMIT])
                )
            if mode == "quarantine":
                tally.rejects.append(line)
            continue
        tally.parsed += 1
        yield record


def finalize_ingest(
    report: IngestReport,
    rejects: List[str],
    *,
    budget: Optional[ErrorBudget] = None,
    quarantine_dir: Optional[Union[str, Path]] = None,
    obs: Observability = NULL_OBS,
) -> IngestReport:
    """Post-parse policy shared by the serial and parallel ingesters:
    judge the error budget over the whole source, write the quarantine
    files, and emit the ingest observability events/counters."""
    # The budget is judged over the whole source, not incrementally:
    # corruption clusters (a damaged block early in a long file) must
    # not abort a load whose overall malformed fraction is acceptable.
    if budget is not None and report.mode != "strict":
        budget.check(report.source, report.malformed, report.total)
    if report.mode == "quarantine" and rejects:
        report.quarantine_path = _write_quarantine(
            quarantine_dir, report.source, rejects, report.errors
        )
    if obs.enabled:
        obs.event(
            "ingest.end",
            source=report.source,
            mode=report.mode,
            parsed=report.parsed,
            malformed=report.malformed,
            skipped=report.skipped,
        )
        obs.inc("ingest.records.parsed", report.parsed)
        obs.inc("ingest.records.malformed", report.malformed)
        obs.inc("ingest.records.skipped", report.skipped)
    return report


def ingest_traces(
    lines: Iterable[str],
    *,
    format: str = "text",
    source: str = "traces",
    mode: str = "strict",
    budget: Optional[ErrorBudget] = None,
    quarantine_dir: Optional[Union[str, Path]] = None,
    obs: Observability = NULL_OBS,
) -> Tuple[List[Trace], IngestReport]:
    """Parse *lines* under an ingestion policy.

    Returns the successfully parsed traces and an
    :class:`~repro.robust.errors.IngestReport` quantifying what was
    rejected and why.
    """
    _check_mode(mode, quarantine_dir)
    if format not in FORMATS:
        raise ValueError(f"unknown trace format {format!r}; expected one of {FORMATS}")
    tally = RecordTally()
    parse = partial(parse_record, format=format)
    with obs.span("ingest"):
        traces = list(policy_records(tally, lines, 1, format, source, mode, parse))
        if tally.strict_error is not None:
            raise TraceParseError(*tally.strict_error)
    report = IngestReport(
        source=source,
        mode=mode,
        parsed=tally.parsed,
        malformed=tally.malformed,
        skipped=tally.skipped,
        errors=tally.errors,
    )
    finalize_ingest(
        report, tally.rejects, budget=budget, quarantine_dir=quarantine_dir, obs=obs
    )
    return traces, report


def ingest_trace_file(
    path: Union[str, Path],
    *,
    format: Optional[str] = None,
    mode: str = "strict",
    budget: Optional[ErrorBudget] = None,
    quarantine_dir: Optional[Union[str, Path]] = None,
    obs: Observability = NULL_OBS,
) -> Tuple[List[Trace], IngestReport]:
    """Ingest a trace file, inferring the format from its suffix.

    ``*.jsonl`` is the scamper-like JSON-lines format, ``*.atlas`` /
    ``*.atlas.json`` the RIPE Atlas format, anything else the compact
    text format.  Quarantine mode defaults the reject directory to
    ``<file's parent>/quarantine``.
    """
    path = Path(path)
    if format is None:
        format = trace_format_for_path(path.name)
    if mode == "quarantine" and quarantine_dir is None:
        quarantine_dir = path.parent / "quarantine"
    with open(path, errors="replace") as handle:
        return ingest_traces(
            handle,
            format=format,
            source=path.name,
            mode=mode,
            budget=budget,
            quarantine_dir=quarantine_dir,
            obs=obs,
        )
