"""Sharded trace ingestion: the fused text loader and the streamed
block fold.

:func:`stream_graph_from_file` is the loader of every command that
needs only the interface graph (``run``, journaled or not,
``evaluate``, ``explain`` and ``report``), at every ``jobs``
(``jobs=1`` is one inline shard).  The source text is split into
contiguous shards; each one runs the serial ingester's per-record
policy loop (:func:`repro.robust.ingest.policy_records`) —
blank/comment skipping, one parse per record, per-mode error handling —
over its shard with *absolute* line numbers, and tokenizes its text
straight to integer hops *and* sanitizes *and* folds neighbor sets in
one pass.  No trace object is built on either side of the fork: a
shard returns its tallies and its packed
:class:`~repro.perf.flat.GraphFold`.  The parent concatenates
partials in shard order, so the merged error list, reject list, and
counts are exactly what one serial pass would have produced, then
hands off to :func:`repro.robust.ingest.finalize_ingest` for the budget
check, quarantine write, and observability — the shared tail
guarantees the two ingesters are indistinguishable from the outside.
One fork, object-free transfer, deterministic merge.

A warm ``.mapitc`` hit finishes the graph from its entry's one bundle
the way the parent finishes it from the shards' bundles
(:meth:`~repro.perf.flat.GraphFold.merged`, then
:meth:`~repro.perf.flat.GraphFold.finish`).

Strict mode needs care: the serial ingester raises at the first
malformed record.  Raising inside a pool worker would surface as a
wrapped remote traceback, so strict workers instead stop at their first
error and report it as data; the parent re-raises the error with the
smallest line number, reconstructing the exact
:class:`~repro.traceroute.parse.TraceParseError` the serial path throws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.graph.neighbors import InterfaceGraph
from repro.obs.observer import NULL_OBS, Observability
from repro.perf.flat import FlatGraphBundle, GraphFold
from repro.perf.pool import Shard, fork_map, shared_payload
from repro.robust.errors import (
    MAX_DETAILED_ERRORS,
    ErrorBudget,
    IngestError,
    IngestReport,
)
from repro.robust.ingest import (
    FORMATS,
    MODES,
    finalize_ingest,
    policy_records,
    record_parser,
)
from repro.traceroute.parse import TraceParseError, trace_format_for_path


@dataclass
class _ShardResult:
    """What one shard sends back: the ingest tallies
    :func:`~repro.robust.ingest.policy_records` keeps (those of a
    :class:`~repro.robust.ingest.RecordTally`) plus the packed graph
    bundle (``None`` when strict mode stopped the shard)."""

    bundle: Optional[FlatGraphBundle] = None
    parsed: int = 0
    malformed: int = 0
    skipped: int = 0
    errors: List[IngestError] = field(default_factory=list)
    rejects: List[str] = field(default_factory=list)
    #: strict mode: (reason, line_number, text) of the first bad record
    strict_error: Optional[Tuple[str, int, str]] = None


def _raise_earliest_strict_error(results) -> None:
    """Re-raise the strict-mode error with the smallest line number —
    the exact record a serial pass would have raised on."""
    strict_errors = [r.strict_error for r in results if r.strict_error is not None]
    if strict_errors:
        reason, line_number, text = min(strict_errors, key=lambda item: item[1])
        raise TraceParseError(reason, line_number, text)


def _merge_shard_tallies(results, report: IngestReport, rejects: List[str]) -> None:
    """Fold shard counts/errors/rejects into *report* in shard order.

    Shard order is line order, so plain concatenation reproduces the
    serial outcome — including which errors land inside the detailed
    cap: each shard returns at most MAX_DETAILED_ERRORS records, and
    truncating the in-order concatenation keeps exactly the first MAX.
    O(shards + errors + rejects).
    """
    for result in results:
        report.parsed += result.parsed
        report.malformed += result.malformed
        report.skipped += result.skipped
        rejects.extend(result.rejects)
        remaining = MAX_DETAILED_ERRORS - len(report.errors)
        if remaining > 0:
            report.errors.extend(result.errors[:remaining])


# ----------------------------------------------------------------------
# the fused streaming loader (parse + sanitize + neighbor fold, one fork)


def _fused_shard(shard: Shard) -> _ShardResult:
    """Parse, sanitize, and fold one text shard (worker process, or
    inline at ``jobs=1``).

    The copy-on-write payload is the *whole source text* as one string
    plus a char-offset → line-number map: a handful of objects, so the
    fork never walks a million-element line list.  The shard tuple is a
    character range aligned to line boundaries.

    One pass per record, with no :class:`~repro.traceroute.model.Trace`
    or ``Hop`` objects on the text path: each record goes through
    :func:`~repro.robust.ingest.record_parser` (text: a
    :class:`~repro.traceroute.parse.TextTokenizer`, each distinct token
    parsed once), and the record stream through the shard's
    :meth:`GraphFold.fold_all <repro.perf.flat.GraphFold.fold_all>`
    (the §4.1 TTL-0 strip and cycle check per record, then the §4.3
    fold of each distinct adjacency).  O(bytes in shard); pickles back
    tallies and one packed counter bundle.
    """
    text, line_starts, format, source, mode = shared_payload()
    start, end = shard
    result = _ShardResult()
    lines = text[start:end].split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    fold = GraphFold()
    fold.fold_all(
        policy_records(
            result, lines, line_starts[start], format, source, mode, record_parser(format)
        )
    )
    if result.strict_error is not None:
        return result
    result.bundle = fold.bundle()
    return result


def _shard_spans(text: str, shards: int) -> Tuple[List[Shard], Dict[int, int]]:
    """Split *text* into newline-aligned character ranges.

    Returns the ranges plus a map from each range's start offset to its
    absolute 1-based line number (computed with C-speed ``str.count``).
    Ranges cover the text exactly once in order, so shard-order merges
    equal a serial pass.  When the file is smaller than the shard count
    (tiny presets, sweep cells) the boundary scan can carve *degenerate*
    spans containing nothing but whitespace; those are collapsed into a
    neighboring span before dispatch, so the supervisor never forks a
    worker that has zero records to parse.  O(len(text)) for the
    boundary scans.
    """
    length = len(text)
    if length == 0:
        return [], {}
    boundaries = {0}
    for index in range(1, max(1, shards)):
        newline = text.find("\n", length * index // shards)
        if newline != -1 and newline + 1 < length:
            boundaries.add(newline + 1)
    starts = sorted(boundaries)
    spans = [
        (start, starts[i + 1] if i + 1 < len(starts) else length)
        for i, start in enumerate(starts)
    ]
    merged: List[Shard] = []
    for start, end in spans:
        if merged and not text[start:end].strip():
            # Whitespace-only span: extend the previous shard over it.
            merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    if len(merged) > 1 and not text[merged[0][0] : merged[0][1]].strip():
        # A whitespace-only *leading* span merges forward instead.
        first_start = merged[0][0]
        merged = [(first_start, merged[1][1])] + merged[2:]
    spans = merged
    # Coverage must stay exact: contiguous, starting at 0, ending at EOF.
    assert spans[0][0] == 0 and spans[-1][1] == length, spans
    assert all(
        spans[i][1] == spans[i + 1][0] for i in range(len(spans) - 1)
    ), spans
    line_starts = {start: text.count("\n", 0, start) + 1 for start, _ in spans}
    return spans, line_starts


def stream_graph_from_file(
    path: Union[str, Path],
    jobs: int,
    *,
    format: Optional[str] = None,
    mode: str = "strict",
    budget: Optional[ErrorBudget] = None,
    quarantine_dir: Optional[Union[str, Path]] = None,
    obs: Observability = NULL_OBS,
    shard_timeout: Optional[float] = None,
) -> Tuple[InterfaceGraph, IngestReport, GraphFold]:
    """Parse a traces file and build its interface graph in one fork.

    The graph-only loader at every *jobs*: each shard (inline
    in the parent at ``jobs=1``) tokenizes its text straight to integer
    hops, sanitizes, and folds neighbor sets, returning a packed
    counter bundle — no trace object is built, in a worker or in the
    parent.  The parent re-raises strict errors (earliest
    line), merges tallies in shard order, runs the shared
    :func:`finalize_ingest` tail (same ``ingest.end`` event, budget
    check, quarantine write), then merges bundles into the same
    canonical graph — and same ``graph.built`` event — as the serial
    ingest-then-build sequence.

    Returns ``(graph, report, fold)``: *fold* is the merged fold
    state, whose :meth:`~repro.perf.flat.GraphFold.bundle` is the
    ``.mapitc`` payload and whose ``seen`` is every address of a
    retained trace.  O(file bytes) end to end; pickled traffic is
    O(distinct addresses), not O(hops).
    """
    path = Path(path)
    if format is None:
        format = trace_format_for_path(path.name)
    if mode not in MODES:
        raise ValueError(f"unknown ingest mode {mode!r}; expected one of {MODES}")
    if mode == "quarantine" and quarantine_dir is None:
        quarantine_dir = path.parent / "quarantine"
    if format not in FORMATS:
        raise ValueError(f"unknown trace format {format!r}; expected one of {FORMATS}")
    with open(path, errors="replace") as handle:
        text = handle.read()
    spans, line_starts = _shard_spans(text, max(1, jobs))
    with obs.span("ingest+graph"):
        results = fork_map(
            _fused_shard,
            (text, line_starts, format, path.name, mode),
            spans,
            jobs,
            timeout=shard_timeout,
            obs=obs,
            budget=budget,
        )
        _raise_earliest_strict_error(results)
        report = IngestReport(source=path.name, mode=mode)
        rejects: List[str] = []
        _merge_shard_tallies(results, report, rejects)
        finalize_ingest(
            report, rejects, budget=budget, quarantine_dir=quarantine_dir, obs=obs
        )
        bundles = [result.bundle for result in results if result.bundle is not None]
        fold = GraphFold.merged(bundles)
        graph = fold.finish(obs, len(bundles), sum(bundle.nbytes for bundle in bundles))
    return graph, report, fold


# ----------------------------------------------------------------------
# the streamed block fold (stress tier: generated shards, bounded RSS)


@dataclass(frozen=True)
class StreamFoldStats:
    """Deterministic accounting of one streamed block fold.

    Pure function of the folded blocks — no timings, no RSS — so sweep
    cell results that embed it stay byte-identical across resumes.
    ``stream_bytes`` is the total columnar volume that passed through
    the fold; ``peak_block_bytes`` is the largest single block, i.e. the
    fold's residency bound beyond the accumulated tables and the
    kernel's fixed buffer (:data:`~repro.perf.flat.FLUSH_SLOTS` hop
    slots).
    """

    shards: int
    traces: int
    retained: int
    discarded: int
    stream_bytes: int
    peak_block_bytes: int


def fold_graph_from_blocks(
    blocks, obs: Observability = NULL_OBS
) -> Tuple[InterfaceGraph, StreamFoldStats]:
    """Fold an *iterator* of columnar blocks into one interface graph.

    The stress tier's ingest path: blocks arrive one at a time from a
    generator (:func:`repro.sim.stress.stress_blocks` or any other
    shard-by-shard producer) and are folded with the flat kernel as they
    appear — at no point is more than one block resident beyond the
    accumulated neighbor tables, so a multi-million-trace world folds in
    memory bounded by ``peak_block_bytes`` plus the table size and the
    kernel's fixed buffer (:data:`~repro.perf.flat.FLUSH_SLOTS` hop
    slots, whatever the block size).
    Downstream-equivalent to decoding every block and running the serial
    sanitize + build sequence: same tables (sorted-key canonical form),
    same gauges, same ``graph.built`` event.  O(total hops).
    """
    fold = GraphFold()
    shards = traces = stream_bytes = peak_block_bytes = 0
    with obs.span("stream_fold"):
        for flat in blocks:
            shards += 1
            traces += len(flat)
            nbytes = flat.nbytes
            stream_bytes += nbytes
            peak_block_bytes = max(peak_block_bytes, nbytes)
            fold.fold_block(flat)
        graph = fold.finish(obs, shards, stream_bytes)
    stats = StreamFoldStats(
        shards=shards,
        traces=traces,
        retained=fold.retained,
        discarded=fold.discarded,
        stream_bytes=stream_bytes,
        peak_block_bytes=peak_block_bytes,
    )
    return graph, stats
