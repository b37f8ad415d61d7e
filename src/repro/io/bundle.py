"""Reading a dataset directory into runnable inputs.

Loading degrades gracefully: required inputs (traces and at least one
IP2AS source) still hard-fail when absent or — in strict mode —
malformed, but a missing or corrupt *optional* dataset (IXP, AS2Org,
relationships, hostnames, ground truth, manifest) never aborts the
load; it becomes an empty dataset plus a warning in the returned
:class:`~repro.robust.health.BundleHealth` report.  Trace parsing runs
under the strict / lenient / quarantine policies of
:mod:`repro.robust.ingest`, and manifest checksums (written by
:func:`repro.io.save.save_scenario`) are verified when present.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.bgp.cymru import CymruTable
from repro.bgp.ip2as import IP2AS, assemble_ip2as
from repro.bgp.table import CollectorDump
from repro.dns.naming import HostnameDataset
from repro.io.truth import GroundTruth, load_ground_truth
from repro.ixp.dataset import IXPDataset
from repro.obs.observer import NULL_OBS, Observability
from repro.org.as2org import AS2Org
from repro.rel.relationships import RelationshipDataset
from repro.graph.neighbors import InterfaceGraph
from repro.robust.errors import ErrorBudget, IngestReport
from repro.robust.health import BundleHealth
from repro.robust.ingest import ingest_trace_file
from repro.traceroute.model import Trace


@dataclass
class InputBundle:
    """Everything loaded from a dataset directory.

    ``traces``, ``ip2as``, ``as2org`` and ``relationships`` are exactly
    the arguments of :func:`repro.run_mapit`; ``ground_truth`` and
    ``hostnames`` are optional evaluation extras.  ``health`` reports
    what loaded cleanly, what degraded, and what was rejected.

    When the bundle was loaded with ``graph_only=True`` (any ``jobs``),
    ``graph`` holds the interface graph the fused loader built (or a
    cache hit restored), ``retained_addresses`` every address of a
    trace §4.1 retained — ``SanitizeReport.retained_addresses``, what
    evaluation scores with — and ``traces`` is empty: the graph is all
    the inference passes need, and the trace objects were deliberately
    never materialized; the parsed-record count is
    ``health.ingest.parsed`` (docs/PERFORMANCE.md).
    """

    traces: List[Trace]
    ip2as: IP2AS
    as2org: AS2Org
    relationships: RelationshipDataset
    ground_truth: Optional[GroundTruth] = None
    hostnames: Optional[HostnameDataset] = None
    manifest: Dict = field(default_factory=dict)
    health: BundleHealth = field(default_factory=BundleHealth)
    graph: Optional[InterfaceGraph] = None
    retained_addresses: Optional[Set[int]] = None

    def run_mapit(self, config=None, obs=None):
        """Convenience: run MAP-IT over this bundle.

        Runs over the pre-built ``graph`` when the fused loader made
        one, else builds it from ``traces``; the result is the same.
        """
        from repro.core.mapit import run_mapit_graph
        from repro.graph.neighbors import graph_from_traces

        graph = self.graph
        if graph is None:
            graph, _ = graph_from_traces(self.traces, obs=obs)
        return run_mapit_graph(
            graph,
            self.ip2as,
            org=self.as2org,
            rel=self.relationships,
            config=config,
            obs=obs,
        )


def _read_lines(path: Path):
    with open(path, errors="replace") as handle:
        return handle.read().splitlines()


def find_traces(directory: Union[str, Path]) -> Optional[Path]:
    """The dataset's traces file: ``traces.txt``, else ``traces.jsonl``,
    else None."""
    root = Path(directory)
    for name in ("traces.txt", "traces.jsonl"):
        path = root / name
        if path.exists():
            return path
    return None


def _dump_paths(root: Path) -> List[Path]:
    bgp_dir = root / "bgp"
    return sorted(bgp_dir.glob("*.txt")) if bgp_dir.is_dir() else []


def mapping_paths(directory: Union[str, Path]) -> List[Path]:
    """The mapping files present: sorted ``bgp/*.txt``, then
    ``cymru.txt``, ``ixp.txt``, ``as2org.txt`` and ``relationships.txt``
    (what a serve session's run id hashes)."""
    root = Path(directory)
    paths = _dump_paths(root)
    for name in ("cymru.txt", "ixp.txt", "as2org.txt", "relationships.txt"):
        if (root / name).exists():
            paths.append(root / name)
    return paths


def _from_lines(cls) -> Callable[[Path], object]:
    """A loader parsing a file with *cls*'s ``from_lines``."""
    return lambda path: cls.from_lines(_read_lines(path))


def _load_optional(
    health: BundleHealth,
    path: Path,
    loader: Callable,
    fallback: Callable,
):
    """Load an optional dataset file, degrading to *fallback* on error."""
    if not path.exists():
        health.record(path.name, "missing")
        return fallback()
    try:
        value = loader(path)
    except Exception as exc:  # noqa: BLE001 - optional data must never abort
        health.record(path.name, "degraded", f"{type(exc).__name__}: {exc}")
        return fallback()
    health.record(path.name, "ok")
    return value


def read_mappings(
    directory: Union[str, Path], on_error: str, health: BundleHealth
) -> Tuple[List[CollectorDump], CymruTable, IXPDataset, AS2Org, RelationshipDataset]:
    """Read ``(dumps, cymru, ixp, as2org, relationships)``.

    A malformed dump or ``cymru.txt`` raises under ``strict``
    *on_error*, else is recorded ``corrupt`` in *health* and dropped
    (``cymru.txt`` only while a dump parsed); at least one IP2AS source
    must parse.  The other three degrade to empty with a warning."""
    root = Path(directory)
    dumps: List[CollectorDump] = []
    for path in _dump_paths(root):
        try:
            dumps.append(CollectorDump.from_lines(_read_lines(path)))
        except Exception as exc:  # noqa: BLE001
            if on_error == "strict":
                raise
            health.record(f"bgp/{path.name}", "corrupt", f"{type(exc).__name__}: {exc}")
    cymru_path = root / "cymru.txt"
    cymru = CymruTable()
    cymru_loaded = False
    if cymru_path.exists():
        try:
            cymru = CymruTable.from_lines(_read_lines(cymru_path))
            cymru_loaded = True
            health.record("cymru.txt", "ok")
        except Exception as exc:  # noqa: BLE001
            if on_error == "strict" or not dumps:
                raise
            health.record("cymru.txt", "corrupt", f"{type(exc).__name__}: {exc}")
    if not dumps and not cymru_loaded:
        if not (root / "bgp").is_dir() and not cymru_path.exists():
            raise FileNotFoundError(f"no IP2AS source (bgp/ or cymru.txt) in {root}")
        raise ValueError(f"no usable IP2AS source (bgp/ or cymru.txt) in {root}")
    ixp, as2org, relationships = (
        _load_optional(health, root / name, _from_lines(cls), cls)
        for name, cls in (
            ("ixp.txt", IXPDataset),
            ("as2org.txt", AS2Org),
            ("relationships.txt", RelationshipDataset),
        )
    )
    return dumps, cymru, ixp, as2org, relationships


def read_manifest(directory: Union[str, Path], health: BundleHealth) -> Dict:
    """``manifest.json`` as a dict; missing or malformed, ``{}`` with a
    *health* warning."""
    manifest = _load_optional(
        health,
        Path(directory) / "manifest.json",
        lambda path: json.loads(Path(path).read_text()),
        dict,
    )
    if not isinstance(manifest, dict):
        health.record("manifest.json", "degraded", "manifest is not a JSON object")
        manifest = {}
    return manifest


def _verify_checksums(root: Path, manifest: Dict, health: BundleHealth) -> None:
    """Compare manifest checksums against the files on disk."""
    checksums = manifest.get("checksums")
    if not isinstance(checksums, dict):
        return
    for name, expected in sorted(checksums.items()):
        if not isinstance(expected, str) or not expected.startswith("sha256:"):
            continue
        path = root / name
        if not path.exists():
            continue  # missing-ness is reported per dataset, not here
        if health.digest(path) != expected[len("sha256:"):]:
            health.checksum_failures.append(name)


def _load_graph(
    traces_path: Path,
    *,
    mode: str,
    budget,
    quarantine_dir,
    obs: Observability,
    jobs: int,
    cache: Optional[Union[str, Path]],
    shard_timeout: Optional[float],
    health: BundleHealth,
):
    """Load the traces file's interface graph, via the cache when one
    is given.

    Returns ``(graph, report, fold)``, with no trace object made on any
    path: *fold* is the finished :class:`~repro.perf.flat.GraphFold`
    the graph shares its tables with, whose ``seen`` is the retained
    addresses (a serve session adopts it as its warm base).  The cache
    key is the file's content sha256 (the digest the manifest records;
    *health* hashes the file once for both), so a hit is provably the
    same bytes: it restores
    the folded graph from the entry the way the fused loader finishes
    its shards (:meth:`~repro.perf.flat.GraphFold.merged`) — no fork,
    no fold — and emits the same ``ingest.end`` event,
    ``ingest.records.*`` counters and ``graph.built`` event a parse
    would, so cold and warm runs produce byte-identical ``--trace``
    output; the entry's format version is surfaced in *health*
    (``cache: hit`` in the summary).  A miss runs the fused loader
    (:func:`~repro.perf.ingest.stream_graph_from_file`, ``jobs``
    shards, ``jobs=1`` inline) and stores its merged fold after a
    clean parse; a dirty one is never stored, so the mode-dependent
    error machinery always runs for dirty files (docs/PERFORMANCE.md).
    """
    from repro.perf.flat import GraphFold
    from repro.perf.ingest import stream_graph_from_file
    from repro.robust.ingest import finalize_ingest
    from repro.traceroute.parse import trace_format_for_path

    bundle_cache = None
    source_sha = None
    format = trace_format_for_path(traces_path.name)
    if cache is not None:
        from repro.perf.cache import BundleCache

        bundle_cache = BundleCache(cache, obs=obs)
        source_sha = health.digest(traces_path)
        hit = bundle_cache.load_entry(source_sha, format)
        if hit is not None:
            health.cache_format = hit.format_label
            report = IngestReport(
                source=traces_path.name,
                mode=mode,
                parsed=hit.parsed,
                skipped=hit.skipped,
            )
            with obs.span("ingest+graph"):
                finalize_ingest(report, [], obs=obs)
                fold = GraphFold.merged([hit.bundle])
                graph = fold.finish(obs, 1, hit.bundle.nbytes)
            return graph, report, fold
    graph, report, fold = stream_graph_from_file(
        traces_path,
        jobs,
        mode=mode,
        budget=budget,
        quarantine_dir=quarantine_dir,
        obs=obs,
        shard_timeout=shard_timeout,
    )
    if bundle_cache is not None and report.ok:
        payload = fold.bundle().to_bytes()
        bundle_cache.store_payload(source_sha, format, payload, report)
    return graph, report, fold


def load_bundle(
    directory: Union[str, Path],
    *,
    on_error: str = "strict",
    max_error_rate: Optional[float] = None,
    quarantine_dir: Optional[Union[str, Path]] = None,
    obs: Observability = NULL_OBS,
    jobs: int = 1,
    cache: Optional[Union[str, Path]] = None,
    shard_timeout: Optional[float] = None,
    graph_only: bool = False,
    skip_traces: bool = False,
) -> InputBundle:
    """Load a dataset directory (see :mod:`repro.io` for the layout).

    Only ``traces.txt`` (or ``traces.jsonl``) and at least one IP2AS
    source (``bgp/`` or ``cymru.txt``) are required; everything else is
    optional and defaults to empty datasets (recorded as warnings in
    the returned bundle's ``health``).

    *skip_traces* loads only the mapping datasets: the traces file is
    neither required, read nor recorded in ``health``, and the returned
    bundle's ``traces`` list is empty.  The serve daemon uses this — its
    traces arrive over a stream, so a serve dataset directory may
    legitimately carry no traces file at all (docs/SERVE.md), and a
    fresh session records its warm base's ingest itself.

    *on_error* selects the trace-ingestion policy (``strict`` /
    ``lenient`` / ``quarantine``); *max_error_rate* arms an
    :class:`~repro.robust.errors.ErrorBudget` over the malformed
    fraction in the non-strict modes; *quarantine_dir* overrides the
    default ``<dataset>/quarantine/`` reject directory.

    *graph_only* selects the fused loader: the returned bundle carries
    a pre-built interface ``graph``, the ``retained_addresses`` scoring
    reads, and an *empty* ``traces`` list — no trace objects are built,
    in the parent or in a worker.  *jobs* sets its shard count
    (``jobs=1`` is one inline shard) and *shard_timeout* the
    supervisor's per-shard deadline; the default object load parses
    in-process and ignores both.  Every command that loads a dataset
    (``run``, ``evaluate``, ``explain``, ``report``, evaluation sweeps)
    asks for it; the default keeps trace objects for library callers
    that read them.

    *cache* names a :class:`~repro.perf.cache.BundleCache` directory of
    folded graphs keyed by the traces file's sha256 — a verified hit
    skips parsing and folding entirely (docs/PERFORMANCE.md).  It is an
    optimization only: graph, report, and observability events are
    identical either way.  It needs *graph_only*: the object load reads
    and writes no cache, and raises :class:`ValueError` when given one.
    """
    if cache is not None and not graph_only:
        raise ValueError("the bundle cache holds folded graphs; it needs graph_only=True")
    root = Path(directory)
    health = BundleHealth()
    budget = ErrorBudget(max_error_rate) if max_error_rate is not None else None

    traces_path = find_traces(root)
    if traces_path is None and not skip_traces:
        raise FileNotFoundError(f"no traces.txt or traces.jsonl in {root}")
    traces: List[Trace] = []
    graph = retained = None
    if not skip_traces:
        if on_error == "quarantine" and quarantine_dir is None:
            quarantine_dir = root / "quarantine"
        if graph_only:
            graph, ingest_report, fold = _load_graph(
                traces_path,
                mode=on_error,
                budget=budget,
                quarantine_dir=quarantine_dir,
                obs=obs,
                jobs=jobs,
                cache=cache,
                shard_timeout=shard_timeout,
                health=health,
            )
            retained = fold.seen
        else:
            traces, ingest_report = ingest_trace_file(
                traces_path,
                mode=on_error,
                budget=budget,
                quarantine_dir=quarantine_dir,
                obs=obs,
            )
        health.record_ingest(traces_path.name, ingest_report)

    dumps, cymru, ixp, as2org, relationships = read_mappings(root, on_error, health)
    ip2as = assemble_ip2as(dumps, cymru, ixp)
    del dumps, cymru  # the mapper holds what lookups need

    ground_truth = _load_optional(
        health, root / "groundtruth.txt", load_ground_truth, lambda: None
    )
    hostnames = _load_optional(
        health, root / "hostnames.txt", _from_lines(HostnameDataset), lambda: None
    )
    manifest = read_manifest(root, health)
    _verify_checksums(root, manifest, health)
    return InputBundle(
        traces=traces,
        ip2as=ip2as,
        as2org=as2org,
        relationships=relationships,
        ground_truth=ground_truth,
        hostnames=hostnames,
        manifest=manifest,
        health=health,
        graph=graph,
        retained_addresses=retained,
    )
