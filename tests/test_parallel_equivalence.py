"""Differential tests for the parallel/cached execution layer.

The contract of :mod:`repro.perf` is *byte-identity*: any worker count
and any cache state must produce exactly the serial pipeline's outputs
— inference files, trace JSONL, reports, and exceptions.  These tests
hold it to that, and prove a corrupted (or old-layout) cache entry is
detected and rebuilt rather than served.
"""

import json

import pytest

from repro.cli import main
from repro.graph.neighbors import graph_from_traces
from repro.perf.cache import BundleCache
from repro.perf.ingest import stream_graph_from_file
from repro.perf.pool import fork_map, shared_payload
from repro.robust.errors import MAX_DETAILED_ERRORS, ErrorBudget, ErrorBudgetExceeded
from repro.robust.ingest import ingest_traces
from repro.traceroute.parse import TraceParseError

GOOD = [
    "m1|9.1.0.9|9.0.0.1 9.1.0.1",
    "m1|9.1.0.9|9.0.0.1 * 9.1.0.2@0",
    "m2|9.1.0.9|9.0.0.2 9.1.0.1",
]


def _inner_shard(shard):
    return shared_payload()[shard[0]]


_SINGLES = [(0, 1), (1, 2), (2, 3)]


def _outer_shard(shard):
    """Reads the outer payload, runs a whole inner map, reads it again."""
    before = shared_payload()[shard[0]]
    inner = fork_map(_inner_shard, "xyz", _SINGLES, 1)
    return before, inner, shared_payload()[shard[0]]


class TestForkMap:
    def test_nested_inline_map_keeps_outer_payload(self):
        """A shard that runs a map of its own (a sweep cell loading its
        world through the fused loader) leaves the outer map's payload
        in place for the outer map's later shards."""
        results = fork_map(_outer_shard, ["a", "b", "c"], _SINGLES, 1)
        assert results == [(word, ["x", "y", "z"], word) for word in "abc"]
        assert shared_payload() is None


def _fused(lines, jobs, tmp_path, **kwargs):
    """The sharded ingester (the fused loader) over *lines* as a file."""
    path = tmp_path / "traces.txt"
    path.write_text("\n".join(lines) + "\n")
    return stream_graph_from_file(path, jobs, **kwargs)


class TestIngestEquivalence:
    """The fused loader at 1, 2 and 4 shards against the serial
    ingester plus the object graph build."""

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    @pytest.mark.parametrize("mode", ["lenient", "quarantine"])
    def test_modes_match_serial(self, jobs, mode, tmp_path):
        lines = (GOOD + ["garbage", "", "# note", "m|300.0.0.1|x"]) * 7
        kwargs = dict(format="text", source="traces.txt")
        serial_traces, serial_report = ingest_traces(
            lines, mode=mode, quarantine_dir=tmp_path / "qs", **kwargs
        )
        graph, report, _ = _fused(lines, jobs, tmp_path, mode=mode, quarantine_dir=tmp_path / "qp")
        serial_graph, _ = graph_from_traces(serial_traces)
        assert (graph.forward, graph.backward) == (serial_graph.forward, serial_graph.backward)
        assert graph.other_sides == serial_graph.other_sides
        assert report.parsed == serial_report.parsed
        assert report.malformed == serial_report.malformed
        assert report.skipped == serial_report.skipped
        assert report.errors == serial_report.errors
        if mode == "quarantine":
            serial_rejects = (tmp_path / "qs" / "traces.txt.rejects.txt").read_bytes()
            rejects = (tmp_path / "qp" / "traces.txt.rejects.txt").read_bytes()
            assert rejects == serial_rejects

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_strict_raises_earliest_line(self, jobs, tmp_path):
        lines = GOOD + ["bad one"] + GOOD + ["bad two"]
        with pytest.raises(TraceParseError) as serial:
            ingest_traces(lines, mode="strict")
        with pytest.raises(TraceParseError) as parallel:
            _fused(lines, jobs, tmp_path, mode="strict")
        assert parallel.value.line_number == serial.value.line_number == 4
        assert parallel.value.reason == serial.value.reason

    def test_error_budget_applies(self, tmp_path):
        lines = (GOOD * 10) + ["junk"] * 10
        with pytest.raises(ErrorBudgetExceeded):
            _fused(lines, 4, tmp_path, mode="lenient", budget=ErrorBudget(0.1))

    def test_detailed_error_cap_matches_serial(self, tmp_path):
        lines = ["junk %d" % i for i in range(MAX_DETAILED_ERRORS + 50)]
        _, serial_report = ingest_traces(lines, mode="lenient", source="traces.txt")
        _, report, _ = _fused(lines, 4, tmp_path, mode="lenient")
        assert report.malformed == serial_report.malformed
        assert report.errors == serial_report.errors
        assert len(report.errors) == MAX_DETAILED_ERRORS


@pytest.fixture()
def dataset(tmp_bundle):
    return tmp_bundle(seed=3)


def _run(dataset, out, trace, *extra):
    args = ["run", str(dataset), "--json", "--output", str(out), "--trace", str(trace)]
    assert main(list(args) + list(extra)) == 0


def _write_v1_entry(cache, source_sha, format, traces, parsed, skipped=0):
    """Fabricate an entry in the v1 layout of earlier releases (a JSON
    header line + a pickle of compact trace tuples) at the entry's
    canonical path, and return that path."""
    import hashlib
    import pickle

    from repro.perf.cache import MAGIC

    records = [
        (t.monitor, t.dst, tuple((h.address, h.quoted_ttl, h.rtt_ms) for h in t.hops), t.flow_id)
        for t in traces
    ]
    payload = pickle.dumps(records)
    header = {
        "magic": MAGIC,
        "version": 1,
        "format": format,
        "source_sha256": source_sha,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "parsed": parsed,
        "skipped": skipped,
    }
    path = cache.entry_path(source_sha, format)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    return path


class TestCliJobsEquivalence:
    def test_jobs_byte_identical(self, dataset, tmp_path, capsys):
        outputs = {}
        for jobs in (1, 2, 4):
            out = tmp_path / f"out{jobs}.json"
            trace = tmp_path / f"trace{jobs}.jsonl"
            _run(dataset, out, trace, "--jobs", str(jobs))
            outputs[jobs] = (out.read_bytes(), trace.read_bytes())
        assert outputs[2] == outputs[1]
        assert outputs[4] == outputs[1]


class TestCacheEquivalence:
    def test_cold_then_warm_byte_identical(self, dataset, tmp_path, capsys):
        cache = tmp_path / "cache"
        cold_out, cold_trace = tmp_path / "c.json", tmp_path / "c.jsonl"
        warm_out, warm_trace = tmp_path / "w.json", tmp_path / "w.jsonl"
        plain_out, plain_trace = tmp_path / "p.json", tmp_path / "p.jsonl"
        _run(dataset, plain_out, plain_trace, "--no-cache")
        _run(dataset, cold_out, cold_trace, "--cache", str(cache))
        metrics = tmp_path / "m.json"
        _run(dataset, warm_out, warm_trace, "--cache", str(cache), "--metrics", str(metrics))
        assert cold_out.read_bytes() == plain_out.read_bytes()
        assert warm_out.read_bytes() == plain_out.read_bytes()
        # the trace JSONL is part of the contract: a cache hit emits the
        # same ingest events/counters a clean parse does
        assert cold_trace.read_bytes() == plain_trace.read_bytes()
        assert warm_trace.read_bytes() == plain_trace.read_bytes()
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["perf.cache.hits"] == 1
        assert counters["ingest.records.parsed"] > 0

    def test_corrupt_entry_detected_and_rebuilt(self, dataset, tmp_path, capsys):
        cache = tmp_path / "cache"
        _run(dataset, tmp_path / "cold.json", tmp_path / "cold.jsonl", "--cache", str(cache))
        entries = list(cache.glob("*.mapitc"))
        assert len(entries) == 1
        # flip one payload byte
        data = bytearray(entries[0].read_bytes())
        data[-1] ^= 0xFF
        entries[0].write_bytes(bytes(data))
        metrics = tmp_path / "m1.json"
        _run(
            dataset,
            tmp_path / "re.json",
            tmp_path / "re.jsonl",
            "--cache",
            str(cache),
            "--metrics",
            str(metrics),
        )
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["perf.cache.invalid"] == 1
        assert "perf.cache.hits" not in counters
        # rewriting the entry this run found invalid is no race
        assert counters["perf.cache.stores"] == 1
        assert "perf.cache.contended" not in counters
        assert (tmp_path / "re.json").read_bytes() == (
            tmp_path / "cold.json"
        ).read_bytes()
        # the corrupt entry was overwritten by a good one: next run hits
        metrics2 = tmp_path / "m2.json"
        _run(
            dataset,
            tmp_path / "hit.json",
            tmp_path / "hit.jsonl",
            "--cache",
            str(cache),
            "--metrics",
            str(metrics2),
        )
        assert json.loads(metrics2.read_text())["counters"]["perf.cache.hits"] == 1

    def test_changed_source_misses(self, tmp_bundle, tmp_path, capsys):
        dataset = tmp_bundle(seed=3, copy=True)
        cache = tmp_path / "cache"
        _run(dataset, tmp_path / "a.json", tmp_path / "a.jsonl", "--cache", str(cache))
        with open(dataset / "traces.txt", "a") as handle:
            handle.write("m9|9.1.0.9|9.0.0.1 9.1.0.1\n")
        metrics = tmp_path / "m.json"
        _run(
            dataset,
            tmp_path / "b.json",
            tmp_path / "b.jsonl",
            "--cache",
            str(cache),
            "--metrics",
            str(metrics),
        )
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["perf.cache.misses"] == 1
        assert len(list(cache.glob("*.mapitc"))) == 2

    def test_v1_entry_warm_run_byte_identical(
        self, dataset, tmp_path, capsys, refuse_unpickling
    ):
        """A warm run over an entry in the v1 layout of earlier releases
        (a JSON header line + a pickle) is byte-identical to the uncached
        run: the entry fails v2 verification, is counted invalid,
        re-parsed and overwritten with a v2 entry — and its pickle is
        never loaded."""
        import hashlib

        from repro.perf.cache import BINARY_MAGIC
        from repro.robust.ingest import ingest_trace_file

        plain_out, plain_trace = tmp_path / "p.json", tmp_path / "p.jsonl"
        _run(dataset, plain_out, plain_trace, "--no-cache")
        source_sha = hashlib.sha256((dataset / "traces.txt").read_bytes()).hexdigest()
        traces, report = ingest_trace_file(dataset / "traces.txt")
        cache = tmp_path / "cache"
        entry = _write_v1_entry(
            BundleCache(cache), source_sha, "text", traces, report.parsed, report.skipped
        )
        out, trace, metrics = tmp_path / "v.json", tmp_path / "v.jsonl", tmp_path / "m.json"
        _run(dataset, out, trace, "--cache", str(cache), "--metrics", str(metrics))
        assert refuse_unpickling == []
        assert out.read_bytes() == plain_out.read_bytes()
        assert trace.read_bytes() == plain_trace.read_bytes()
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["perf.cache.invalid"] == 1
        assert "perf.cache.hits" not in counters
        assert entry.read_bytes().startswith(BINARY_MAGIC)

    def test_object_load_refuses_a_cache(self, dataset, tmp_path):
        """Entries hold folded graphs: only the graph loader reads or
        writes them."""
        from repro.io.bundle import load_bundle

        with pytest.raises(ValueError):
            load_bundle(dataset, cache=tmp_path / "cache")
        assert not (tmp_path / "cache").exists()

    def test_dirty_parse_not_cached(self, tmp_bundle, tmp_path, capsys):
        dataset = tmp_bundle(seed=3, copy=True)
        with open(dataset / "traces.txt", "a") as handle:
            handle.write("garbage line\n")
        cache = tmp_path / "cache"
        args = [
            "run",
            str(dataset),
            "--json",
            "--output",
            str(tmp_path / "o.json"),
            "--on-error",
            "lenient",
            "--cache",
            str(cache),
        ]
        assert main(args) == 0
        assert list(cache.glob("*.mapitc")) == []


def _load(cache, source_sha256, format):
    """``(bundle, parsed, skipped)`` of a verified hit, else None."""
    hit = cache.load_entry(source_sha256, format)
    if hit is None:
        return None
    return hit.bundle, hit.parsed, hit.skipped


def _clean_entry():
    """The folded graph of GOOD as the object pipeline builds it, and
    the clean report a store needs."""
    from repro.perf.flat import GraphFold
    from repro.robust.errors import IngestReport
    from repro.traceroute.parse import parse_text_traces

    traces = list(parse_text_traces(GOOD))
    graph, sanitized = graph_from_traces(traces)
    fold = GraphFold()
    fold.forward, fold.backward = graph.forward, graph.backward
    fold.seen, fold.universe = sanitized.retained_addresses, sanitized.all_addresses
    fold.retained, fold.discarded = len(sanitized.traces), sanitized.discarded
    fold.buggy = sanitized.buggy_hops_removed
    return fold.bundle(), IngestReport(source="traces.txt", parsed=len(traces))


def _write_v2_entry(cache, source_sha, format, traces):
    """Fabricate an entry in the v2 layout of the previous release (the
    same header, version 2, over a columnar trace block) at the entry's
    canonical path, with both digests valid, and return that path."""
    import hashlib
    import struct

    from repro.perf.cache import BINARY_MAGIC
    from repro.perf.flat import pack_traces

    payload = pack_traces(traces).to_bytes()
    header = struct.pack(
        "<8sHBxIIQ32s32s",
        BINARY_MAGIC,
        2,
        {"text": 1, "jsonl": 2, "atlas": 3}[format],
        len(traces),
        0,
        len(payload),
        bytes.fromhex(source_sha),
        hashlib.sha256(payload).digest(),
    )
    path = cache.entry_path(source_sha, format)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(header + payload)
    return path


class TestBundleCacheUnit:
    def test_load_missing_is_miss(self, tmp_path):
        assert _load(BundleCache(tmp_path), "0" * 64, "text") is None

    def test_round_trip(self, tmp_path):
        bundle, report = _clean_entry()
        cache = BundleCache(tmp_path)
        assert cache.store_payload("a" * 64, "text", bundle.to_bytes(), report)
        assert _load(cache, "a" * 64, "text") == (bundle, report.parsed, 0)
        assert _load(cache, "b" * 64, "text") is None  # different source
        assert _load(cache, "a" * 64, "jsonl") is None  # different format

    def test_dirty_report_refused(self, tmp_path):
        from repro.robust.errors import IngestReport

        bundle, _ = _clean_entry()
        report = IngestReport(source="traces.txt", parsed=1, malformed=2)
        assert not BundleCache(tmp_path).store_payload(
            "a" * 64, "text", bundle.to_bytes(), report
        )
        assert list(tmp_path.iterdir()) == []

    def test_stored_entries_are_binary_v2(self, tmp_path):
        """Entries keep the struct-packed binary header the v2 layout
        introduced; this release writes it as version 3."""
        import struct

        from repro.perf.cache import BINARY_MAGIC, CACHE_VERSION

        bundle, report = _clean_entry()
        cache = BundleCache(tmp_path)
        assert cache.store_payload("a" * 64, "text", bundle.to_bytes(), report)
        raw = cache.entry_path("a" * 64, "text").read_bytes()
        assert raw.startswith(BINARY_MAGIC)
        assert struct.unpack_from("<H", raw, 8) == (CACHE_VERSION,) == (3,)

    def test_header_tamper_is_invalid(self, tmp_path):
        import struct

        bundle, report = _clean_entry()
        cache = BundleCache(tmp_path)
        cache.store_payload("a" * 64, "text", bundle.to_bytes(), report)
        path = cache.entry_path("a" * 64, "text")
        raw = bytearray(path.read_bytes())
        # doctor the struct header's parsed-count field (offset 12, u32):
        # the payload's retained + discarded no longer add up to it
        struct.pack_into("<I", raw, 12, 999)
        path.write_bytes(bytes(raw))
        assert _load(cache, "a" * 64, "text") is None

    def test_v1_entry_reads_transparently(self, tmp_path, refuse_unpickling):
        """A v1 entry reads as a plain miss — no exception, no unpickling,
        counted ``perf.cache.invalid`` — and the next store overwrites it
        in place with a binary entry that hits."""
        from repro.obs.metrics import Metrics
        from repro.obs.observer import Observability
        from repro.perf.cache import BINARY_MAGIC
        from repro.traceroute.parse import parse_text_traces

        traces = list(parse_text_traces(GOOD))
        metrics = Metrics()
        cache = BundleCache(tmp_path, obs=Observability(metrics=metrics))
        path = _write_v1_entry(cache, "a" * 64, "text", traces, len(traces))
        assert cache.load_entry("a" * 64, "text") is None
        assert refuse_unpickling == []
        assert metrics.counters["perf.cache.invalid"] == 1
        assert "perf.cache.hits" not in metrics.counters
        bundle, report = _clean_entry()
        assert cache.store_payload("a" * 64, "text", bundle.to_bytes(), report)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes().startswith(BINARY_MAGIC)
        assert _load(cache, "a" * 64, "text") == (bundle, len(traces), 0)

    def test_v2_entry_is_one_invalid_miss_then_overwritten(self, tmp_path):
        """An entry in the previous release's v2 layout (parsed trace
        columns) sits at the same filename: it is one counted-invalid
        miss, and the next store overwrites it in place with a v3
        entry that hits."""
        from repro.obs.metrics import Metrics
        from repro.obs.observer import Observability
        from repro.traceroute.parse import parse_text_traces

        metrics = Metrics()
        cache = BundleCache(tmp_path, obs=Observability(metrics=metrics))
        path = _write_v2_entry(cache, "a" * 64, "text", list(parse_text_traces(GOOD)))
        assert cache.load_entry("a" * 64, "text") is None
        assert metrics.counters["perf.cache.invalid"] == 1
        assert "perf.cache.hits" not in metrics.counters
        bundle, report = _clean_entry()
        assert cache.store_payload("a" * 64, "text", bundle.to_bytes(), report)
        assert list(tmp_path.iterdir()) == [path]
        hit = cache.load_entry("a" * 64, "text")
        assert hit is not None and hit.entry_version == 3 and hit.bundle == bundle
        assert metrics.counters["perf.cache.invalid"] == 1
        assert "perf.cache.contended" not in metrics.counters

    def test_v1_entry_tamper_still_detected(self, tmp_path, refuse_unpickling):
        """A v1 entry doctored to look like a binary entry — its leading
        bytes replaced by the binary magic, or its header's version set
        to 2 — still fails verification without being unpickled."""
        from repro.obs.metrics import Metrics
        from repro.obs.observer import Observability
        from repro.perf.cache import BINARY_MAGIC
        from repro.traceroute.parse import parse_text_traces

        traces = list(parse_text_traces(GOOD))
        metrics = Metrics()
        cache = BundleCache(tmp_path, obs=Observability(metrics=metrics))
        path = _write_v1_entry(cache, "a" * 64, "text", traces, len(traces))
        v1 = path.read_bytes()
        doctored = [
            BINARY_MAGIC + v1[len(BINARY_MAGIC) :],
            v1.replace(b'"version": 1', b'"version": 2', 1),
        ]
        assert doctored[1] != v1
        for data in doctored:
            path.write_bytes(data)
            assert cache.load_entry("a" * 64, "text") is None
        assert refuse_unpickling == []
        assert metrics.counters["perf.cache.invalid"] == len(doctored)
        assert "perf.cache.hits" not in metrics.counters

    def test_v2_hit_counts_format_metric(self, tmp_path):
        """A hit counts its entry format: ``perf.cache.format.v3`` for
        the layout this release writes."""
        from repro.obs.metrics import Metrics
        from repro.obs.observer import Observability

        bundle, report = _clean_entry()
        metrics = Metrics()
        cache = BundleCache(tmp_path, obs=Observability(metrics=metrics))
        assert cache.store_payload("a" * 64, "text", bundle.to_bytes(), report)
        hit = cache.load_entry("a" * 64, "text")
        assert hit.entry_version == 3 and hit.format_label == "v3"
        assert hit.bundle == bundle
        assert metrics.counters["perf.cache.format.v3"] == 1


class TestCacheHardening:
    """Races and write failures degrade the cache, never the run."""

    @staticmethod
    def _metrics_obs():
        from repro.obs.metrics import Metrics
        from repro.obs.observer import Observability

        metrics = Metrics()
        return Observability(metrics=metrics), metrics

    def test_overwriting_existing_entry_counts_contention(self, tmp_path):
        bundle, report = _clean_entry()
        obs, metrics = self._metrics_obs()
        cache = BundleCache(tmp_path, obs=obs)
        assert cache.store_payload("a" * 64, "text", bundle.to_bytes(), report)
        assert "perf.cache.contended" not in metrics.counters
        # a second run racing over the same dataset stores the same key
        assert cache.store_payload("a" * 64, "text", bundle.to_bytes(), report)
        assert metrics.counters["perf.cache.contended"] == 1
        assert _load(cache, "a" * 64, "text") == (bundle, report.parsed, 0)

    def test_store_creates_missing_directory(self, tmp_path):
        bundle, report = _clean_entry()
        cache = BundleCache(tmp_path / "deep" / "nested")
        assert cache.store_payload("a" * 64, "text", bundle.to_bytes(), report)
        assert _load(cache, "a" * 64, "text") == (bundle, report.parsed, 0)

    def test_enospc_store_fails_soft(self, tmp_path):
        from repro.robust.faults import ChaosInjector
        from repro.robust.hooks import chaos

        bundle, report = _clean_entry()
        obs, metrics = self._metrics_obs()
        cache = BundleCache(tmp_path, obs=obs)
        with chaos(ChaosInjector(cache_enospc=True)):
            assert not cache.store_payload("a" * 64, "text", bundle.to_bytes(), report)
        assert metrics.counters["perf.cache.store_failed"] == 1
        # the failed store left no partial entry behind
        assert _load(cache, "a" * 64, "text") is None
        # and a later healthy store succeeds
        assert cache.store_payload("a" * 64, "text", bundle.to_bytes(), report)
