"""The fused text kernel against the object parser and the oracle's fold.

:func:`repro.perf.ingest.stream_graph_from_file` parses, sanitizes and
folds trace text straight to integer neighbor tables, without building
a ``Trace`` or ``Hop``.  These tests hold it, at one and two shards, to
the object parser (``parse_text_trace``, the ingest report) followed by
the oracle's paper-literal fold (:func:`repro.oracle.oracle_fold`) on
seeded generated text under every ingest mode — tables, tallies and
the retained addresses scoring reads — pin its cache payload to the
bundle of the oracle fold's tables byte for byte, and check that a
graph-only load — and every command built on one: ``run`` (journaled
or not, resumed or not), ``explain`` and ``report`` — never calls the
object parsers at all.
"""

import json
import random
import shutil

import pytest

import repro.perf.flat as perf_flat
import repro.robust.ingest as robust_ingest
import repro.traceroute.parse as trace_parse
from repro.cli import main
from repro.io.atomic import file_sha256
from repro.io.bundle import load_bundle
from repro.net.ipv4 import format_address, parse_address
from repro.net.special import default_special_registry
from repro.obs.metrics import Metrics
from repro.obs.observer import Observability
from repro.perf.cache import BundleCache
from repro.perf.flat import GraphFold, pack_traces
from repro.perf.ingest import stream_graph_from_file
from repro.robust.errors import MAX_DETAILED_ERRORS
from repro.robust.ingest import ingest_trace_file
from repro.robust.journal import RunJournal
from repro.serve.checkpoint import CHECKPOINT_UNIT
from repro.serve.incremental import IncrementalIndex
from repro.traceroute.parse import TraceParseError, traces_to_json_lines
from tests.test_oracle import oracle_graph

#: RFC 6890 addresses: they break adjacency and own no neighbor set
SPECIAL = ["10.0.0.1", "10.9.8.7", "192.168.1.1", "100.64.0.3", "127.0.0.1", "224.0.0.5"]

#: malformed records, one per parse-error reason (and the token order)
MALFORMED = [
    "garbage",
    "mon-x|9.0.0.1",
    "mon-x|300.0.0.1|9.0.0.2",
    "mon-x|9.0.0.1|9.0.0.2 9.0.0.300",
    "mon-x|9.0.0.1|9.0.0.2@x",
    "mon-x|9.0.0.1|9.0.0.2 1.2.3@x.y",
    "mon-x|9.0.0.1|9.0.0.2 9.0.0.³",
    "mon-x|9.0.0.1|9.0.0.01 9.0.0.2",
    "mon-x|*|9.0.0.2",
    "mon-x|9.0.0.1|*@3",
]


def _address_pool(rng, size=16):
    pool = [f"9.{rng.randrange(4)}.{rng.randrange(4)}.{rng.randrange(256)}" for _ in range(size)]
    return pool + rng.sample(SPECIAL, 3)


def _hop_token(rng, pool):
    if rng.random() < 0.12:
        return "*"
    address = rng.choice(pool)
    roll = rng.random()
    if roll < 0.12:
        return f"{address}@0"
    if roll < 0.25:
        return f"{address}@{rng.choice([1, 2, 7, 255, -1])}"
    return address


def _record(rng, pool):
    hops = [_hop_token(rng, pool) for _ in range(rng.randrange(0, 9))]
    responsive = [token for token in hops if token != "*"]
    if responsive and rng.random() < 0.2:
        # an interface cycle: an earlier hop again, at least two apart
        hops.extend(["*", rng.choice(responsive)])
    if hops and rng.random() < 0.1:
        hops.append(hops[-1])  # an immediate repeat, which is no cycle
    separator = rng.choice([" ", "  ", "\t"])
    return f"mon-{rng.randrange(3)}|{rng.choice(pool)}|{separator.join(hops)}"


def _text(rng, lines=160, malformed=True):
    """Seeded trace text: records with gaps, buggy hops, TTLs, cycles,
    special and repeated addresses, plus blank, comment and (when
    *malformed*) bad lines."""
    pool = _address_pool(rng)
    out = []
    for _ in range(lines):
        roll = rng.random()
        if roll < 0.05:
            out.append(rng.choice(["", "   ", "\t"]))
        elif roll < 0.09:
            out.append(f"# comment {rng.randrange(100)}")
        elif malformed and roll < 0.17:
            out.append(rng.choice(MALFORMED))
        else:
            out.append(("  " if rng.random() < 0.05 else "") + _record(rng, pool))
    return "\n".join(out) + "\n"


def _oracle(path, mode, quarantine_dir):
    """parse_text_trace, then the oracle's fold; the ``graph.addresses``
    gauge counts its non-special retained addresses."""
    traces, report = ingest_trace_file(path, mode=mode, quarantine_dir=quarantine_dir)
    graph, fold = oracle_graph(traces)
    tallies = (fold.retained, fold.discarded, fold.buggy_hops_removed)
    is_special = default_special_registry().is_special
    gauge = sum(1 for address in fold.retained_addresses if not is_special(address))
    return graph, report, tallies, gauge, fold.retained_addresses


def _kernel(path, jobs, mode, quarantine_dir):
    metrics = Metrics()
    graph, report, fold = stream_graph_from_file(
        path, jobs, mode=mode, quarantine_dir=quarantine_dir, obs=Observability(metrics=metrics)
    )
    gauges = metrics.gauges
    tallies = (
        gauges["sanitize.retained"],
        gauges["sanitize.discarded"],
        gauges["sanitize.buggy_hops_removed"],
    )
    # fold.seen is the set a graph load hands to scoring
    return graph, report, tallies, gauges["graph.addresses"], fold.seen


def _assert_same(oracle, kernel, oracle_dir, kernel_dir):
    (want_graph, want_report, want_tallies, want_gauge, want_retained) = oracle
    (graph, report, tallies, gauge, retained) = kernel
    assert graph.forward == want_graph.forward
    assert graph.backward == want_graph.backward
    assert graph.other_sides == want_graph.other_sides
    assert tallies == want_tallies
    assert gauge == want_gauge
    assert retained == want_retained
    if want_report.quarantine_path is not None:
        assert report.quarantine_path is not None
        for suffix in (".rejects.txt", ".errors.jsonl"):
            name = f"traces.txt{suffix}"
            assert (kernel_dir / name).read_bytes() == (oracle_dir / name).read_bytes()
        report.quarantine_path = want_report.quarantine_path
    assert report == want_report


class TestKernelMatchesObjectPipeline:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("mode", ["lenient", "quarantine"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_tolerant_modes(self, seed, mode, jobs, tmp_path):
        path = tmp_path / "traces.txt"
        path.write_text(_text(random.Random(9_001 * (seed + 1))))
        oracle = _oracle(path, mode, tmp_path / "qa")
        assert oracle[1].malformed > 0 and oracle[1].parsed > 0
        kernel = _kernel(path, jobs, mode, tmp_path / "qb")
        _assert_same(oracle, kernel, tmp_path / "qa", tmp_path / "qb")

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_strict_clean_text(self, seed, jobs, tmp_path):
        path = tmp_path / "traces.txt"
        path.write_text(_text(random.Random(4_243 * (seed + 1)), malformed=False))
        oracle = _oracle(path, "strict", None)
        assert oracle[2][1] > 0 and oracle[2][2] > 0  # cycles and buggy hops occur
        assert any(address in oracle[4] for address in map(parse_address, SPECIAL))
        _assert_same(oracle, _kernel(path, jobs, "strict", None), None, None)
        # the graph load's retained set, cold and from a warm entry
        (tmp_path / "cymru.txt").write_text("9.0.0.0/8|64500\n")
        cache = tmp_path / "cache"
        for want_format in (None, "v3"):
            bundle = load_bundle(tmp_path, jobs=jobs, cache=cache, graph_only=True)
            assert bundle.health.cache_format == want_format
            assert bundle.retained_addresses == oracle[4]
            assert bundle.graph.forward == oracle[0].forward
            assert bundle.graph.backward == oracle[0].backward

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_strict_raises_the_same_error(self, seed, jobs, tmp_path):
        path = tmp_path / "traces.txt"
        path.write_text(_text(random.Random(77 * (seed + 1))))
        with pytest.raises(TraceParseError) as want:
            ingest_trace_file(path, mode="strict")
        with pytest.raises(TraceParseError) as got:
            stream_graph_from_file(path, jobs, mode="strict")
        assert (got.value.reason, got.value.line_number, got.value.text) == (
            want.value.reason,
            want.value.line_number,
            want.value.text,
        )
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_error_cap_and_rejects(self, jobs, tmp_path):
        rng = random.Random(5)
        lines = []
        for index in range(MAX_DETAILED_ERRORS + 60):
            lines.append(rng.choice(MALFORMED))
            if index % 3 == 0:
                lines.append(_record(rng, _address_pool(rng)))
        path = tmp_path / "traces.txt"
        path.write_text("\n".join(lines) + "\n")
        oracle = _oracle(path, "quarantine", tmp_path / "qa")
        assert len(oracle[1].errors) == MAX_DETAILED_ERRORS < oracle[1].malformed
        kernel = _kernel(path, jobs, "quarantine", tmp_path / "qb")
        _assert_same(oracle, kernel, tmp_path / "qa", tmp_path / "qb")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_bad_token_is_never_memoised(self, jobs, tmp_path):
        """One bad token on two lines is two malformed records, each
        with its own line number and snippet."""
        path = tmp_path / "traces.txt"
        path.write_text(
            "m1|9.0.0.1|9.0.0.2 9.0.0.999\n"
            "m1|9.0.0.1|9.0.0.2 9.0.0.3\n"
            "m2|9.0.0.4|9.0.0.999 9.0.0.2\n"
        )
        _, report, _ = stream_graph_from_file(path, jobs, mode="lenient")
        assert (report.parsed, report.malformed) == (1, 2)
        assert [(error.line_number, error.snippet) for error in report.errors] == [
            (1, "m1|9.0.0.1|9.0.0.2 9.0.0.999"),
            (3, "m2|9.0.0.4|9.0.0.999 9.0.0.2"),
        ]
        assert report == ingest_trace_file(path, mode="lenient")[1]


#: records whose ends fall on flush edges at small flush bounds (the
#: 10/8 and 192.168/16 addresses are RFC 6890 special)
EDGE_RECORDS = [
    "m1|9.0.0.1|9.0.0.2 9.0.0.3 9.0.0.3 9.0.0.4",  # a self-loop member, no cycle
    "m1|9.0.0.1|* 9.0.0.2 9.0.0.5",
    "m1|9.0.0.1|9.0.0.5 9.0.0.2 *",
    "m1|9.0.0.1|10.0.0.1 9.0.0.2 9.0.0.3",
    "m1|9.0.0.1|9.0.0.3 9.0.0.4 192.168.1.1",
    "m1|9.0.0.1|9.0.0.4 * 9.0.0.4",  # a cycle through a gap
    "m1|9.0.0.1|9.0.0.6 9.0.0.7@0 9.0.0.8",
    "m1|9.0.0.1|9.0.0.8",
    "m1|9.0.0.1|*",
    "m1|9.0.0.1|9.0.0.9 9.0.0.9 9.0.0.9 10.0.0.1 10.0.0.1",
]

#: bad tokens after memoised ones on the same line: each must fail
#: with the object parser's reason, at its own line, in token order
LATE_BAD_TOKENS = [
    "m2|9.0.0.1|9.0.0.2 9.0.0.3 9.0.0.999",
    "m2|9.0.0.1|9.0.0.2 9.0.0.66 9.0.0.3@x",
    "m2|9.0.0.1|9.0.0.3 9.0.0.2@x 9.0.0.777",
]


class TestFlushBoundaries:
    """The loader's shards fold through the chunked kernel; with its
    flush bound cut to a few hop slots every record end is a flush
    edge, and every mode must still match the object parser and the
    oracle's fold."""

    @pytest.mark.parametrize("slots", [1, 4, 9])
    @pytest.mark.parametrize("mode", ["strict", "lenient", "quarantine"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_mode_matches_the_object_pipeline(
        self, slots, mode, jobs, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(perf_flat, "FLUSH_SLOTS", slots)
        flushes = []
        fold_adjacencies = perf_flat.GraphFold._fold_adjacencies

        def counted(fold, pending):
            flushes.append(len(pending))
            fold_adjacencies(fold, pending)

        monkeypatch.setattr(perf_flat.GraphFold, "_fold_adjacencies", counted)
        rng = random.Random(slots * 31 + jobs)
        lines = _text(rng, lines=80, malformed=mode != "strict").splitlines()
        lines[10:10] = EDGE_RECORDS + EDGE_RECORDS[::-1]
        if mode != "strict":
            lines[40:40] = LATE_BAD_TOKENS
        path = tmp_path / "traces.txt"
        path.write_text("\n".join(lines) + "\n")
        oracle = _oracle(path, mode, tmp_path / "qa")
        assert oracle[2][1] > 0 and oracle[2][2] > 0  # cycles and buggy hops
        kernel = _kernel(path, jobs, mode, tmp_path / "qb")
        _assert_same(oracle, kernel, tmp_path / "qa", tmp_path / "qb")
        if jobs == 1:  # the bound was live: no flush held much more
            assert len(flushes) > 1 and max(flushes) < slots + 12
        if mode != "strict":
            reasons = {error.line_number: error.reason for error in kernel[1].errors}
            assert [reasons[line] for line in range(41, 44)] == [
                "bad hop address: octet 999 out of range in '9.0.0.999'",
                "bad quoted TTL 'x'",
                "bad quoted TTL 'x'",
            ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_strict_raises_at_a_late_bad_token(self, jobs, tmp_path, monkeypatch):
        monkeypatch.setattr(perf_flat, "FLUSH_SLOTS", 3)
        for bad in LATE_BAD_TOKENS:
            path = tmp_path / "traces.txt"
            path.write_text("\n".join(EDGE_RECORDS + [bad] + EDGE_RECORDS) + "\n")
            with pytest.raises(TraceParseError) as want:
                ingest_trace_file(path, mode="strict")
            with pytest.raises(TraceParseError) as got:
                stream_graph_from_file(path, jobs, mode="strict")
            assert str(got.value) == str(want.value)
            assert got.value.line_number == len(EDGE_RECORDS) + 1


def _atlas_line(trace):
    """*trace* as one RIPE Atlas traceroute result (gaps as ``*`` replies)."""
    hops = []
    for ttl, hop in enumerate(trace.hops, start=1):
        if hop.address is None:
            reply = {"x": "*"}
        else:
            reply = {"from": format_address(hop.address), "rtt": 1.5, "ttl": 250}
        hops.append({"hop": ttl, "result": [reply]})
    record = {"af": 4, "prb_id": 7, "dst_addr": format_address(trace.dst), "result": hops}
    return json.dumps(record)


def _clean_text(rng):
    pool = _address_pool(rng)
    lines = [_record(rng, pool) for _ in range(120)]
    lines[3] = "mönïtor-β|9.0.0.1|9.0.0.2 * 9.0.0.3@0 10.0.0.1 9.0.0.4@2"
    return "\n".join(lines) + "\n"


def _object_bundle(traces):
    """The oracle fold of parsed *traces*, packed as a cache payload is."""
    _, oracle = oracle_graph(traces)
    fold = GraphFold()
    fold.forward, fold.backward = oracle.forward, oracle.backward
    fold.seen, fold.universe = oracle.retained_addresses, oracle.all_addresses
    fold.retained, fold.discarded = oracle.retained, oracle.discarded
    fold.buggy = oracle.buggy_hops_removed
    return fold.bundle()


class TestColdCachePayload:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_text_payload_is_the_object_tables(self, jobs, tmp_bundle, tmp_path, capsys):
        """A cold store's entry holds the oracle fold's tables,
        retained set, universe and counts, byte for byte at any shard
        count."""
        dataset = tmp_bundle(seed=3, copy=True)
        path = dataset / "traces.txt"
        path.write_text(_clean_text(random.Random(11)))
        cache = tmp_path / "cache"
        load_bundle(dataset, jobs=jobs, cache=cache, graph_only=True)
        hit = BundleCache(cache).load_entry(file_sha256(path), "text")
        assert hit is not None
        want = _object_bundle(ingest_trace_file(path)[0])
        assert hit.bundle.to_bytes() == want.to_bytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("suffix", [".jsonl", ".atlas"])
    def test_parse_record_formats_fold_the_same(self, suffix, jobs, tmp_path):
        """jsonl and atlas records go through parse_record, then the
        same integer fold as text."""
        text_path = tmp_path / "traces.txt"
        text_path.write_text(_clean_text(random.Random(12)))
        traces = ingest_trace_file(text_path)[0]
        path = tmp_path / f"traces{suffix}"
        if suffix == ".jsonl":
            lines = list(traces_to_json_lines(traces))
        else:
            lines = [_atlas_line(trace) for trace in traces]
            lines.insert(5, json.dumps({"af": 6, "prb_id": 1, "dst_addr": "::1", "result": []}))
        path.write_text("\n".join(lines) + "\n")
        graph, report, fold = stream_graph_from_file(path, jobs)
        objects, want_report = ingest_trace_file(path)
        assert report == want_report
        assert (report.skipped > 0) == (suffix == ".atlas")  # IPv6, no results
        assert fold.bundle().to_bytes() == _object_bundle(objects).to_bytes()
        want, _ = oracle_graph(objects)
        assert (graph.forward, graph.backward) == (want.forward, want.backward)
        assert graph.other_sides == want.other_sides

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_ttl_beyond_i64_is_cached(self, jobs, tmp_bundle, tmp_path, capsys):
        """A quoted TTL outside the columnar i64 range parses clean, and
        an entry stores no TTLs: such a dataset is cached, and its warm
        run equals its cold run and an object load's."""
        dataset = tmp_bundle(seed=3, copy=True)
        with open(dataset / "traces.txt", "a") as handle:
            handle.write(f"m9|9.1.0.9|9.0.0.1 9.1.0.1@{2**63}\n")
        cache = tmp_path / "cache"
        run = ["run", str(dataset), "--json", "--cache", str(cache), "--jobs", str(jobs)]
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        assert main(run + ["--output", str(cold)]) == 0
        assert len(list(cache.glob("*.mapitc"))) == 1
        metrics = tmp_path / "metrics.json"
        assert main(run + ["--output", str(warm), "--metrics", str(metrics)]) == 0
        assert json.loads(metrics.read_text())["counters"]["perf.cache.hits"] == 1
        assert warm.read_bytes() == cold.read_bytes()
        expected = load_bundle(dataset).run_mapit().to_json(indent=2) + "\n"
        assert cold.read_text() == expected


#: a .mapitc entry's header size; its payload is the packed fold
ENTRY_HEADER_BYTES = 92


def _newest_checkpoint_blob(journal_dir):
    """The blob the newest serve checkpoint in *journal_dir* names."""
    (log,) = journal_dir.glob("*.journal.jsonl")
    journal = RunJournal(journal_dir, log.name[: -len(".journal.jsonl")])
    return journal.load_blob(journal.units(CHECKPOINT_UNIT)[-1])


def test_one_fold_state_every_source_both_on_disk_uses(tmp_bundle, tmp_path, capsys):
    """One dataset's fold packs to the same bytes from every source —
    a serve session following the traces file and one whose warm base
    is the dataset's own (their checkpoint blobs), a cold ``mapit run
    --cache`` at one and two shards (its entry's payload), a
    column-block fold and the serve index's trace fold."""
    dataset = tmp_bundle(seed=3)
    traces_path = dataset / "traces.txt"
    packed = {}
    for jobs in (1, 2):
        cache = tmp_path / f"cache{jobs}"
        run = ["run", str(dataset), "--json", "--output", str(tmp_path / "out.json")]
        assert main(run + ["--cache", str(cache), "--jobs", str(jobs)]) == 0
        (entry,) = cache.glob("*.mapitc")
        packed[f"run --jobs {jobs}"] = entry.read_bytes()[ENTRY_HEADER_BYTES:]
    maps = tmp_path / "maps"
    maps.mkdir()
    for path in dataset.iterdir():
        if path.is_file() and path.name not in ("traces.txt", "manifest.json"):
            (maps / path.name).write_bytes(path.read_bytes())
    shutil.copytree(dataset / "bgp", maps / "bgp")
    journal = tmp_path / "journal"
    serve = ["serve", str(maps), "--once", "--json", "--journal", str(journal)]
    assert main(serve + ["--follow", str(traces_path), "--output", str(tmp_path / "s")]) == 0
    packed["serve checkpoint"] = _newest_checkpoint_blob(journal)
    warm = tmp_path / "warm"
    serve = ["serve", str(dataset), "--once", "--json", "--journal", str(warm)]
    assert main(serve + ["--output", str(tmp_path / "w")]) == 0
    packed["serve warm base checkpoint"] = _newest_checkpoint_blob(warm)
    traces = ingest_trace_file(traces_path)[0]
    fold = GraphFold()
    fold.fold_block(pack_traces(traces))
    packed["fold_block"] = fold.bundle().to_bytes()
    bundle = load_bundle(dataset, skip_traces=True)
    index = IncrementalIndex(bundle.ip2as)
    index.fold(traces)
    packed["IncrementalIndex.fold"] = index.export_state().to_bytes()
    want = packed["fold_block"]
    assert len(want) > ENTRY_HEADER_BYTES
    assert {source: blob == want for source, blob in packed.items()} == dict.fromkeys(
        packed, True
    )


class TestNoObjectParse:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_graph_only_load_never_builds_traces(
        self, jobs, tmp_bundle, tmp_path, monkeypatch, capsys
    ):
        from repro.core.config import MapItConfig
        from repro.robust.faults import ChaosInjector, SimulatedCrash
        from repro.robust.hooks import chaos
        from repro.robust.journal import run_identity_for

        def refuse(*args, **kwargs):
            raise AssertionError("a graph-only load parsed a trace object")

        for module, name in (
            (trace_parse, "parse_text_trace"),
            (robust_ingest, "parse_text_trace"),
            (robust_ingest, "parse_record"),
        ):
            monkeypatch.setattr(module, name, refuse)
        dataset = tmp_bundle(seed=3)
        bundle = load_bundle(dataset, jobs=jobs, graph_only=True)
        assert bundle.graph is not None and bundle.traces == []
        assert bundle.health.ingest.parsed > 0
        # every command that needs only the graph loads the same way
        plain = tmp_path / "plain.json"
        run = ["run", str(dataset), "--json", "--jobs", str(jobs)]
        assert main(run + ["--output", str(plain)]) == 0
        fresh = tmp_path / "fresh.json"
        journal = ["--journal", str(tmp_path / "journal")]
        assert main(run + journal + ["--output", str(fresh)]) == 0
        assert fresh.read_bytes() == plain.read_bytes()
        crashed = ["--journal", str(tmp_path / "crashed")]
        with chaos(ChaosInjector(crash_after_result=True)):
            with pytest.raises(SimulatedCrash):
                main(run + crashed + ["--output", str(tmp_path / "crash.json")])
        run_id = run_identity_for(dataset, MapItConfig(f=0.5), "strict")
        resumed = tmp_path / "resumed.json"
        assert main(run + crashed + ["--resume", run_id, "--output", str(resumed)]) == 0
        assert resumed.read_bytes() == plain.read_bytes()
        address = json.loads(plain.read_text())["inferences"][0]["address"]
        capsys.readouterr()
        assert main(["explain", str(dataset), address, "--jobs", str(jobs)]) == 0
        assert f"interface {address}" in capsys.readouterr().out
        assert main(["report", str(dataset), "--jobs", str(jobs)]) == 0
        assert "MAP-IT run report" in capsys.readouterr().out
        # the object loader, by contrast, goes through the patched parser
        with pytest.raises(AssertionError):
            load_bundle(dataset)
