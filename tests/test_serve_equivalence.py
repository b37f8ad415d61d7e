"""Serve-vs-batch equivalence: golden bundles, trace by trace.

The serve contract (docs/SERVE.md): a quiesced incremental state is
**byte-identical** — same §4.6 fingerprint, same result JSON — to a
batch ``mapit run`` over exactly the traces folded so far, regardless
of arrival order, checkpoint/restart boundaries, or transport.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import socket
import struct
import tempfile
import threading
from array import array

import pytest

import repro.perf.flat as perf_flat
import repro.robust.ingest as robust_ingest
import repro.traceroute.parse as trace_parse
from repro.cli import _serve_warm_start
from repro.cli import main as cli_main
from repro.core.config import REMOVE_ADD_RULE, MapItConfig
from repro.core.mapit import MapIt
from repro.diff.harness import compare_world, reference_state
from repro.diff.worlds import World, world_from_preset
from repro.io.atomic import atomic_write_bytes
from repro.io.bundle import find_traces, load_bundle
from repro.obs.metrics import Metrics
from repro.obs.observer import NULL_OBS, Observability
from repro.obs.trace import iter_events, read_trace
from repro.perf.flat import U32, FlatEncodeError, FlatGraphBundle, pack_traces
from repro.robust.health import BundleHealth
from repro.robust.journal import RunJournal
from repro.serve.checkpoint import CHECKPOINT_UNIT
from repro.serve.daemon import ServeDaemon
from repro.serve.incremental import IncrementalIndex
from repro.serve.sources import SocketSource
from repro.traceroute.parse import (
    parse_json_trace,
    traces_to_json_lines,
    traces_to_text_lines,
)
from tests.test_fused_kernel import _atlas_line


@pytest.fixture(scope="module")
def world() -> World:
    return world_from_preset("tiny", 0)


def _fresh_index(world: World, obs=NULL_OBS) -> IncrementalIndex:
    return IncrementalIndex(
        world.ip2as(),
        org=world.as2org,
        rel=world.relationships,
        config=MapItConfig(),
        obs=obs,
    )


def _serve_state(index: IncrementalIndex):
    result = index.quiesce()
    return index.fingerprint(), result.to_json(indent=2)


def test_trace_by_trace_byte_identity(world):
    """Every prefix of the stream quiesces to the batch state."""
    outcome = compare_world(world, check_every=1)
    assert outcome.ok, outcome.report
    assert outcome.prefixes == len(world.traces)


def test_trace_by_trace_byte_identity_add_rule(world):
    """The same, under Alg 3's literal remove rule (§4.5's other reading)."""
    outcome = compare_world(world, REMOVE_ADD_RULE, check_every=1)
    assert outcome.ok, outcome.report
    assert outcome.prefixes == len(world.traces)


def test_permuted_arrival_order(world):
    """Folding is order-independent: a shuffled stream quiesces to the
    same bytes as the canonical order (and as batch)."""
    batch_fp, batch_json = reference_state(world, len(world.traces), MapItConfig())
    shuffled = list(world.traces)
    random.Random(7).shuffle(shuffled)
    index = _fresh_index(world)
    for trace in shuffled:
        index.fold([trace])
    fp, payload = _serve_state(index)
    assert fp == batch_fp
    assert payload == batch_json


@pytest.mark.parametrize("stub_heuristic", [True, False])
def test_published_fingerprint_is_the_state_fingerprint(world, monkeypatch, stub_heuristic):
    """A quiesce publishes the §4.6 digest of the state its run left,
    both where the Alg 4 stub step inferred something after the last
    iteration and where it did not (or did not run)."""
    import repro.core.mapit as core_mapit

    inferred = []

    def recording_stub_step(engine):
        report = stub_step(engine)
        inferred.append(report.inferred)
        return report

    stub_step = core_mapit.stub_step
    monkeypatch.setattr(core_mapit, "stub_step", recording_stub_step)
    index = IncrementalIndex(
        world.ip2as(),
        org=world.as2org,
        rel=world.relationships,
        config=MapItConfig(enable_stub_heuristic=stub_heuristic),
    )
    daemon = ServeDaemon(index, format="text", quiesce_every=0)
    for line in traces_to_text_lines(world.traces):
        daemon.ingest_entry(line, "traces.txt")
        snapshot = daemon.quiesce()
        assert snapshot.fingerprint == index._mapit.engine.state.fingerprint()
    if stub_heuristic:
        assert 0 in inferred and any(inferred)
    else:
        assert inferred == []


def test_one_state_hash_per_quiesce(monkeypatch):
    """A quiesce hashes the inference state only for a reader: a
    snapshot hashes its digest when it is first read and never again,
    and one nobody reads is never hashed.  The §4.6 loop compares exact
    state keys.  A digest read after later quiesces is still the state
    of its own quiesce."""
    from repro.core.state import MapItState

    calls = []
    digest = MapItState.digest
    monkeypatch.setattr(
        MapItState,
        "digest",
        staticmethod(lambda direct, indirect: calls.append(1) or digest(direct, indirect)),
    )
    small = world_from_preset("small", 7)
    daemon = ServeDaemon(_fresh_index(small), format="text", quiesce_every=0)
    snapshots = []
    iterations = 0
    for number, line in enumerate(traces_to_text_lines(small.traces), start=1):
        daemon.ingest_entry(line, "traces.txt")
        if number % 64 == 0:
            snapshots.append((number, daemon.quiesce()))
            iterations += snapshots[-1][1].result.iterations
    assert len(snapshots) >= 4 and iterations > len(snapshots)
    assert calls == []
    read = snapshots[::2]
    digests = [snapshot.fingerprint for _, snapshot in read]
    assert [snapshot.fingerprint for _, snapshot in read] == digests
    assert len(calls) == len(read)
    monkeypatch.setattr(MapItState, "digest", staticmethod(digest))
    for (number, _), published in zip(read, digests):
        assert published == reference_state(small, number, MapItConfig())[0]


def test_passes_examine_what_changed_not_the_state(monkeypatch):
    """A quiesce's passes examine what its re-derivation touched, not
    the whole state.  On the small seed 7 replay, quiesced every 64
    folds, per direct inference made: the direct passes judge at most
    4 halves in every quiesce (a pass over every candidate visits 5 to
    17), and over the replay the remove passes re-test at most 1
    direct, the dual and divergent fixes are handed at most 2 halves
    and the inverse fix at most 1 (passes over every direct would take
    about 1.6, 2.5 and 2.5)."""
    import repro.core.add as add_module
    import repro.core.remove as remove_module
    from repro.core.engine import Engine
    from repro.core.state import MapItState

    counts = {}
    totals = {}

    def count(name, amount):
        counts[name] = counts.get(name, 0) + amount
        totals[name] = totals.get(name, 0) + amount

    open_candidates = Engine.open_candidates
    retested = remove_module._retested
    add_direct = MapItState.add_direct

    def counted_open_candidates(self):
        judged = open_candidates(self)
        count("judged", len(judged))
        count("candidates", len(self.candidate_set()))
        return judged

    def counted_retested(engine):
        tested = retested(engine)
        count("retested", len(tested))
        count("directs", len(engine.state.direct))
        return tested

    def counted_fix(name):
        fix = getattr(add_module, name)

        def counted(engine, touched):
            count(name, len(touched))
            count("directs per fix", len(engine.state.direct))
            return fix(engine, touched)

        return counted

    def counted_add_direct(self, inference):
        count("made", 1)
        add_direct(self, inference)

    monkeypatch.setattr(Engine, "open_candidates", counted_open_candidates)
    monkeypatch.setattr(remove_module, "_retested", counted_retested)
    monkeypatch.setattr(MapItState, "add_direct", counted_add_direct)
    fixes = ("_fix_dual_inferences", "_flag_divergent_other_sides", "_fix_inverse_inferences")
    for name in fixes:
        monkeypatch.setattr(add_module, name, counted_fix(name))
    small = world_from_preset("small", 7)
    daemon = ServeDaemon(_fresh_index(small), format="text", quiesce_every=0)
    quiesces = 0
    for number, line in enumerate(traces_to_text_lines(small.traces), start=1):
        daemon.ingest_entry(line, "traces.txt")
        if number % 64 == 0:
            counts.clear()
            daemon.quiesce()
            quiesces += 1
            assert counts["judged"] <= 4 * counts["made"] < counts["candidates"]
    assert quiesces >= 8
    made = totals["made"]
    assert totals["retested"] <= made < totals["directs"]
    for name, bound in zip(fixes, (2, 2, 1)):
        assert totals[name] <= bound * made < totals["directs per fix"] / 3, name


def test_patched_snapshot_indexes_equal_a_fresh_build():
    """Each snapshot's per-address and per-AS index entries, patched
    from the previous snapshot, list exactly its result's records in
    result order, and a record dict is shared with the previous
    snapshot whenever the inference is."""
    small = world_from_preset("small", 9)
    daemon = ServeDaemon(_fresh_index(small), format="text", quiesce_every=0)
    previous = daemon.snapshot
    for number, line in enumerate(traces_to_text_lines(small.traces), start=1):
        daemon.ingest_entry(line, "traces.txt")
        if number % 32 and number != len(small.traces):
            continue
        snapshot = daemon.quiesce()
        by_address, by_as = {}, {}
        for inference in snapshot.result.inferences + snapshot.result.uncertain:
            by_address.setdefault(inference.address, []).append(inference)
            by_as.setdefault(inference.local_as, []).append(inference)
            if inference.remote_as != inference.local_as:
                by_as.setdefault(inference.remote_as, []).append(inference)
        assert snapshot.by_address == by_address
        assert snapshot.by_as == by_as
        for inference, record in snapshot.records.items():
            assert record == inference.to_dict()
            if inference in previous.records:
                assert record is previous.records[inference]
        previous = snapshot


def test_chunked_folds_match_single_fold(world):
    """Chunk boundaries are invisible: many small folds == one big one,
    and every chunk boundary quiesces to the batch state of its prefix
    (tiny seed 0 in chunks of 13; small seed 7 in eight chunks)."""
    small = world_from_preset("small", 7)
    for subject, chunk in ((world, 13), (small, -(-len(small.traces) // 8))):
        whole = _fresh_index(subject)
        whole.fold(list(subject.traces))
        chunked = _fresh_index(subject)
        for start in range(0, len(subject.traces), chunk):
            end = min(start + chunk, len(subject.traces))
            chunked.fold(list(subject.traces[start:end]))
            # interleaved quiesces must not perturb state
            assert _serve_state(chunked) == reference_state(subject, end, MapItConfig())
        assert _serve_state(whole) == _serve_state(chunked)


def test_checkpoint_restart_midstream(world, tmp_path):
    """Kill after a mid-stream checkpoint, restore into a fresh daemon,
    fold the rest: byte-identical to batch over everything."""
    lines = list(traces_to_text_lines(world.traces))
    half = len(lines) // 2
    journal = RunJournal(tmp_path / "journal", "serve-test")
    first = ServeDaemon(
        _fresh_index(world), format="text", journal=journal, quiesce_every=11
    )
    offset = 0
    for line in lines[:half]:
        offset += len(line) + 1
        first.ingest_entry(line, "stream", offset)
    first.quiesce()
    assert first.checkpoint()
    # the first daemon is now abandoned mid-stream (simulated kill)
    second = ServeDaemon(
        _fresh_index(world),
        format="text",
        journal=RunJournal(tmp_path / "journal", "serve-test"),
        quiesce_every=11,
    )
    assert second.resume()
    assert second.offsets["stream"] == offset
    assert second.stats["folds"] == first.stats["folds"]
    for line in lines[half:]:
        offset += len(line) + 1
        second.ingest_entry(line, "stream", offset)
    snapshot = second.finalize()
    batch_fp, batch_json = reference_state(world, len(world.traces), MapItConfig())
    assert snapshot.fingerprint == batch_fp
    assert snapshot.result.to_json(indent=2) == batch_json


def _rewrite_newest_checkpoint(journal_dir, run_id, damage):
    """Re-journal every record, letting *damage* edit the newest
    checkpoint's payload and blob file before its line is re-stamped
    with a valid sha256; a blob *damage* returns is appended with the
    record, which then names it with a matching sha256."""
    records = RunJournal(journal_dir, run_id).read()
    RunJournal(journal_dir, run_id).path.unlink()
    journal = RunJournal(journal_dir, run_id)
    for record in records[:-1]:
        journal.append(record["unit"], record["payload"])
    newest = records[-1]
    assert newest["unit"] == CHECKPOINT_UNIT
    payload = dict(newest["payload"])
    blob = damage(journal.directory / f"{run_id}.{payload['blob']}.blob", payload)
    journal.append(newest["unit"], payload, blob=blob)


def _damage(kind):
    """A *damage* callback for :func:`_rewrite_newest_checkpoint`.

    The blob is one self-describing ``FlatGraphBundle.to_bytes()``;
    ``lengths`` and ``overrun`` are re-journaled with their sha256, so
    only the codec's own checks can catch them."""

    def damage(path, payload):
        data = bytearray(path.read_bytes())
        if kind == "truncated":
            path.write_bytes(data[: len(data) // 2])
        elif kind == "bit-flipped":
            data[len(data) // 2] ^= 0xFF
            path.write_bytes(data)
        elif kind == "lengths":
            # the header's forward length (a u64 at offset 8) claims
            # four bytes more than the blob carries
            (forward_len,) = struct.unpack_from("<Q", data, 8)
            struct.pack_into("<Q", data, 8, forward_len + 4)
            return bytes(data)
        elif kind == "mistyped":
            payload["stats"] = {**payload["stats"], "folds": "12"}
        else:
            # a forward run claiming 100 members it does not carry, in a
            # blob whose header matches and whose sha256 verifies
            bundle = FlatGraphBundle.from_bytes(bytes(data))
            bundle.forward = array(U32, [5, 100]).tobytes()
            return bundle.to_bytes()
        return None

    return damage


@pytest.mark.parametrize(
    "kind", ["truncated", "bit-flipped", "lengths", "mistyped", "overrun"]
)
def test_corrupt_checkpoint_falls_back(world, tmp_path, kind):
    """A damaged newest checkpoint is passed over for the previous one
    (counted as ``robust.journal.blob_corrupt``); with no earlier
    checkpoint ``resume()`` returns False.  It never raises."""
    lines = list(traces_to_text_lines(world.traces))
    third = len(lines) // 3
    journal_dir = tmp_path / "journal"
    daemon = ServeDaemon(
        _fresh_index(world), format="text", journal=RunJournal(journal_dir, "s")
    )
    folds = []
    for chunk in (lines[:third], lines[third : 2 * third]):
        for line in chunk:
            daemon.ingest_entry(line, "stream")
        assert daemon.checkpoint()
        folds.append(daemon.stats["folds"])
    _rewrite_newest_checkpoint(journal_dir, "s", _damage(kind))

    metrics = Metrics()
    obs = Observability(metrics=metrics)
    resumed = ServeDaemon(
        _fresh_index(world), format="text", journal=RunJournal(journal_dir, "s", obs=obs)
    )
    assert resumed.resume()
    assert resumed.stats["folds"] == folds[0]
    assert metrics.counters["robust.journal.blob_corrupt"] == 1
    for line in lines[third:]:
        resumed.ingest_entry(line, "stream")
    snapshot = resumed.finalize()
    assert (snapshot.fingerprint, snapshot.result.to_json(indent=2)) == reference_state(
        world, len(world.traces), MapItConfig()
    )

    # the damaged checkpoint alone: nothing to restore
    records = RunJournal(journal_dir, "s").read()
    RunJournal(journal_dir, "s").path.unlink()
    lone = RunJournal(journal_dir, "s")
    lone.append(records[1]["unit"], records[1]["payload"])
    fresh = ServeDaemon(_fresh_index(world), format="text", journal=lone)
    assert not fresh.resume()
    assert fresh.stats["folds"] == 0


def test_parent_checkpoint_restores_by_its_payload(world, tmp_path):
    """A checkpoint record written before the journal named its blobs —
    blob ``serve000000`` from the daemon's own counter, a ``checkpoint``
    field — restores through ``load_blob(payload)``, and the session's
    next checkpoint takes a blob of its own."""
    lines = list(traces_to_text_lines(world.traces))
    half = len(lines) // 2
    first = ServeDaemon(_fresh_index(world), format="text")
    for line in lines[:half]:
        first.ingest_entry(line, "stream")
    first.quiesce()
    journal_dir = tmp_path / "journal"
    journal_dir.mkdir()
    blob = first.index.export_state().to_bytes()
    payload = {
        "checkpoint": 0,
        "blob": "serve000000",
        "sha256": atomic_write_bytes(journal_dir / "s.serve000000.blob", blob),
        "offsets": dict(first.offsets),
        "lines": dict(first.line_counts),
        "stats": first.stats_view(),
        "fingerprint": first.snapshot.fingerprint,
    }
    assert RunJournal(journal_dir, "s").append(CHECKPOINT_UNIT, payload)
    resumed = ServeDaemon(
        _fresh_index(world), format="text", journal=RunJournal(journal_dir, "s")
    )
    assert resumed.resume()
    assert resumed.stats["folds"] == first.stats["folds"]
    for line in lines[half:]:
        resumed.ingest_entry(line, "stream")
    snapshot = resumed.finalize()
    assert (snapshot.fingerprint, snapshot.result.to_json(indent=2)) == reference_state(
        world, len(world.traces), MapItConfig()
    )
    assert sorted(path.name for path in journal_dir.glob("*.blob")) == [
        "s.seq000001.blob", "s.serve000000.blob"
    ]


def test_fresh_session_on_a_used_journal_appends(tmp_bundle, tmp_path, capsys):
    """A fresh session on a journal an earlier session used appends its
    checkpoint after the earlier one's, under a blob of its own, and
    ``--resume`` restores the newest.  (Regression: the second session
    rewrote seq 0 and the first session's blob, so the resume counted a
    torn tail and a corrupt blob and started cold.)"""
    dataset = tmp_bundle(seed=3, copy=True)
    lines = (dataset / "traces.txt").read_text().splitlines(keepends=True)
    assert len(lines) >= 400
    (dataset / "traces.txt").unlink()
    streams = [tmp_path / "a.txt", tmp_path / "b.txt"]
    streams[0].write_text("".join(lines[:200]))
    streams[1].write_text("".join(lines[200:400]))
    journal = tmp_path / "journal"
    outputs = [tmp_path / "a.out", tmp_path / "b.out", tmp_path / "resumed.out"]

    def serve(stream, output, *extra):
        return cli_main([
            "serve", str(dataset), "--follow", str(stream), "--once", "--json",
            "--journal", str(journal), "--output", str(output), *extra,
        ])

    assert serve(streams[0], outputs[0]) == 0
    assert serve(streams[1], outputs[1]) == 0
    capsys.readouterr()
    metrics = tmp_path / "m.json"
    assert serve(streams[1], outputs[2], "--resume", "--metrics", str(metrics)) == 0
    assert "resume: restored checkpoint at 200 folds" in capsys.readouterr().err
    counters = json.loads(metrics.read_text())["counters"]
    assert "robust.journal.torn_tail" not in counters
    assert "robust.journal.blob_corrupt" not in counters
    assert outputs[2].read_bytes() == outputs[1].read_bytes()
    (log,) = journal.glob("*.journal.jsonl")
    records = RunJournal(journal, log.name.split(".")[0]).read()
    assert [record["seq"] for record in records] == [0, 1, 2]
    assert len({record["payload"]["blob"] for record in records}) == 3


def test_checkpoints_keep_the_newest_two_blobs(world, tmp_path):
    """A session checkpointing every few folds leaves two blobs, not one
    per checkpoint, and a resume whose newest blob is damaged still
    falls back to the one before it."""
    journal_dir = tmp_path / "journal"
    daemon = ServeDaemon(
        _fresh_index(world),
        format="text",
        journal=RunJournal(journal_dir, "s"),
        checkpoint_every=10,
    )
    for line in traces_to_text_lines(world.traces):
        daemon.ingest_entry(line, "stream")
    daemon.finalize()
    payloads = RunJournal(journal_dir, "s").units(CHECKPOINT_UNIT)
    assert len(payloads) > 5
    blobs = sorted(path.name for path in journal_dir.glob("*.blob"))
    assert blobs == [f"s.{payload['blob']}.blob" for payload in payloads[-2:]]
    (journal_dir / blobs[-1]).write_bytes(b"damaged")
    metrics = Metrics()
    resumed = ServeDaemon(
        _fresh_index(world),
        format="text",
        journal=RunJournal(journal_dir, "s", obs=Observability(metrics=metrics)),
    )
    assert resumed.resume()
    assert resumed.stats["folds"] == payloads[-2]["stats"]["folds"]
    assert metrics.counters["robust.journal.blob_corrupt"] == 1


def _health_lines(err):
    """The stderr health summary: every line up to ``bundle health:``."""
    lines = err.splitlines()
    end = next(i for i, line in enumerate(lines) if line.startswith("bundle health:"))
    return lines[: end + 1]


@pytest.mark.parametrize("case", ["lenient", "warm"])
def test_serve_health_reports_the_warm_base(case, tmp_bundle, tmp_path, capsys):
    """``serve --once`` prints ``mapit run``'s health summary: the warm
    base's ingest line, the traces file's status and the ``cache: hit``
    line.  (Regression: serve printed the summary before it took the
    base, so a garbled line counted 0 rejected records and a warm
    ``--cache`` session never said so.)"""
    dataset = tmp_bundle(seed=3, copy=True)
    flags = ["--output", str(tmp_path / "out.txt")]
    if case == "lenient":
        traces = dataset / "traces.txt"
        lines = traces.read_text().splitlines(keepends=True)
        lines[len(lines) // 2] = "!!not-a-trace!!\n"
        traces.write_text("".join(lines))
        flags += ["--on-error", "lenient"]
    else:
        flags += ["--cache", str(tmp_path / "cache")]
        assert cli_main(["run", str(dataset), *flags]) == 0
    capsys.readouterr()
    assert cli_main(["run", str(dataset), *flags]) == 0
    run_health = _health_lines(capsys.readouterr().err)
    assert cli_main(["serve", str(dataset), "--once", *flags]) == 0
    assert _health_lines(capsys.readouterr().err) == run_health
    expected = {
        "lenient": "bundle health: degraded (1 dataset(s) degraded, "
        "1 checksum failure(s), 1 record(s) rejected)",
        "warm": "cache: hit (entry format v3)",
    }[case]
    assert expected in run_health


def test_resume_numbers_lines_from_the_checkpoint(tmp_bundle, tmp_path, capsys):
    """After ``--resume`` a followed file's lines keep their absolute
    numbers: a malformed line after 300 good ones is line 301 in the
    strict error and in the lenient ``serve.reject`` event, as in an
    uninterrupted session.  (Regression: numbering restarted at the
    restored offset, so it was reported as line 101.)"""
    dataset = tmp_bundle(seed=3, copy=True)
    lines = (dataset / "traces.txt").read_text().splitlines(keepends=True)
    (dataset / "traces.txt").unlink()
    stream = tmp_path / "stream.txt"
    stream.write_text("".join(lines[:200]))
    serve = [
        "serve", str(dataset), "--follow", str(stream), "--once",
        "--journal", str(tmp_path / "journal"), "--output", str(tmp_path / "out.txt"),
    ]
    assert cli_main(serve) == 0
    with open(stream, "a") as handle:
        handle.write("".join(lines[200:300]) + "!!not-a-trace!!\n")
    capsys.readouterr()
    assert cli_main(serve + ["--resume"]) == 3
    assert "error: line 301: " in capsys.readouterr().err
    trace = tmp_path / "trace.jsonl"
    lenient = ["--resume", "--on-error", "lenient", "--trace", str(trace)]
    assert cli_main(serve + lenient) == 0
    capsys.readouterr()
    (reject,) = iter_events(read_trace(trace), "serve.reject")
    assert reject["line"] == 301


def test_socket_ingest_reaches_batch_state(world):
    """Records arriving over the unix socket fold to the batch state."""
    lines = list(traces_to_text_lines(world.traces))
    daemon = ServeDaemon(_fresh_index(world), format="text", quiesce_every=10)
    # consume from the queue on a pump thread while the socket feeds it
    stop = threading.Event()
    pump = threading.Thread(target=daemon.run_loop, args=(stop, 0.01), daemon=True)
    pump.start()
    with tempfile.TemporaryDirectory() as sockdir:
        path = os.path.join(sockdir, "mapit.sock")
        source = SocketSource(path, daemon)
        source.start()
        try:
            client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            client.connect(path)
            client.sendall(("\n".join(lines) + "\n").encode())
            client.close()
            deadline = threading.Event()
            for _ in range(2000):  # bounded wait, no wall clock needed
                if daemon.stats["folds"] >= len(world.traces):
                    break
                deadline.wait(0.01)
            assert daemon.stats["folds"] == len(world.traces)
        finally:
            stop.set()
            pump.join(timeout=5)
            source.close()
    batch_fp, batch_json = reference_state(world, len(world.traces), MapItConfig())
    assert daemon.snapshot.fingerprint == batch_fp
    assert daemon.snapshot.result.to_json(indent=2) == batch_json


def test_cli_serve_once_matches_run(tmp_bundle, tmp_path, capsys):
    """``mapit serve --once --json`` writes exactly what ``mapit run
    --json`` writes — same writer, same bytes."""
    dataset = tmp_bundle(seed=3)
    batch_out = tmp_path / "batch.json"
    serve_out = tmp_path / "serve.json"
    assert cli_main(["run", str(dataset), "--json", "--output", str(batch_out)]) == 0
    assert (
        cli_main(
            ["serve", str(dataset), "--once", "--json", "--output", str(serve_out)]
        )
        == 0
    )
    capsys.readouterr()
    assert serve_out.read_bytes() == batch_out.read_bytes()


def test_cli_follow_file_named_like_dataset_traces(tmp_bundle, tmp_path, capsys):
    """A followed file whose basename collides with the dataset's own
    ``traces.txt`` is still read in full: source offsets are keyed by
    full path, not basename.  (Regression: the follow source inherited
    the warm start's end-of-file offset and silently skipped its
    entire content.)"""
    full = tmp_bundle(seed=3)
    batch_out = tmp_path / "batch.json"
    assert cli_main(["run", str(full), "--json", "--output", str(batch_out)]) == 0
    partial = tmp_bundle(seed=3, copy=True)
    lines = (partial / "traces.txt").read_text().splitlines(keepends=True)
    half = len(lines) // 2
    (partial / "traces.txt").write_text("".join(lines[:half]))
    followdir = tmp_path / "extra"
    followdir.mkdir()
    follow = followdir / "traces.txt"  # the colliding basename
    follow.write_text("".join(lines[half:]))
    serve_out = tmp_path / "serve.json"
    code = cli_main(
        [
            "serve",
            str(partial),
            "--follow",
            str(follow),
            "--once",
            "--json",
            "--output",
            str(serve_out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    assert serve_out.read_bytes() == batch_out.read_bytes()


def test_cli_follow_atlas_folds_like_text(world, tmp_path, capsys):
    """``--follow`` takes each file's format from its suffix, as the
    loader does: the same traces followed as RIPE Atlas lines and as
    text write the same bytes.  (Regression: serve read every
    non-``.jsonl`` file as text, so an ``.atlas`` follow exited 3.)"""
    dataset = world.save(tmp_path / "maps")
    find_traces(dataset).unlink()
    outputs = {}
    for suffix, lines in (
        (".txt", traces_to_text_lines(world.traces)),
        (".atlas", map(_atlas_line, world.traces)),
    ):
        stream = tmp_path / f"stream{suffix}"
        stream.write_text("".join(f"{line}\n" for line in lines))
        output = tmp_path / f"serve{suffix}.json"
        argv = ["serve", str(dataset), "--follow", str(stream), "--once", "--json"]
        assert cli_main([*argv, "--output", str(output)]) == 0
        outputs[suffix] = output.read_bytes()
    capsys.readouterr()
    assert json.loads(outputs[".txt"])["inferences"]
    assert outputs[".atlas"] == outputs[".txt"]


def test_cli_serve_mixed_formats_exit_2(world, tmp_path, capsys):
    """One session streams one record format; the error names the
    formats it found."""
    dataset = world.save(tmp_path / "maps")  # its traces file is text
    stream = tmp_path / "stream.atlas"
    stream.write_text("")
    assert cli_main(["serve", str(dataset), "--follow", str(stream), "--once"]) == 2
    assert "error: mixed atlas/text sources" in capsys.readouterr().err


def test_cli_serve_budget_exit(tmp_bundle, tmp_path, capsys):
    """A stream blowing the error budget exits 3, like batch ingest."""
    dataset = tmp_bundle(seed=3)
    stream = tmp_path / "stream.txt"
    garbage = "\n".join("!!not-a-trace!!" for _ in range(40)) + "\n"
    stream.write_text(garbage)
    code = cli_main(
        [
            "serve",
            str(dataset),
            "--follow",
            str(stream),
            "--once",
            "--on-error",
            "lenient",
            "--max-error-rate",
            "0.01",
            "--output",
            str(tmp_path / "out.txt"),
        ]
    )
    capsys.readouterr()
    assert code == 3


def _dataset_daemon(dataset, obs=NULL_OBS, quiesce_every=64) -> ServeDaemon:
    """A text daemon over *dataset*'s mappings, as ``mapit serve``
    builds it."""
    bundle = load_bundle(dataset, skip_traces=True)
    index = IncrementalIndex(
        bundle.ip2as, org=bundle.as2org, rel=bundle.relationships, obs=obs
    )
    return ServeDaemon(index, format="text", obs=obs, quiesce_every=quiesce_every)


def _refuse(*args, **kwargs):
    raise AssertionError("serve's text ingest built a trace object")


def test_text_ingest_builds_no_trace_objects(tmp_bundle, tmp_path, monkeypatch, capsys):
    """Serve folds text through the run kernel: with the object parser
    and the column packer disabled, a replay through ``ingest_entry``
    and ``mapit serve --once`` both still equal ``mapit run``."""
    dataset = tmp_bundle(seed=3)
    batch_out = tmp_path / "batch.json"
    assert cli_main(["run", str(dataset), "--json", "--output", str(batch_out)]) == 0
    for module, name in (
        (trace_parse, "parse_text_trace"),
        (robust_ingest, "parse_text_trace"),
        (perf_flat, "pack_traces"),
    ):
        monkeypatch.setattr(module, name, _refuse)
    daemon = _dataset_daemon(dataset)
    for line in (dataset / "traces.txt").read_text().splitlines():
        daemon.ingest_entry(line, "traces.txt")
    assert daemon.finalize().result.to_json(indent=2) + "\n" == batch_out.read_text()
    serve_out = tmp_path / "serve.json"
    code = cli_main(["serve", str(dataset), "--once", "--json", "--output", str(serve_out)])
    capsys.readouterr()
    assert code == 0
    assert serve_out.read_bytes() == batch_out.read_bytes()


def test_jsonl_ttl_outside_i64_folds_like_batch(world):
    """A quoted TTL beyond the columnar i64 range — the case the old
    object-kernel fallback existed for — folds like any other record."""
    lines = list(traces_to_json_lines(world.traces))
    at = next(i for i, line in enumerate(lines) if json.loads(line)["hops"])
    record = json.loads(lines[at])
    record["hops"][0]["reply_ttl"] = 2**70
    lines[at] = json.dumps(record)
    with pytest.raises(FlatEncodeError):
        pack_traces([parse_json_trace(lines[at])])
    daemon = ServeDaemon(_fresh_index(world), format="jsonl", quiesce_every=16)
    for line in lines:
        daemon.ingest_entry(line, "stream.jsonl")
    snapshot = daemon.finalize()
    assert daemon.stats["folds"] == len(lines)
    parsed = dataclasses.replace(world, traces=[parse_json_trace(line) for line in lines])
    batch_fp, batch_json = reference_state(parsed, len(lines), MapItConfig())
    assert snapshot.fingerprint == batch_fp
    assert snapshot.result.to_json(indent=2) == batch_json


def test_warm_started_loop_publishes_before_stop(tmp_bundle, tmp_path, capsys):
    """A daemon warm-started from a stored ``.mapitc`` entry publishes
    the warm base as soon as it goes idle — not only at shutdown."""
    dataset = tmp_bundle(seed=3)
    cache = tmp_path / "cache"
    batch_out = tmp_path / "batch.json"
    run = ["run", str(dataset), "--json", "--output", str(batch_out)]
    assert cli_main(run + ["--cache", str(cache)]) == 0
    capsys.readouterr()
    bundle = load_bundle(dataset, graph_only=True)
    batch = MapIt(bundle.graph, bundle.ip2as, org=bundle.as2org, rel=bundle.relationships)
    batch.run()
    metrics = Metrics()
    daemon = _dataset_daemon(dataset, obs=Observability(metrics=metrics))
    _serve_warm_start(daemon, dataset / "traces.txt", cache, BundleHealth())
    assert metrics.counter("perf.cache.hits") == 1
    assert daemon.stats["folds"] == bundle.health.ingest.parsed > 0
    stop, tick = threading.Event(), threading.Event()
    pump = threading.Thread(target=daemon.run_loop, args=(stop, 0.01), daemon=True)
    pump.start()
    try:
        for _ in range(500):  # bounded wait, no wall clock needed
            if daemon.snapshot.seq >= 1:
                break
            tick.wait(0.01)
        published = daemon.snapshot
    finally:
        stop.set()
        pump.join(timeout=5)
    assert published.seq >= 1
    assert published.fingerprint == batch.engine.state.fingerprint()
    assert published.result.to_json(indent=2) + "\n" == batch_out.read_text()


def test_warm_start_after_a_fold_replays_the_text(tmp_bundle, tmp_path, capsys):
    """A cache entry replaces the index's tables, so a daemon that has
    already folded a record replays the dataset's text instead of
    restoring the entry, which would drop that fold."""
    full = tmp_bundle(seed=3)
    batch_out = tmp_path / "batch.json"
    assert cli_main(["run", str(full), "--json", "--output", str(batch_out)]) == 0
    dataset = tmp_bundle(seed=3, copy=True)
    lines = (dataset / "traces.txt").read_text().splitlines(keepends=True)
    half = len(lines) // 2
    (dataset / "traces.txt").write_text("".join(lines[:half]))
    cache = tmp_path / "cache"
    run = ["run", str(dataset), "--json", "--output", str(tmp_path / "half.json")]
    assert cli_main(run + ["--cache", str(cache)]) == 0
    capsys.readouterr()
    metrics = Metrics()
    daemon = _dataset_daemon(dataset, obs=Observability(metrics=metrics))
    for line in lines[half:]:
        daemon.ingest_entry(line, "stream")
    traces = dataset / "traces.txt"
    _serve_warm_start(daemon, traces, cache, BundleHealth())
    assert metrics.counter("perf.cache.hits") == 0
    assert daemon.stats["folds"] == len(lines)
    assert daemon.offsets[str(traces)] == traces.stat().st_size
    assert daemon.finalize().result.to_json(indent=2) + "\n" == batch_out.read_text()


@pytest.mark.parametrize("follow", [False, True])
def test_cli_serve_once_warm_cache_matches_run(follow, tmp_bundle, tmp_path, capsys):
    """``mapit serve --once --cache`` folds the dataset from its stored
    ``.mapitc`` entry (one cache hit) and writes what ``mapit run``
    writes; with ``--follow`` the followed lines fold on top of it."""
    full = tmp_bundle(seed=3)
    batch_out = tmp_path / "batch.json"
    assert cli_main(["run", str(full), "--json", "--output", str(batch_out)]) == 0
    dataset, extra = full, []
    if follow:
        dataset = tmp_bundle(seed=3, copy=True)
        lines = (dataset / "traces.txt").read_text().splitlines(keepends=True)
        half = len(lines) // 2
        (dataset / "traces.txt").write_text("".join(lines[:half]))
        stream = tmp_path / "stream.txt"
        stream.write_text("".join(lines[half:]))
        extra = ["--follow", str(stream)]
    cache = ["--cache", str(tmp_path / "cache")]
    stored = tmp_path / "stored.json"
    assert cli_main(["run", str(dataset), "--json", "--output", str(stored)] + cache) == 0
    serve_out, metrics = tmp_path / "serve.json", tmp_path / "metrics.json"
    serve = ["serve", str(dataset), "--once", "--json", "--output", str(serve_out)]
    code = cli_main(serve + extra + cache + ["--metrics", str(metrics)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(metrics.read_text())["counters"]["perf.cache.hits"] == 1
    assert serve_out.read_bytes() == batch_out.read_bytes()


def _serve_counters(metrics):
    counters = json.loads(metrics.read_text())["counters"]
    return {key: value for key, value in counters.items() if key.startswith("serve.")}


def test_cold_serve_stores_the_run_entry_and_counts_like_warm(tmp_bundle, tmp_path, capsys):
    """A cold ``serve --once --cache`` loads the dataset's traces as
    ``mapit run --cache`` does: it leaves one entry byte-equal to
    run's, a second session hits it, and both sessions count every
    line and publish the warm base in one quiesce.  (The whole-file
    replay stored nothing and quiesced every 64 folds.)"""
    dataset = tmp_bundle(seed=3)
    run_cache = tmp_path / "run-cache"
    run = ["run", str(dataset), "--json", "--output", str(tmp_path / "run.json")]
    assert cli_main(run + ["--cache", str(run_cache)]) == 0
    (run_entry,) = run_cache.glob("*.mapitc")
    cache = tmp_path / "cache"
    counters = {}
    for session in ("cold", "warm"):
        out, metrics = tmp_path / f"{session}.json", tmp_path / f"{session}.metrics"
        serve = ["serve", str(dataset), "--once", "--json", "--output", str(out)]
        assert cli_main(serve + ["--cache", str(cache), "--metrics", str(metrics)]) == 0
        assert out.read_bytes() == (tmp_path / "run.json").read_bytes()
        hits = json.loads(metrics.read_text())["counters"].get("perf.cache.hits", 0)
        assert hits == (session == "warm")
        counters[session] = _serve_counters(metrics)
        (entry,) = cache.glob("*.mapitc")
        assert entry.name == run_entry.name
        assert entry.read_bytes() == run_entry.read_bytes()
    capsys.readouterr()
    lines = len((dataset / "traces.txt").read_text().splitlines())
    assert counters["cold"] == counters["warm"]
    assert counters["cold"]["serve.quiesces"] == 1
    assert counters["cold"]["serve.ingested"] == lines
    assert counters["cold"]["serve.parsed"] == counters["cold"]["serve.folds"] == lines


@pytest.mark.parametrize("cached", [False, True])
def test_followed_dataset_traces_number_from_the_files_end(
    cached, tmp_bundle, tmp_path, monkeypatch, capsys
):
    """Following the dataset's own traces file, a line appended after
    the warm base loaded is line N+1 of the N-line file — in the strict
    error, in the lenient ``serve.reject`` event and in the checkpoint's
    line count — whether the base came from a cache hit or a parse.
    (After a hit it was numbered 1.)"""
    dataset = tmp_bundle(seed=3, copy=True)
    traces = dataset / "traces.txt"
    original = traces.read_bytes()
    n = original.count(b"\n")
    cache = ["--cache", str(tmp_path / "cache")] if cached else ["--no-cache"]
    if cached:
        run = ["run", str(dataset), "--json", "--output", str(tmp_path / "run.json")]
        assert cli_main(run + cache) == 0
    adopt = ServeDaemon.adopt

    def adopt_then_append(self, *args):
        adopt(self, *args)
        with open(traces, "a") as handle:
            handle.write("!!not-a-trace!!\n")

    monkeypatch.setattr(ServeDaemon, "adopt", adopt_then_append)
    journal, trace = tmp_path / "journal", tmp_path / "trace.jsonl"
    serve = [
        "serve", str(dataset), "--follow", str(traces), "--once", *cache,
        "--output", str(tmp_path / "out.txt"), "--metrics", str(tmp_path / "m.json"),
    ]
    capsys.readouterr()
    assert cli_main(serve) == 3
    assert f"error: line {n + 1}: " in capsys.readouterr().err
    traces.write_bytes(original)
    lenient = ["--on-error", "lenient", "--trace", str(trace), "--journal", str(journal)]
    assert cli_main(serve + lenient) == 0
    capsys.readouterr()
    hits = json.loads((tmp_path / "m.json").read_text())["counters"].get("perf.cache.hits")
    assert hits == (1 if cached else None)
    (reject,) = iter_events(read_trace(trace), "serve.reject")
    assert reject["line"] == n + 1
    (log,) = journal.glob("*.journal.jsonl")
    (record,) = RunJournal(journal, log.name.split(".")[0]).read()
    assert record["payload"]["lines"] == {str(traces): n + 1}
    assert record["payload"]["offsets"] == {str(traces): traces.stat().st_size}


def test_warm_base_follows_batch_ingest_policy(tmp_bundle, tmp_path, capsys):
    """The warm base ingests like ``mapit run``: a damaged block at the
    head of the file is judged against the whole file's budget (the
    replay judged the running fraction at its first quiesce and exited
    3), and ``--on-error quarantine`` writes the same reject files
    where run writes them (the replay wrote none)."""
    dataset = tmp_bundle(seed=3, copy=True)
    traces = dataset / "traces.txt"
    good = traces.read_text()
    bad = 30
    assert bad / (good.count("\n") + bad) < 0.1 < bad / (64 + bad)
    traces.write_text("".join(f"!!bad-{i}!!\n" for i in range(bad)) + good)
    quarantine = dataset / "quarantine"
    written = {}
    for command in ("run", "serve"):
        out = tmp_path / f"{command}.json"
        argv = [command, str(dataset), "--json", "--output", str(out)]
        argv += ["--on-error", "quarantine"] + (["--once"] if command == "serve" else [])
        assert cli_main(argv) == 0
        written[command] = {
            path.name: path.read_bytes() for path in sorted(quarantine.iterdir())
        }
        shutil.rmtree(quarantine)
    capsys.readouterr()
    assert sorted(written["run"]) == ["traces.txt.errors.jsonl", "traces.txt.rejects.txt"]
    assert written["serve"] == written["run"]
    assert (tmp_path / "serve.json").read_bytes() == (tmp_path / "run.json").read_bytes()
