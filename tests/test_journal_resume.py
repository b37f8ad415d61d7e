"""Run journal: durability, torn tails, crash + resume byte-identity.

The contract under test is the acceptance bar of the robustness layer:
a killed run resumed with ``--resume`` produces output byte-for-byte
identical to an uninterrupted run, and a journal failure (full disk,
torn tail) degrades durability but never the run's result.  Journaled
runs start from the fused loader's graph (``load_bundle(...,
graph_only=True)``); the result is the journal's only unit, so a
resume either replays it or re-runs the passes over the graph.
"""

import json
import pickle
from dataclasses import dataclass, field
from typing import List

import pytest

import repro.core.results
from repro.cli import main
from repro.core.config import MapItConfig
from repro.core.mapit import MapIt
from repro.io import load_bundle
from repro.obs.metrics import Metrics
from repro.obs.observer import Observability
from repro.obs.trace import Tracer, iter_events
from repro.robust.faults import ChaosInjector, SimulatedCrash
from repro.robust.hooks import chaos
from repro.robust.journal import (
    RunJournal,
    journaled_run,
    run_identity,
    run_identity_for,
)


@pytest.fixture(scope="module")
def bundle(tmp_bundle):
    return load_bundle(tmp_bundle(seed=3), graph_only=True)


def _metrics_obs():
    metrics = Metrics()
    return Observability(metrics=metrics), metrics


class TestRunIdentity:
    def test_deterministic_and_input_sensitive(self):
        base = run_identity("a" * 64, "cfg", "strict", "text")
        assert base == run_identity("a" * 64, "cfg", "strict", "text")
        assert base != run_identity("b" * 64, "cfg", "strict", "text")
        assert base != run_identity("a" * 64, "cfg2", "strict", "text")
        assert base != run_identity("a" * 64, "cfg", "lenient", "text")
        assert len(base) == 16

    def test_directory_lookup(self, tmp_bundle):
        dataset = tmp_bundle(seed=3)
        first = run_identity_for(dataset, None, "strict")
        assert first == run_identity_for(dataset, None, "strict")
        assert first != run_identity_for(dataset, None, "lenient")

    def test_missing_traces_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_identity_for(tmp_path, None, "strict")


class TestJournalFile:
    def test_append_read_roundtrip(self, tmp_path):
        journal = RunJournal(tmp_path, "abc123")
        assert journal.append("graph", {"blob": "graph"})
        assert journal.append("iteration", {"iteration": 1})
        records = RunJournal(tmp_path, "abc123").read()
        assert [r["unit"] for r in records] == ["graph", "iteration"]
        assert [r["seq"] for r in records] == [0, 1]

    def test_torn_tail_is_dropped(self, tmp_path):
        obs, metrics = _metrics_obs()
        journal = RunJournal(tmp_path, "abc123")
        journal.append("graph", {"blob": "graph"})
        journal.append("iteration", {"iteration": 1})
        # tear the last line mid-record, as a crash mid-append would
        data = journal.path.read_bytes()
        journal.path.write_bytes(data[: len(data) - 20])
        reader = RunJournal(tmp_path, "abc123", obs=obs)
        records = reader.read()
        assert [r["unit"] for r in records] == ["graph"]
        assert metrics.counters["robust.journal.torn_tail"] == 1
        # the torn tail was rewritten away: a second read is clean
        obs2, metrics2 = _metrics_obs()
        again = RunJournal(tmp_path, "abc123", obs=obs2).read()
        assert [r["unit"] for r in again] == ["graph"]
        assert "robust.journal.torn_tail" not in metrics2.counters

    def test_bitflip_detected(self, tmp_path):
        journal = RunJournal(tmp_path, "abc123")
        journal.append("graph", {"blob": "graph"})
        data = bytearray(journal.path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        journal.path.write_bytes(bytes(data))
        assert RunJournal(tmp_path, "abc123").read() == []

    def test_appends_continue_after_read(self, tmp_path):
        journal = RunJournal(tmp_path, "abc123")
        journal.append("graph", {"blob": "graph"})
        resumed = RunJournal(tmp_path, "abc123")
        resumed.read()
        resumed.append("iteration", {"iteration": 1})
        records = RunJournal(tmp_path, "abc123").read()
        assert [r["seq"] for r in records] == [0, 1]
        # a journal opened on used records continues them unread
        obs, metrics = _metrics_obs()
        assert RunJournal(tmp_path, "abc123", obs=obs).append("result", {"json": "{}"})
        records = RunJournal(tmp_path, "abc123").read()
        assert [(r["seq"], r["unit"]) for r in records] == [
            (0, "graph"), (1, "iteration"), (2, "result")
        ]
        assert "robust.journal.torn_tail" not in metrics.counters

    def test_blob_roundtrip_and_corruption(self, tmp_path):
        obs, metrics = _metrics_obs()
        journal = RunJournal(tmp_path, "abc123", obs=obs)
        assert journal.append("unit", {"field": 1}, blob=b"payload-bytes")
        (record,) = RunJournal(tmp_path, "abc123").read()
        payload = record["payload"]
        assert payload["field"] == 1
        assert journal.load_blob(payload) == b"payload-bytes"
        blob_path = tmp_path / f"abc123.{payload['blob']}.blob"
        blob_path.write_bytes(b"tampered")
        assert journal.load_blob(payload) is None
        assert metrics.counters["robust.journal.blob_corrupt"] == 1

    def test_records_never_share_a_blob(self, tmp_path):
        """Each blob is named by its record's seq, whichever journal
        object appends it: a second writer on the same journal (a fresh
        serve session) never overwrites the first one's blob."""
        first = RunJournal(tmp_path, "abc123")
        assert first.append("unit", {}, blob=b"first")
        second = RunJournal(tmp_path, "abc123")
        assert second.append("unit", {}, blob=b"second")
        assert second.append("unit", {}, blob=b"third")
        reader = RunJournal(tmp_path, "abc123")
        payloads = reader.units("unit")
        assert len({payload["blob"] for payload in payloads}) == 3
        assert [reader.load_blob(p) for p in payloads] == [b"first", b"second", b"third"]
        assert len(list(tmp_path.glob("abc123.*.blob"))) == 3

    def test_enospc_fails_blob_and_record_together(self, tmp_path):
        obs, metrics = _metrics_obs()
        journal = RunJournal(tmp_path, "abc123", obs=obs)
        assert journal.append("unit", {})
        with chaos(ChaosInjector(journal_enospc_seqs={1})):
            assert not journal.append("unit", {}, blob=b"never written")
        assert metrics.counters["robust.journal.write_failed"] == 1
        assert list(tmp_path.glob("*.blob")) == []
        assert [r["seq"] for r in RunJournal(tmp_path, "abc123").read()] == [0]

    def test_enospc_disables_but_never_raises(self, tmp_path):
        obs, metrics = _metrics_obs()
        journal = RunJournal(tmp_path, "abc123", obs=obs)
        with chaos(ChaosInjector(journal_enospc_seqs={0})):
            assert not journal.append("graph", {"blob": "graph"})
        assert journal.disabled
        assert metrics.counters["robust.journal.write_failed"] == 1
        # once disabled, later appends are silent no-ops
        assert not journal.append("iteration", {"iteration": 1})


class TestJournaledRun:
    def test_matches_unjournaled_run(self, bundle, tmp_path):
        plain = bundle.run_mapit()
        journal = RunJournal(tmp_path, "run1")
        journaled = journaled_run(bundle, journal=journal)
        assert journaled.to_json() == plain.to_json()
        units = [r["unit"] for r in RunJournal(tmp_path, "run1").read()]
        assert units == ["result"]
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "run1.journal.jsonl"
        ]

    def test_object_bundle_is_refused(self, tmp_bundle, tmp_path):
        objects = load_bundle(tmp_bundle(seed=3))
        with pytest.raises(ValueError, match="graph_only"):
            journaled_run(objects, journal=RunJournal(tmp_path, "run0"))

    def test_crash_then_resume_is_byte_identical(self, bundle, tmp_path):
        plain = bundle.run_mapit()
        journal = RunJournal(tmp_path, "run2")
        with chaos(ChaosInjector(crash_after_result=True)):
            with pytest.raises(SimulatedCrash):
                journaled_run(bundle, journal=journal)
        obs, metrics = _metrics_obs()
        resumed = journaled_run(
            bundle, obs=obs, journal=RunJournal(tmp_path, "run2"), resume=True
        )
        assert resumed.to_json() == plain.to_json()
        # the crashed run's result was replayed, not appended again
        assert metrics.counters["robust.journal.replayed"] == 1
        units = [r["unit"] for r in RunJournal(tmp_path, "run2").read()]
        assert units == ["result"]

    def test_resume_after_finish_replays_result(self, bundle, tmp_path):
        obs, metrics = _metrics_obs()
        journal = RunJournal(tmp_path, "run3")
        first = journaled_run(bundle, journal=journal)
        replayed = journaled_run(
            bundle,
            obs=obs,
            journal=RunJournal(tmp_path, "run3"),
            resume=True,
        )
        assert replayed.to_json() == first.to_json()
        assert metrics.counters["robust.journal.replayed"] == 1

    def test_torn_journal_resume_still_matches(self, bundle, tmp_path):
        """A crash that tears the result line leaves nothing to replay:
        the resume re-runs the passes and journals a fresh result."""
        plain = bundle.run_mapit()
        journal = RunJournal(tmp_path, "run4")
        with chaos(ChaosInjector(crash_after_result=True)):
            with pytest.raises(SimulatedCrash):
                journaled_run(bundle, journal=journal)
        data = journal.path.read_bytes()
        journal.path.write_bytes(data[: len(data) - 15])
        metrics = Metrics()
        tracer = Tracer(timestamps=False)
        obs = Observability(tracer=tracer, metrics=metrics)
        resumed = journaled_run(
            bundle,
            obs=obs,
            journal=RunJournal(tmp_path, "run4", obs=obs),
            resume=True,
        )
        assert resumed.to_json() == plain.to_json()
        assert metrics.counters["robust.journal.torn_tail"] == 1
        assert "robust.journal.replayed" not in metrics.counters
        (event,) = iter_events(tracer.events, "journal.resume")
        assert event["run_id"] == "run4"
        units = [r["unit"] for r in RunJournal(tmp_path, "run4").read()]
        assert units == ["result"]

    def test_corrupt_iteration_blob_restarts_from_scratch(
        self, bundle, tmp_path, refuse_unpickling
    ):
        """An earlier release's crash left an ``iteration`` record whose
        blob is garbage and no result: the blob is never opened, and the
        resume re-runs every pass from iteration 0."""
        plain = bundle.run_mapit()
        journal = RunJournal(tmp_path, "run5")
        assert journal.append("iteration", {"iteration": 1}, blob=b"not a pickle")
        metrics = Metrics()
        tracer = Tracer(timestamps=False)
        obs = Observability(tracer=tracer, metrics=metrics)
        resumed = journaled_run(
            bundle,
            obs=obs,
            journal=RunJournal(tmp_path, "run5", obs=obs),
            resume=True,
        )
        assert resumed.to_json() == plain.to_json()
        assert refuse_unpickling == []
        assert "robust.journal.blob_corrupt" not in metrics.counters
        assert "robust.journal.replayed" not in metrics.counters
        (event,) = iter_events(tracer.events, "journal.resume")
        assert "iteration" not in event
        (start,) = iter_events(tracer.events, "run.start")
        assert "resumed_from" not in start
        units = [r["unit"] for r in RunJournal(tmp_path, "run5").read()]
        assert units == ["iteration", "result"]

    def test_parent_graph_record_is_skipped(
        self, bundle, tmp_path, refuse_unpickling
    ):
        """Journals written before the graph stopped being a unit hold
        a ``graph`` record (and its pickled blob) ahead of their
        iterations; a resume skips both and never reads either blob."""
        plain = bundle.run_mapit()
        journal = RunJournal(tmp_path, "run7")
        assert journal.append("graph", {}, blob=b"never unpickled")
        assert journal.append("iteration", {"iteration": 1}, blob=b"never unpickled")
        obs, metrics = _metrics_obs()
        resumed = journaled_run(
            bundle,
            obs=obs,
            journal=RunJournal(tmp_path, "run7", obs=obs),
            resume=True,
        )
        assert resumed.to_json() == plain.to_json()
        assert refuse_unpickling == []
        assert "robust.journal.blob_corrupt" not in metrics.counters
        records = RunJournal(tmp_path, "run7").read()
        assert [r["unit"] for r in records] == ["graph", "iteration", "result"]
        assert [r["seq"] for r in records] == [0, 1, 2]

    def test_enospc_mid_run_still_completes(self, bundle, tmp_path):
        plain = bundle.run_mapit()
        obs, metrics = _metrics_obs()
        journal = RunJournal(tmp_path, "run6", obs=obs)
        # seq 0 is the result append, the run's only journal write
        with chaos(ChaosInjector(journal_enospc_seqs={0})):
            result = journaled_run(bundle, journal=journal)
        assert result.to_json() == plain.to_json()
        assert journal.disabled
        assert metrics.counters["robust.journal.write_failed"] == 1


@dataclass
class EngineSnapshot:
    """The iteration unit earlier releases pickled into their journals."""

    __module__ = "repro.core.results"

    iterations: int
    state: object
    seen_fingerprints: List[str]
    checkpoints: List[object] = field(default_factory=list)


def _write_parent_journal(journal_dir, run_id, dataset, monkeypatch):
    """Journal a crash the way earlier releases left one: a ``graph``
    record, then one ``iteration`` record per multipass iteration, each
    with a blob holding a pickled engine snapshot, and no result."""
    graph_bundle = load_bundle(dataset, graph_only=True)
    journal = RunJournal(journal_dir, run_id)
    journal.path.unlink()
    assert journal.append("graph", {}, blob=pickle.dumps(graph_bundle.graph))
    for iterations in (1, 2):
        mapit = MapIt(
            graph_bundle.graph,
            graph_bundle.ip2as,
            org=graph_bundle.as2org,
            rel=graph_bundle.relationships,
            config=MapItConfig(max_iterations=iterations, enable_stub_heuristic=False),
        )
        mapit.run()
        state = mapit.engine.state
        with monkeypatch.context() as patch:
            patch.setattr(
                repro.core.results, "EngineSnapshot", EngineSnapshot, raising=False
            )
            blob = pickle.dumps(
                EngineSnapshot(iterations, state, [state.fingerprint()]),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        assert journal.append("iteration", {"iteration": iterations}, blob=blob)


class TestCliJournal:
    def test_run_journal_then_resume(self, tmp_bundle, tmp_path, capsys):
        dataset = tmp_bundle(seed=3)
        journal_dir = tmp_path / "journal"
        plain_out = tmp_path / "plain.json"
        first_out = tmp_path / "first.json"
        resumed_out = tmp_path / "resumed.json"
        assert main(
            ["run", str(dataset), "--output", str(plain_out), "--json"]
        ) == 0
        assert main(
            [
                "run", str(dataset), "--output", str(first_out), "--json",
                "--journal", str(journal_dir),
            ]
        ) == 0
        err = capsys.readouterr().err
        assert "journal: run " in err
        run_id = err.split("journal: run ")[1].split()[0]
        assert main(
            [
                "run", str(dataset), "--output", str(resumed_out), "--json",
                "--journal", str(journal_dir), "--resume", run_id,
            ]
        ) == 0
        assert first_out.read_bytes() == plain_out.read_bytes()
        assert resumed_out.read_bytes() == plain_out.read_bytes()
        assert json.loads(resumed_out.read_text())

    def test_second_run_appends_after_the_first(self, tmp_bundle, tmp_path, capsys):
        """Two journaled runs of one dataset share a run id: the second
        appends its result as seq 1 (it had rewritten seq 0, so the
        resume counted a torn tail and rewrote the journal), and a
        resume replays it — three equal outputs."""
        dataset = tmp_bundle(seed=3)
        journal_dir = tmp_path / "journal"
        run = ["run", str(dataset), "--json", "--journal", str(journal_dir)]
        outputs = [tmp_path / f"out{index}.json" for index in range(3)]
        assert main(run + ["--output", str(outputs[0])]) == 0
        assert main(run + ["--output", str(outputs[1])]) == 0
        run_id = capsys.readouterr().err.split("journal: run ")[1].split()[0]
        metrics = tmp_path / "m.json"
        resume = ["--resume", run_id, "--metrics", str(metrics)]
        assert main(run + ["--output", str(outputs[2])] + resume) == 0
        counters = json.loads(metrics.read_text())["counters"]
        assert "robust.journal.torn_tail" not in counters
        assert counters["robust.journal.replayed"] == 1
        records = RunJournal(journal_dir, run_id).read()
        assert [(r["seq"], r["unit"]) for r in records] == [(0, "result"), (1, "result")]
        assert outputs[1].read_bytes() == outputs[0].read_bytes()
        assert outputs[2].read_bytes() == outputs[0].read_bytes()

    def test_parent_journal_resumes_without_unpickling(
        self, tmp_bundle, tmp_path, capsys, monkeypatch, refuse_unpickling
    ):
        """A crashed journal of an earlier release — a ``graph`` record
        and pickled iteration snapshots, no result — resumes by
        re-running the passes over the cached graph: same bytes, and
        nothing read from the journal directory is unpickled."""
        dataset = tmp_bundle(seed=3)
        journal_dir = tmp_path / "journal"
        run = ["run", str(dataset), "--json"]
        plain_out, first_out = tmp_path / "plain.json", tmp_path / "first.json"
        assert main(run + ["--output", str(plain_out)]) == 0
        assert main(
            run + ["--output", str(first_out), "--journal", str(journal_dir)]
        ) == 0
        assert first_out.read_bytes() == plain_out.read_bytes()
        run_id = capsys.readouterr().err.split("journal: run ")[1].split()[0]
        _write_parent_journal(journal_dir, run_id, dataset, monkeypatch)
        units = [r["unit"] for r in RunJournal(journal_dir, run_id).read()]
        assert units == ["graph", "iteration", "iteration"]
        resumed_out, metrics = tmp_path / "resumed.json", tmp_path / "m.json"
        assert main(
            run
            + ["--output", str(resumed_out), "--journal", str(journal_dir)]
            + ["--resume", run_id, "--metrics", str(metrics)]
        ) == 0
        assert refuse_unpickling == []
        assert resumed_out.read_bytes() == plain_out.read_bytes()
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["perf.cache.hits"] == 1
        assert "robust.journal.replayed" not in counters
        units = [r["unit"] for r in RunJournal(journal_dir, run_id).read()]
        assert units == ["graph", "iteration", "iteration", "result"]

    def test_resume_without_journal_is_usage_error(self, tmp_bundle, capsys):
        dataset = tmp_bundle(seed=3)
        code = main(["run", str(dataset), "--resume", "deadbeef00000000"])
        assert code == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    def test_resume_with_wrong_run_id_is_rejected(
        self, tmp_bundle, tmp_path, capsys
    ):
        dataset = tmp_bundle(seed=3)
        code = main(
            [
                "run", str(dataset), "--journal", str(tmp_path),
                "--resume", "0000000000000000",
            ]
        )
        assert code == 2
        assert "does not match" in capsys.readouterr().err
