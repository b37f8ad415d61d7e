"""The journal and ``mapit run --resume``: durability, torn tails,
bounded blobs, kill + resume byte-identity.

The contract under test is the acceptance bar of the robustness layer:
a killed run resumed with ``--resume`` produces output byte-for-byte
identical to an uninterrupted run, and a journal failure (full disk,
torn tail) degrades durability but never the result.  ``mapit run``
journals nothing: ``--journal DIR`` keeps its folded-graph cache entry
in DIR, so a resume is a run whose load hits that entry.
:class:`RunJournal` itself serves ``mapit serve`` and ``mapit sweep``.
"""

import json
import pickle

import pytest

from repro.cli import main
from repro.io.atomic import atomic_write_bytes
from repro.io.bundle import InputBundle
from repro.obs.metrics import Metrics
from repro.obs.observer import Observability
from repro.robust.faults import ChaosInjector
from repro.robust.hooks import chaos
from repro.robust.journal import KEPT_BLOBS, RunJournal, run_identity


@pytest.fixture(autouse=True)
def _no_env_cache(monkeypatch):
    """``$MAPIT_CACHE`` would move a journaled run's cache entry out of
    its journal directory."""
    monkeypatch.delenv("MAPIT_CACHE", raising=False)
    monkeypatch.delenv("MAPIT_JOURNAL", raising=False)


def _metrics_obs():
    metrics = Metrics()
    return Observability(metrics=metrics), metrics


def _run_id(err):
    """The run id from a journaled run's ``journal: run <id>`` line."""
    return err.split("journal: run ")[1].split()[0]


class TestRunIdentity:
    def test_deterministic_and_input_sensitive(self):
        base = run_identity("a" * 64, "cfg", "strict", "text")
        assert base == run_identity("a" * 64, "cfg", "strict", "text")
        assert base != run_identity("b" * 64, "cfg", "strict", "text")
        assert base != run_identity("a" * 64, "cfg2", "strict", "text")
        assert base != run_identity("a" * 64, "cfg", "lenient", "text")
        assert len(base) == 16

    def test_directory_lookup(self, tmp_bundle, tmp_path, capsys):
        """``mapit run --journal`` keys its id to the dataset's traces
        file and the ingest mode."""
        dataset = tmp_bundle(seed=3)
        run = ["run", str(dataset), "--output", str(tmp_path / "out.txt")]
        ids = []
        for mode in ("strict", "strict", "lenient"):
            journal = ["--journal", str(tmp_path / mode), "--on-error", mode]
            assert main(run + journal) == 0
            ids.append(_run_id(capsys.readouterr().err))
        assert ids[0] == ids[1] != ids[2]


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
        reader = RunJournal(tmp_path, "abc123")
        assert [reader.load_blob(p) for p in reader.units("unit")] == [b"first", b"second"]
        assert second.append("unit", {}, blob=b"third")
        reader = RunJournal(tmp_path, "abc123")
        payloads = reader.units("unit")
        assert len({payload["blob"] for payload in payloads}) == 3
        # the first blob is two checkpoints old: deleted
        assert [reader.load_blob(p) for p in payloads] == [None, b"second", b"third"]
        assert len(list(tmp_path.glob("abc123.*.blob"))) == 2

    def test_keeps_the_newest_two_blobs(self, tmp_path):
        """A blob goes once two newer blob-carrying records are durable,
        including the blobs an earlier release left behind; a record
        without a blob prunes nothing."""
        assert KEPT_BLOBS == 2
        journal = RunJournal(tmp_path, "abc123")
        for name in ("serve000000", "serve000001"):
            sha = atomic_write_bytes(tmp_path / f"abc123.{name}.blob", name.encode())
            assert journal.append("unit", {"blob": name, "sha256": sha})
        assert journal.append("unit", {})
        assert len(list(tmp_path.glob("*.blob"))) == 2
        fresh = RunJournal(tmp_path, "abc123")
        for index in range(4):
            assert fresh.append("unit", {}, blob=b"state %d" % index)
        names = sorted(path.name for path in tmp_path.glob("*.blob"))
        assert names == ["abc123.seq000005.blob", "abc123.seq000006.blob"]
        reader = RunJournal(tmp_path, "abc123")
        loaded = [reader.load_blob(p) for p in reader.units("unit") if "blob" in p]
        assert loaded == [None, None, None, None, b"state 2", b"state 3"]

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
    """``mapit run --journal DIR``: DIR holds the run's cache entry, and
    a resume is the run over it."""

    def test_matches_unjournaled_run(self, tmp_bundle, tmp_path, capsys):
        """Journaled runs of one dataset share a run id and write no
        journal file: the directory holds the one cache entry, however
        many runs and resumes used it, and every output is a plain
        run's."""
        dataset = tmp_bundle(seed=3)
        journal_dir = tmp_path / "journal"
        plain = tmp_path / "plain.json"
        assert main(["run", str(dataset), "--json", "--output", str(plain)]) == 0
        run = ["run", str(dataset), "--json", "--journal", str(journal_dir)]
        outputs = [tmp_path / f"out{index}.json" for index in range(3)]
        assert main(run + ["--output", str(outputs[0])]) == 0
        assert main(run + ["--output", str(outputs[1])]) == 0
        run_id = _run_id(capsys.readouterr().err)
        assert main(run + ["--output", str(outputs[2]), "--resume", run_id]) == 0
        (entry,) = journal_dir.iterdir()
        assert entry.suffix == ".mapitc"
        assert [output.read_bytes() for output in outputs] == [plain.read_bytes()] * 3

    def test_crash_then_resume_is_byte_identical(
        self, tmp_bundle, tmp_path, capsys, monkeypatch
    ):
        """A run killed after its graph load stored the cache entry,
        re-run with ``--resume``: the bytes of an uninterrupted run, a
        cache hit, and the trace of a warm ``--cache`` run."""
        dataset = tmp_bundle(seed=3)
        journal_dir = tmp_path / "journal"
        run = ["run", str(dataset), "--json"]
        plain = tmp_path / "plain.json"
        assert main(run + ["--output", str(plain)]) == 0

        def killed(self, config=None, obs=None):
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(InputBundle, "run_mapit", killed)
            journaled = run + ["--output", str(tmp_path / "killed.json")]
            assert main(journaled + ["--journal", str(journal_dir)]) == 130
        assert not (tmp_path / "killed.json").exists()
        run_id = _run_id(capsys.readouterr().err)
        resumed, metrics = tmp_path / "resumed.json", tmp_path / "m.json"
        resume = ["--journal", str(journal_dir), "--resume", run_id]
        trace = ["--metrics", str(metrics), "--trace", str(tmp_path / "resumed.jsonl")]
        assert main(run + ["--output", str(resumed)] + resume + trace) == 0
        assert resumed.read_bytes() == plain.read_bytes()
        assert json.loads(metrics.read_text())["counters"]["perf.cache.hits"] == 1
        warm = ["--cache", str(journal_dir), "--trace", str(tmp_path / "warm.jsonl")]
        assert main(run + ["--output", str(tmp_path / "warm.json")] + warm) == 0
        resumed_trace = (tmp_path / "resumed.jsonl").read_bytes()
        assert resumed_trace == (tmp_path / "warm.jsonl").read_bytes()
        assert b"journal" not in resumed_trace

    def test_enospc_mid_run_still_completes(self, tmp_bundle, tmp_path, capsys):
        """A full disk loses the cache entry, never the run: the output
        is a plain run's, and a resume parses the traces again."""
        dataset = tmp_bundle(seed=3)
        journal_dir = tmp_path / "journal"
        run = ["run", str(dataset), "--json"]
        plain = tmp_path / "plain.json"
        assert main(run + ["--output", str(plain)]) == 0
        journaled = run + ["--journal", str(journal_dir)]
        outputs = [tmp_path / "full.json", tmp_path / "resumed.json"]
        metrics = [tmp_path / "full.m.json", tmp_path / "resumed.m.json"]
        with chaos(ChaosInjector(cache_enospc=True)):
            assert main(journaled + ["--output", str(outputs[0]), "--metrics", str(metrics[0])]) == 0
        run_id = _run_id(capsys.readouterr().err)
        resume = ["--resume", run_id, "--output", str(outputs[1]), "--metrics", str(metrics[1])]
        assert main(journaled + resume) == 0
        counters = [json.loads(path.read_text())["counters"] for path in metrics]
        assert counters[0]["perf.cache.store_failed"] == 1
        assert counters[1]["perf.cache.misses"] == 1
        assert "perf.cache.hits" not in counters[1]
        assert [output.read_bytes() for output in outputs] == [plain.read_bytes()] * 2


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
        run_id = _run_id(capsys.readouterr().err)
        assert main(
            [
                "run", str(dataset), "--output", str(resumed_out), "--json",
                "--journal", str(journal_dir), "--resume", run_id,
            ]
        ) == 0
        assert first_out.read_bytes() == plain_out.read_bytes()
        assert resumed_out.read_bytes() == plain_out.read_bytes()
        assert json.loads(resumed_out.read_text())

    def test_parent_journal_resumes_without_unpickling(
        self, tmp_bundle, tmp_path, capsys, refuse_unpickling
    ):
        """A run journal an earlier release left in the directory — a
        ``graph`` record and an ``iteration`` record whose blobs are
        pickles, and a ``result`` — is never opened: the resume re-runs
        the passes over the cached graph and leaves the journal as it
        was."""
        dataset = tmp_bundle(seed=3)
        journal_dir = tmp_path / "journal"
        run = ["run", str(dataset), "--json", "--journal", str(journal_dir)]
        plain_out = tmp_path / "plain.json"
        assert main(run + ["--output", str(plain_out)]) == 0
        run_id = _run_id(capsys.readouterr().err)
        parent = RunJournal(journal_dir, run_id)
        assert parent.append("graph", {}, blob=pickle.dumps({"graph": 1}))
        assert parent.append("iteration", {"iteration": 1}, blob=pickle.dumps([1]))
        assert parent.append("result", {"json": "{}"})
        before = sorted((path.name, path.read_bytes()) for path in journal_dir.iterdir())
        resumed_out, metrics = tmp_path / "resumed.json", tmp_path / "m.json"
        resume = ["--resume", run_id, "--metrics", str(metrics)]
        assert main(run + ["--output", str(resumed_out)] + resume) == 0
        assert refuse_unpickling == []
        assert resumed_out.read_bytes() == plain_out.read_bytes()
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["perf.cache.hits"] == 1
        assert not [name for name in counters if name.startswith("robust.journal")]
        assert sorted((path.name, path.read_bytes()) for path in journal_dir.iterdir()) == before

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
