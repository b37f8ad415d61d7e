"""The chaos layer of the differential harness.

``compare_world(..., chaos=...)`` runs the real CLI on the saved world
under each fault schedule and holds every faulted run to the bytes of
the comparison's own core run, which the oracle comparison checks in
turn; each schedule also fails unless its fault fired
(docs/DIFFERENTIAL_TESTING.md, "Chaos schedules").
"""

import hashlib
import os

import pytest

from repro.cli import main
from repro.core.config import MapItConfig
from repro.diff.chaos import CHAOS_SCHEDULES
from repro.diff.harness import ChaosRun, WorldOutcome, compare_world
from repro.diff.worlds import world_from_preset
from repro.perf.pool import fork_available
from repro.robust.faults import ChaosInjector
from repro.serve.incremental import IncrementalIndex
from tests.test_golden_runs import TINY_SEED0_SHA256, core_json

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="chaos schedules fork worker pools"
)


@pytest.fixture(scope="module")
def tiny():
    return world_from_preset("tiny", 0)


def schedules(outcome):
    return [run.schedule for run in outcome.chaos]


def failures(outcome):
    return {run.schedule: run.failure for run in outcome.chaos if run.failure}


class TestOutcomeModel:
    def test_schedule_result_lines(self):
        outcome = WorldOutcome("tiny-seed0", "majority")
        passed = ChaosRun("kill", evidence="robust.supervise.worker_deaths 2")
        assert outcome.chaos_line(passed) == (
            "world tiny-seed0 (remove_rule=majority): chaos kill: ok "
            "(robust.supervise.worker_deaths 2)"
        )
        assert outcome.chaos_line(ChaosRun("serial")).endswith("chaos serial: ok")
        failed = outcome.chaos_line(ChaosRun("hang", failure="did not fire: x 0 < 1"))
        assert failed == (
            "world tiny-seed0 (remove_rule=majority): chaos hang: did not fire: x 0 < 1"
        )

    def test_outcome_not_ok_with_failure(self):
        outcome = WorldOutcome(
            "tiny-seed0",
            "majority",
            chaos=[ChaosRun("serial"), ChaosRun("hang", failure="hang exited 1: boom")],
        )
        assert not outcome.ok
        assert outcome.divergence_count == 1
        assert WorldOutcome("tiny-seed0", "majority", chaos=[ChaosRun("serial")]).ok


@needs_fork
class TestSchedules:
    def test_kill_schedule_is_byte_identical(self, tiny):
        outcome = compare_world(tiny, chaos=("kill",))
        assert outcome.ok, outcome.report
        assert schedules(outcome) == ["serial", "kill"]
        assert "robust.supervise.worker_deaths 2" in outcome.chaos[1].evidence

    def test_enospc_schedule_is_byte_identical(self, tiny):
        outcome = compare_world(tiny, "add_rule", chaos=("enospc",))
        assert outcome.ok, outcome.report
        assert "perf.cache.store_failed 1" in outcome.chaos[1].evidence

    def test_unknown_schedule_rejected(self, tiny):
        with pytest.raises(ValueError, match="unknown chaos schedule"):
            compare_world(tiny, chaos=("not-a-schedule",))

    def test_config_the_cli_cannot_express_is_rejected(self, tiny):
        with pytest.raises(ValueError, match="cannot express"):
            compare_world(tiny, config=MapItConfig(min_neighbors=3), chaos=("kill",))

    def test_mapit_env_defaults_do_not_reach_the_faulted_runs(
        self, tiny, tmp_path, monkeypatch
    ):
        """With $MAPIT_CACHE set, the serial run would store an entry and
        the kill run would hit it, with no pool to fault."""
        cache = tmp_path / "cache"
        monkeypatch.setenv("MAPIT_CACHE", str(cache))
        outcome = compare_world(tiny, chaos=("kill",))
        assert outcome.ok, outcome.report
        assert os.environ["MAPIT_CACHE"] == str(cache) and not cache.exists()

    def test_serve_schedule_is_byte_identical(self, tiny):
        """A real daemon: HTTP answers mid-stream, SIGKILL after a
        durable checkpoint, and a resume whose checkpoint write fails."""
        outcome = compare_world(tiny, chaos=("serve",))
        assert outcome.ok, outcome.report
        assert outcome.chaos[1].evidence == (
            "resume: restored checkpoint, robust.journal.write_failed 1"
        )

    @pytest.mark.parametrize(
        "hook, names",
        [("maybe_fault_shard", ("kill", "hang")), ("maybe_fail_write", ("enospc", "serve"))],
    )
    def test_faults_that_do_not_fire_fail(self, tiny, monkeypatch, hook, names):
        """Equal bytes alone pass a schedule whose fault never fired."""
        monkeypatch.setattr(ChaosInjector, hook, lambda self, *args: None)
        outcome = compare_world(tiny, chaos=names)
        assert set(failures(outcome)) == set(names), outcome.report
        assert all("did not fire" in reason for reason in failures(outcome).values())
        assert "world tiny-seed0 (remove_rule=majority): chaos " in outcome.report
        assert outcome.divergence_count == len(names)

    def test_serve_schedule_catches_a_lost_checkpoint(self, tiny, monkeypatch):
        """A restore that keeps an empty fold serves the wrong bytes."""
        monkeypatch.setattr(IncrementalIndex, "restore_state", lambda self, state: None)
        outcome = compare_world(tiny, chaos=("serve",))
        assert failures(outcome) == {"serve": "serve output differs from the core bytes"}


@needs_fork
class TestRegressionBundle:
    def test_checked_in_bundle_replays_clean(self, tiny):
        """The schedules the retired chaos bundle recorded, held to the
        pinned core bytes of tiny seed 0."""
        outcome = compare_world(tiny, chaos=("kill", "hang", "torn-journal"))
        assert outcome.ok, outcome.report
        assert schedules(outcome) == ["serial", "kill", "hang", "torn-journal"]
        assert set(schedules(outcome)[1:]) <= set(CHAOS_SCHEDULES)
        pinned = hashlib.sha256(core_json(tiny).encode()).hexdigest()
        assert pinned == TINY_SEED0_SHA256


@needs_fork
class TestChaosCli:
    def test_cli_single_schedule(self, capsys):
        argv = [
            "diff", "--preset", "tiny", "--worlds", "1", "--seed", "0",
            "--no-metamorphic", "--rules", "majority", "--chaos", "kill",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "2 chaos run(s): 0 divergence(s)" in captured.out
        assert "chaos kill: ok (robust.supervise.worker_deaths 2" in captured.err

    def test_cli_replay_missing_bundle_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["diff", "--worlds", "0", "--chaos", "bogus"])
        assert exit_info.value.code == 2
        assert "unknown chaos schedule(s) bogus" in capsys.readouterr().err

    def test_cli_reports_but_does_not_shrink_a_chaos_failure(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(ChaosInjector, "maybe_fault_shard", lambda self, *args: None)
        argv = [
            "diff", "--preset", "tiny", "--worlds", "1", "--seed", "0",
            "--no-metamorphic", "--rules", "majority", "--chaos", "kill",
            "--json", "--shrink", "--regressions-dir", str(tmp_path),
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert '"chaos": 2' in captured.out and '"shrunk": []' in captured.out
        assert "chaos kill: did not fire" in captured.err
        assert "chaos failures are not shrunk" in captured.err
        assert list(tmp_path.iterdir()) == []
