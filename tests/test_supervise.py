"""Supervised shard execution: deadlines, retries, degradation, signals.

Workers here are module-level (the fork pool pickles them by
reference) and deliberately tiny; the fault paths are driven through
:class:`~repro.robust.faults.ChaosInjector`, whose pid guard keeps
faults inside forked workers — the parent (this test process) never
kills or hangs itself.
"""

import os
import signal
import time

import pytest

from repro.cli import main
from repro.obs.metrics import Metrics
from repro.obs.observer import Observability
import repro.perf.pool as pool_mod
from repro.perf.pool import _graceful_sigterm, fork_available, fork_map
from repro.robust.errors import ErrorBudget, ErrorBudgetExceeded
from repro.robust.faults import ChaosInjector
from repro.robust.hooks import chaos
import repro.robust.supervise as supervise_mod
from repro.robust.supervise import (
    ShardDeadlineExhausted,
    default_shard_timeout,
    supervised_pool_map,
)

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="supervision tests need the fork start method"
)


def _sum_shard(shard):
    from repro.perf.pool import shared_payload

    values = shared_payload()
    start, end = shard
    return sum(values[start:end])


def _identity_shard(shard):
    return shard


def _sleep_shard(shard):
    time.sleep(5.0)
    return shard


def _raise_shard(shard):
    raise ValueError(f"poisoned shard {shard}")


def _metrics_obs():
    metrics = Metrics()
    return Observability(metrics=metrics), metrics


def _quarters(count):
    """Four equal shards over ``range(count)``."""
    size, rest = divmod(count, 4)
    assert not rest
    return [(index * size, (index + 1) * size) for index in range(4)]


@pytest.fixture(autouse=True)
def quick_backoff(monkeypatch):
    monkeypatch.setattr(supervise_mod, "BACKOFF_BASE", 0.01)
    monkeypatch.setattr(supervise_mod, "BACKOFF_CAP", 0.05)


class TestEquivalence:
    def test_pooled_matches_serial(self):
        values = list(range(200))
        serial = fork_map(_sum_shard, values, _quarters(len(values)), 1)
        pooled = fork_map(_sum_shard, values, _quarters(len(values)), 4)
        assert sum(pooled) == sum(serial) == sum(values)
        assert len(pooled) == 4

    def test_results_come_back_in_shard_order(self):
        ranges = [(0, 5), (5, 9), (9, 20)]
        out = supervised_pool_map(_identity_shard, ranges, 3, timeout=30.0)
        assert out == ranges


class TestFaultRecovery:
    def test_killed_worker_is_retried(self):
        obs, metrics = _metrics_obs()
        values = list(range(100))
        with chaos(ChaosInjector(kill_shards={(0, 1)})):
            pooled = fork_map(_sum_shard, values, _quarters(len(values)), 4, obs=obs)
        assert sum(pooled) == sum(values)
        assert metrics.counters["robust.supervise.worker_deaths"] == 1
        assert metrics.counters["robust.supervise.retries"] == 1

    def test_every_pooled_attempt_killed_degrades_inline(self):
        obs, metrics = _metrics_obs()
        values = list(range(40))
        # attempts 1 and 2 die in the pool; attempt 3 is the in-parent
        # fallback, which the injector's pid guard leaves untouched
        with chaos(ChaosInjector(kill_shards={(1, 1), (1, 2)})):
            pooled = fork_map(_sum_shard, values, _quarters(len(values)), 4, obs=obs)
        assert sum(pooled) == sum(values)
        assert metrics.counters["robust.supervise.degraded_inline"] == 1
        assert metrics.counters["robust.supervise.worker_deaths"] == 2

    def test_hung_worker_times_out_and_retries(self):
        obs, metrics = _metrics_obs()
        values = list(range(60))
        with chaos(ChaosInjector(hang_shards={(2, 1)}, hang_seconds=30.0)):
            pooled = fork_map(
                _sum_shard, values, _quarters(len(values)), 4, timeout=0.75, obs=obs
            )
        assert sum(pooled) == sum(values)
        assert metrics.counters["robust.supervise.timeouts"] == 1
        assert metrics.counters["robust.supervise.retries"] == 1

    def test_worker_exception_retried_then_raised(self, monkeypatch):
        obs, metrics = _metrics_obs()
        monkeypatch.setattr(supervise_mod, "MAX_ATTEMPTS", 2)
        with pytest.raises(ValueError, match="poisoned shard"):
            supervised_pool_map(_raise_shard, [(0, 1), (1, 2)], 2, obs=obs)
        assert metrics.counters["robust.supervise.worker_errors"] >= 1

    def test_deadline_exhausted_raises_124_material(self, monkeypatch):
        monkeypatch.setattr(supervise_mod, "MAX_ATTEMPTS", 2)
        with pytest.raises(ShardDeadlineExhausted) as excinfo:
            supervised_pool_map(_sleep_shard, [(0, 1), (1, 2)], 2, timeout=0.4)
        assert excinfo.value.timeout == 0.4
        assert "deadline" in str(excinfo.value)

    def test_budget_counts_rescued_shards(self):
        budget = ErrorBudget(max_error_rate=0.1, min_records=1)
        values = list(range(80))
        with chaos(ChaosInjector(kill_shards={(0, 1)})):
            with pytest.raises(ErrorBudgetExceeded):
                fork_map(_sum_shard, values, _quarters(len(values)), 4, budget=budget)


class TestConfig:
    def test_validation(self):
        """A non-positive or infinite library timeout is rejected at
        any jobs."""
        for jobs in (1, 2):
            for timeout in (0.0, -5.0, float("inf")):
                with pytest.raises(ValueError, match="timeout must be positive"):
                    fork_map(_sum_shard, [1, 2], [(0, 1), (1, 2)], jobs, timeout=timeout)

    def test_cli_nonpositive_shard_timeout_is_usage_error(
        self, tmp_bundle, tmp_path, monkeypatch, capsys
    ):
        """``--shard-timeout`` must be finite and > 0 at any ``--jobs``
        (exit 2, naming the flag); ``$MAPIT_SHARD_TIMEOUT <= 0`` still
        means no deadline.  (``--jobs 2 --shard-timeout 0`` raised ``ValueError``
        from the pool, exit 1; ``--jobs 1 --shard-timeout -5`` ran.)"""
        dataset = tmp_bundle(seed=3)
        for jobs in ("1", "2"):
            for value in ("0", "-5", "inf"):
                run = ["run", str(dataset), "--jobs", jobs, "--shard-timeout", value]
                with pytest.raises(SystemExit) as excinfo:
                    main(run)
                assert excinfo.value.code == 2
                assert "argument --shard-timeout: must be > 0" in capsys.readouterr().err
        monkeypatch.setenv("MAPIT_SHARD_TIMEOUT", "0")
        out = ["--output", str(tmp_path / "out.txt")]
        assert main(["run", str(dataset), "--jobs", "2"] + out) == 0

    def test_default_shard_timeout_env(self, monkeypatch):
        monkeypatch.delenv("MAPIT_SHARD_TIMEOUT", raising=False)
        assert default_shard_timeout() is None
        monkeypatch.setenv("MAPIT_SHARD_TIMEOUT", "2.5")
        assert default_shard_timeout() == 2.5
        monkeypatch.setenv("MAPIT_SHARD_TIMEOUT", "not-a-number")
        assert default_shard_timeout() is None
        monkeypatch.setenv("MAPIT_SHARD_TIMEOUT", "-3")
        assert default_shard_timeout() is None
        # signal.setitimer cannot arm an infinite deadline inline
        monkeypatch.setenv("MAPIT_SHARD_TIMEOUT", "inf")
        assert default_shard_timeout() is None


class TestSignals:
    def test_sigterm_becomes_keyboard_interrupt(self):
        before = signal.getsignal(signal.SIGTERM)
        with pytest.raises(KeyboardInterrupt):
            with _graceful_sigterm():
                os.kill(os.getpid(), signal.SIGTERM)
                for _ in range(100):
                    time.sleep(0.01)
        assert signal.getsignal(signal.SIGTERM) is before

    def test_cli_maps_interrupt_to_130(self, monkeypatch, tmp_path, capsys):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.cli.load_bundle", interrupted)
        code = main(["run", str(tmp_path)])
        assert code == 130
        assert "interrupted" in capsys.readouterr().err

    def test_cli_maps_deadline_exhausted_to_124(self, monkeypatch, tmp_path, capsys):
        def timed_out(*args, **kwargs):
            raise ShardDeadlineExhausted((0, 10), 3, 0.5)

        monkeypatch.setattr("repro.cli.load_bundle", timed_out)
        code = main(["run", str(tmp_path)])
        assert code == 124
        assert "deadline" in capsys.readouterr().err


class TestDegradedPath:
    def test_no_fork_support_is_byte_identical(self, tmp_bundle, tmp_path, monkeypatch):
        """The forkless fallback must equal the parallel (and serial) run."""
        dataset = tmp_bundle(seed=3)
        parallel_out = tmp_path / "parallel.txt"
        degraded_out = tmp_path / "degraded.txt"
        assert main(
            ["run", str(dataset), "--output", str(parallel_out), "--jobs", "4"]
        ) == 0
        monkeypatch.setattr(pool_mod, "fork_available", lambda: False)
        assert main(
            ["run", str(dataset), "--output", str(degraded_out), "--jobs", "4"]
        ) == 0
        assert degraded_out.read_bytes() == parallel_out.read_bytes()
