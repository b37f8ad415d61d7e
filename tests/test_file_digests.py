"""Each command hashes each dataset file once.

The cache key, the manifest checksum check and a journaled run's id
all need the traces file's sha256, and a journaled serve session's id
needs every mapping file's; a dataset load computes each once
(``BundleHealth.digest``) and every consumer reuses it.  A counting
shim on :func:`repro.io.atomic.file_sha256` — patched wherever a module
holds it — counts the hashes per command.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

import repro.io.atomic as atomic
import repro.serve.checkpoint  # noqa: F401 - bound before a shim: a module first imported under one keeps it
from repro.cli import main
from repro.core.config import MapItConfig
from repro.robust.journal import run_identity_for


@pytest.fixture
def traces_hashes(monkeypatch):
    """The paths ``file_sha256`` hashed since the fixture was set up."""
    original = atomic.file_sha256
    hashed = []

    def counting(path):
        hashed.append(str(path))
        return original(path)

    for module in list(sys.modules.values()):
        if getattr(module, "file_sha256", None) is original:
            monkeypatch.setattr(module, "file_sha256", counting)
    return hashed


def _traces_count(hashed):
    return sum(path.endswith("traces.txt") for path in hashed)


def test_run_cache_hashes_traces_once_cold_and_warm(
    tmp_bundle, tmp_path, capsys, traces_hashes
):
    dataset = tmp_bundle(seed=3)
    run = ["run", str(dataset), "--json", "--cache", str(tmp_path / "cache")]
    assert main(run + ["--output", str(tmp_path / "cold.json")]) == 0
    assert _traces_count(traces_hashes) == 1
    traces_hashes.clear()
    assert main(run + ["--output", str(tmp_path / "warm.json")]) == 0
    assert "cache: hit" in capsys.readouterr().err
    assert _traces_count(traces_hashes) == 1


def test_journaled_run_hashes_traces_once(tmp_bundle, tmp_path, capsys, traces_hashes):
    dataset = tmp_bundle(seed=3)
    journal = tmp_path / "journal"
    argv = ["run", str(dataset), "--json", "--output", str(tmp_path / "out.json")]
    assert main(argv + ["--journal", str(journal)]) == 0
    assert _traces_count(traces_hashes) == 1
    # the run id is still the traces digest's
    run_id = run_identity_for(dataset, MapItConfig(f=0.5), "strict")
    assert f"journal: run {run_id}" in capsys.readouterr().err


def test_serve_once_cache_hashes_traces_once(tmp_bundle, tmp_path, capsys, traces_hashes):
    dataset = tmp_bundle(seed=3)
    cache = tmp_path / "cache"
    run = ["run", str(dataset), "--json", "--output", str(tmp_path / "run.json")]
    assert main(run + ["--cache", str(cache)]) == 0
    traces_hashes.clear()
    serve = ["serve", str(dataset), "--once", "--json", "--cache", str(cache)]
    assert main(serve + ["--output", str(tmp_path / "serve.json")]) == 0
    assert _traces_count(traces_hashes) == 1
    served = (tmp_path / "serve.json").read_bytes()
    assert served == (tmp_path / "run.json").read_bytes()


def test_serve_journal_hashes_each_dataset_file_once(
    tmp_bundle, tmp_path, capsys, traces_hashes
):
    """The manifest check and the serve run id share every mapping
    file's digest."""
    dataset = tmp_bundle(seed=3)
    serve = ["serve", str(dataset), "--once", "--json", "--journal", str(tmp_path / "j")]
    assert main(serve + ["--output", str(tmp_path / "serve.json")]) == 0
    counts = Counter(Path(path).name for path in traces_hashes)
    assert {"as2org.txt", "cymru.txt", "ixp.txt", "relationships.txt"} <= set(counts)
    assert any(name.startswith("collector") for name in counts), counts
    assert set(counts.values()) == {1}, counts
