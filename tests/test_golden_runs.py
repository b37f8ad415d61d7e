"""End-to-end golden regression runs over frozen on-disk bundles.

``tests/fixtures/golden/`` holds three committed dataset directories —
two simulated small worlds (one text-format, one JSON-lines) and the
hand-built Fig 2 neighborhood — each with the expected ``run --json``
output frozen next to it as ``expected.json``.  Any change to parsing,
sanitization, graph construction, the inference passes, or output
serialization that alters results for *real files on disk* fails here
byte-for-byte, under the serial and the sharded execution paths alike.

Regenerating an expectation after an intentional behavior change::

    PYTHONPATH=src python -m repro.cli run tests/fixtures/golden/<name> \
        --json --output tests/fixtures/golden/<name>/expected.json

The differential harness's core run of ``world_from_preset("tiny", 0)``
is pinned too: it is the output every chaos schedule must write
(tests/test_chaos.py).
"""

import hashlib
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.config import MapItConfig
from repro.diff.harness import build_graph, core_records
from repro.diff.worlds import world_from_preset

GOLDEN_ROOT = Path(__file__).parent / "fixtures" / "golden"
BUNDLES = sorted(path.name for path in GOLDEN_ROOT.iterdir() if path.is_dir())

#: sha256 of the core run of tiny seed 0, as ``mapit run --json`` writes it
TINY_SEED0_SHA256 = "9b2768e24fdf41b8474d96c9ab7de065d6be5fd15c26c8df63c656d5b9655476"


def core_json(world):
    """The bytes ``mapit run --json`` writes for *world*: its core run's
    ``to_json(indent=2)`` and a newline."""
    _, _, result = core_records(build_graph(world), world, MapItConfig())
    return result.to_json(indent=2) + "\n"


def test_fixtures_present():
    assert BUNDLES == ["fig2", "small-seed11-jsonl", "small-seed3"]


@pytest.mark.parametrize("name", BUNDLES)
@pytest.mark.parametrize("jobs", [1, 2])
def test_golden_run_byte_exact(name, jobs, tmp_path, capsys):
    bundle = GOLDEN_ROOT / name
    out = tmp_path / "out.json"
    code = main(
        ["run", str(bundle), "--json", "--jobs", str(jobs), "--output", str(out)]
    )
    assert code == 0
    assert out.read_bytes() == (bundle / "expected.json").read_bytes()


@pytest.mark.parametrize("name", BUNDLES)
def test_golden_run_cached_byte_exact(name, tmp_path, capsys):
    bundle = GOLDEN_ROOT / name
    cache = tmp_path / "cache"
    for attempt in ("cold", "warm"):
        out = tmp_path / f"{attempt}.json"
        args = ["run", str(bundle), "--json", "--cache", str(cache), "--output", str(out)]
        assert main(args) == 0
        assert out.read_bytes() == (bundle / "expected.json").read_bytes()


def test_fig2_inference_is_the_papers(capsys):
    """The frozen Fig 2 case keeps inferring the NORDUnet-numbered
    ingress on the Internet2 router (AS2603 -> AS11537)."""
    assert main(["run", str(GOLDEN_ROOT / "fig2")]) == 0
    out = capsys.readouterr().out
    assert "109.105.98.10" in out
    assert "2603" in out and "11537" in out


def test_tiny_seed0_core_run_is_pinned():
    output = core_json(world_from_preset("tiny", 0))
    assert hashlib.sha256(output.encode()).hexdigest() == TINY_SEED0_SHA256
