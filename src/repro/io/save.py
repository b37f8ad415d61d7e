"""Writing a scenario out as a dataset directory.

All files are written crash-safely (temp file + atomic rename, see
:mod:`repro.io.atomic`): an interrupted ``mapit simulate`` never leaves
a half-written ``traces.txt`` behind to be silently mis-loaded later.
The manifest, written last, records a SHA-256 checksum for every data
file so :func:`repro.io.bundle.load_bundle` can detect corruption that
parsing alone would not catch.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Union

from repro.dns.naming import HostnameDataset
from repro.io.atomic import atomic_write_json, atomic_write_lines
from repro.io.truth import save_ground_truth
from repro.traceroute.parse import traces_to_json_lines, traces_to_text_lines

if TYPE_CHECKING:
    from repro.sim.scenario import Scenario


def _write_lines(path: Path, lines) -> str:
    """Write newline-terminated *lines* atomically; returns the sha256."""
    return atomic_write_lines(path, lines)


def save_scenario(
    scenario: Scenario,
    directory: Union[str, Path],
    hostnames: Optional[HostnameDataset] = None,
    trace_format: str = "text",
) -> Path:
    """Persist *scenario* as a dataset directory; returns its path.

    *trace_format* is ``"text"`` (default) or ``"jsonl"`` for the
    scamper-like JSON-lines form.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    checksums: Dict[str, str] = {}
    if trace_format == "jsonl":
        checksums["traces.jsonl"] = _write_lines(
            root / "traces.jsonl", traces_to_json_lines(scenario.traces)
        )
    elif trace_format == "text":
        checksums["traces.txt"] = _write_lines(
            root / "traces.txt", traces_to_text_lines(scenario.traces)
        )
    else:
        raise ValueError(f"unknown trace_format {trace_format!r}")

    bgp_dir = root / "bgp"
    bgp_dir.mkdir(exist_ok=True)
    for dump in scenario.collector_dumps:
        checksums[f"bgp/{dump.name}.txt"] = _write_lines(
            bgp_dir / f"{dump.name}.txt", dump.dump_lines()
        )

    checksums["cymru.txt"] = _write_lines(root / "cymru.txt", scenario.cymru.dump_lines())
    checksums["ixp.txt"] = _write_lines(root / "ixp.txt", scenario.ixp_dataset.dump_lines())
    checksums["as2org.txt"] = _write_lines(root / "as2org.txt", scenario.as2org.dump_lines())
    checksums["relationships.txt"] = _write_lines(
        root / "relationships.txt", scenario.relationships.dump_lines()
    )
    checksums["groundtruth.txt"] = save_ground_truth(
        scenario.ground_truth, root / "groundtruth.txt"
    )
    if hostnames is not None:
        checksums["hostnames.txt"] = _write_lines(
            root / "hostnames.txt", hostnames.dump_lines()
        )

    manifest = {
        "format": "mapit-dataset-v1",
        "seed": scenario.config.seed,
        "traces": len(scenario.traces),
        "monitors": [monitor.name for monitor in scenario.monitors],
        "collectors": [dump.name for dump in scenario.collector_dumps],
        "verification_asns": scenario.verification_asns(),
        "re_asn": scenario.re_asn,
        "tier1_asns": scenario.tier1_asns,
        "checksums": {name: f"sha256:{value}" for name, value in sorted(checksums.items())},
    }
    atomic_write_json(root / "manifest.json", manifest)
    return root
