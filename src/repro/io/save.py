"""Writing a dataset directory.

:func:`write_dataset` writes the traces and mapping files of any
dataset; :func:`save_scenario` (a simulated scenario, plus its ground
truth and hostnames) and the differential harness's ``World.save``
call it, then build their own manifests and write them last with
:func:`write_manifest`.

All files are written crash-safely (temp file + atomic rename, see
:mod:`repro.io.atomic`): an interrupted ``mapit simulate`` never leaves
a half-written ``traces.txt`` behind to be silently mis-loaded later.
The manifest, written last, records a SHA-256 checksum for every data
file so :func:`repro.io.bundle.load_bundle` can detect corruption that
parsing alone would not catch.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Sequence, Union

from repro.dns.naming import HostnameDataset
from repro.io.atomic import atomic_write_json, atomic_write_lines
from repro.io.truth import save_ground_truth
from repro.traceroute.parse import traces_to_json_lines, traces_to_text_lines

if TYPE_CHECKING:
    from repro.bgp.cymru import CymruTable
    from repro.bgp.table import CollectorDump
    from repro.ixp.dataset import IXPDataset
    from repro.org.as2org import AS2Org
    from repro.rel.relationships import RelationshipDataset
    from repro.sim.scenario import Scenario
    from repro.traceroute.model import Trace


def write_dataset(
    directory: Union[str, Path],
    traces: Iterable[Trace],
    collector_dumps: Sequence[CollectorDump],
    cymru: CymruTable,
    ixp: IXPDataset,
    as2org: AS2Org,
    relationships: RelationshipDataset,
    trace_format: str = "text",
) -> Dict[str, str]:
    """Write a dataset directory's traces and mapping files; returns
    each file's sha256 by its path relative to the directory.

    *trace_format* is ``"text"`` (``traces.txt``, the default) or
    ``"jsonl"`` (``traces.jsonl``, the scamper-like JSON-lines form).
    The caller writes its manifest last (:func:`write_manifest`), with
    these checksums.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    writers = {
        "text": ("traces.txt", traces_to_text_lines),
        "jsonl": ("traces.jsonl", traces_to_json_lines),
    }
    if trace_format not in writers:
        raise ValueError(f"unknown trace_format {trace_format!r}")
    name, encode = writers[trace_format]
    checksums = {name: atomic_write_lines(root / name, encode(traces))}
    bgp_dir = root / "bgp"
    bgp_dir.mkdir(exist_ok=True)
    for dump in collector_dumps:
        checksums[f"bgp/{dump.name}.txt"] = atomic_write_lines(
            bgp_dir / f"{dump.name}.txt", dump.dump_lines()
        )
    for name, dataset in (
        ("cymru.txt", cymru),
        ("ixp.txt", ixp),
        ("as2org.txt", as2org),
        ("relationships.txt", relationships),
    ):
        checksums[name] = atomic_write_lines(root / name, dataset.dump_lines())
    return checksums


def save_scenario(
    scenario: Scenario,
    directory: Union[str, Path],
    hostnames: Optional[HostnameDataset] = None,
    trace_format: str = "text",
) -> Path:
    """Persist *scenario* as a dataset directory (*trace_format* as in
    :func:`write_dataset`); returns its path."""
    root = Path(directory)
    checksums = write_dataset(
        root,
        scenario.traces,
        scenario.collector_dumps,
        scenario.cymru,
        scenario.ixp_dataset,
        scenario.as2org,
        scenario.relationships,
        trace_format,
    )
    checksums["groundtruth.txt"] = save_ground_truth(
        scenario.ground_truth, root / "groundtruth.txt"
    )
    if hostnames is not None:
        checksums["hostnames.txt"] = atomic_write_lines(
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
    write_manifest(root, manifest)
    return root


def write_manifest(directory: Union[str, Path], manifest: Dict) -> None:
    """Write a dataset directory's ``manifest.json`` — the last file a
    writer writes, so its presence marks the directory complete
    (:func:`dataset_complete`).  Keys keep the caller's order."""
    atomic_write_json(Path(directory) / "manifest.json", manifest)


def dataset_complete(directory: Union[str, Path]) -> bool:
    """Whether a writer finished *directory*: its manifest exists (a
    killed write leaves none)."""
    return (Path(directory) / "manifest.json").exists()
