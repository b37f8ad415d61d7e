"""Worlds: the unit of input the differential harness runs on.

A :class:`World` is a self-contained MAP-IT input — traces plus the
raw datasets the IP2AS stack is assembled from — in a mutable shape
the shrinker can carve up and the metamorphic checks can transform,
and that round-trips through the dataset directory's own writer and
readers (:mod:`repro.io`) so a failing world can be checked in as a
regression bundle and replayed by ``python -m repro.diff --replay``.

Worlds come from three places: seeded :mod:`repro.sim` scenarios (the
sweep), saved bundles (replay), and transformations of other worlds
(metamorphic checks and shrinking).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.bgp.cymru import CymruTable
from repro.bgp.ip2as import IP2AS, assemble_ip2as
from repro.bgp.table import Announcement, CollectorDump
from repro.io.bundle import find_traces, read_manifest, read_mappings
from repro.io.save import write_dataset, write_manifest
from repro.ixp.dataset import IXPDataset, IXPRecord
from repro.org.as2org import AS2Org
from repro.rel.relationships import RelationshipDataset
from repro.robust.health import BundleHealth
from repro.robust.ingest import ingest_trace_file
from repro.sim.presets import SCENARIO_PRESETS
from repro.sim.scenario import Scenario, build_scenario
from repro.traceroute.model import Trace


@dataclass
class World:
    """One differential-testing input: traces plus raw datasets.

    ``router_addresses`` (router key -> its interface addresses) and
    ``address_as`` (address -> ground-truth AS) are shrink metadata:
    they let the shrinker drop whole routers and whole ASes instead of
    only whole traces.  Both may be empty for replayed bundles that
    never recorded them; ``recorded`` is empty for any world not
    replayed from a regression bundle.
    """

    name: str
    traces: List[Trace]
    collector_dumps: List[CollectorDump] = field(default_factory=list)
    cymru: CymruTable = field(default_factory=CymruTable)
    ixp: IXPDataset = field(default_factory=IXPDataset)
    as2org: AS2Org = field(default_factory=AS2Org)
    relationships: RelationshipDataset = field(default_factory=RelationshipDataset)
    router_addresses: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    address_as: Dict[int, int] = field(default_factory=dict)
    #: what a regression bundle records beside the world (the remove
    #: rule and serve cadence it diverged at, the shrink stages)
    recorded: Dict[str, object] = field(default_factory=dict)

    def ip2as(self) -> IP2AS:
        """The composite IP2AS mapper of the raw datasets, assembled as
        :func:`repro.io.bundle.load_bundle` assembles it."""
        return assemble_ip2as(self.collector_dumps, self.cymru, self.ixp)

    def replaced(self, **changes) -> "World":
        """A shallow copy with *changes* applied (shrinker steps)."""
        return replace(self, **changes)

    # -- persistence ------------------------------------------------------

    def save(self, directory: Union[str, Path]) -> Path:
        """Write this world as a loadable dataset directory.

        The files are :func:`repro.io.save.write_dataset`'s; shrink
        metadata and ``recorded`` ride along in the manifest under
        ``"diff"``, so a replayed regression world can keep shrinking
        and replays under the settings it recorded.
        """
        root = Path(directory)
        checksums = write_dataset(
            root,
            self.traces,
            self.collector_dumps,
            self.cymru,
            self.ixp,
            self.as2org,
            self.relationships,
        )
        manifest = {
            "format": "mapit-dataset-v1",
            "traces": len(self.traces),
            "collectors": [dump.name for dump in self.collector_dumps],
            "checksums": {
                name: f"sha256:{value}" for name, value in sorted(checksums.items())
            },
            "diff": {
                "world": self.name,
                "router_addresses": {
                    str(router): sorted(addresses)
                    for router, addresses in sorted(self.router_addresses.items())
                },
                "address_as": {
                    str(address): asn for address, asn in sorted(self.address_as.items())
                },
                **self.recorded,
            },
        }
        write_manifest(root, manifest)
        return root


def world_from_scenario(scenario: Scenario, name: str) -> World:
    """Wrap a built :class:`~repro.sim.scenario.Scenario` as a world,
    capturing the router/AS structure the shrinker needs."""
    return World(
        name=name,
        traces=list(scenario.traces),
        collector_dumps=list(scenario.collector_dumps),
        cymru=scenario.cymru,
        ixp=scenario.ixp_dataset,
        as2org=scenario.as2org,
        relationships=scenario.relationships,
        router_addresses=scenario.router_addresses(),
        address_as=dict(scenario.ground_truth.router_as),
    )


def world_from_preset(preset: str, seed: int) -> World:
    """Build the *seed*-th world of a named preset sweep
    (:data:`repro.sim.presets.SCENARIO_PRESETS`)."""
    try:
        config = SCENARIO_PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown preset {preset!r} (choose from {sorted(SCENARIO_PRESETS)})"
        ) from None
    return world_from_scenario(build_scenario(config(seed)), name=f"{preset}-seed{seed}")


def world_from_bundle(directory: Union[str, Path]) -> World:
    """Load a saved world (e.g. a checked-in regression bundle).

    Reads the raw datasets with the loader's own readers
    (:func:`repro.io.bundle.read_mappings`, ``mapit run``'s strict
    rules: an optional file that fails to parse degrades to empty) so
    the world stays transformable; shrink metadata and ``recorded``
    are recovered from the manifest when present.
    """
    root = Path(directory)
    traces_path = find_traces(root)
    if traces_path is None:
        raise FileNotFoundError(f"no traces.txt or traces.jsonl in {root}")
    traces, _ = ingest_trace_file(traces_path)
    health = BundleHealth()
    dumps, cymru, ixp, as2org, relationships = read_mappings(root, "strict", health)
    diff_meta = read_manifest(root, health).get("diff", {})
    router_addresses = {
        int(router): tuple(addresses)
        for router, addresses in diff_meta.get("router_addresses", {}).items()
    }
    address_as = {
        int(address): asn for address, asn in diff_meta.get("address_as", {}).items()
    }
    recorded = {
        key: value
        for key, value in diff_meta.items()
        if key not in ("world", "router_addresses", "address_as")
    }
    return World(
        name=diff_meta.get("world", root.name),
        traces=traces,
        collector_dumps=dumps,
        cymru=cymru,
        ixp=ixp,
        as2org=as2org,
        relationships=relationships,
        router_addresses=router_addresses,
        address_as=address_as,
        recorded=recorded,
    )


# -- metamorphic transformations ------------------------------------------


def permute_traces(world: World, rng: random.Random) -> World:
    """Shuffle trace order (§4.4.5: results must not depend on it)."""
    traces = list(world.traces)
    rng.shuffle(traces)
    return world.replaced(name=f"{world.name}+permuted", traces=traces)


def duplicate_traces(world: World, rng: random.Random, fraction: float = 0.3) -> World:
    """Re-append a random sample of traces (duplicate observations of
    the same paths add no neighbor-set members, so inferences must not
    change)."""
    traces = list(world.traces)
    count = max(1, int(len(traces) * fraction))
    traces.extend(rng.sample(list(world.traces), min(count, len(traces))))
    return world.replaced(name=f"{world.name}+duplicated", traces=traces)


def renumber_ases(world: World, rng: random.Random) -> Tuple[World, Dict[int, int]]:
    """Relabel every AS number, order-preserving; returns the mapping.

    Inference output must be invariant modulo the relabeling.  The
    relabeling keeps relative ASN order (each AS moves up by a random
    cumulative offset) because the documented sibling-member tie-break
    is ordinal — "lowest ASN wins" — so an order-*reversing* relabel
    could legitimately flip tie decisions.  Absolute values, however,
    must never matter, which is exactly what this checks.
    """
    asns = set(world.address_as.values())
    asns.update(world.relationships.all_ases())
    for group in world.as2org.groups():
        asns.update(group)
    for dump in world.collector_dumps:
        for announcement in dump:
            asns.update(announcement.as_path)
    for _, origin in world.cymru.items():
        asns.add(origin)
    for record in world.ixp:
        if record.asn is not None:
            asns.add(record.asn)
    mapping: Dict[int, int] = {}
    next_value = 0
    for asn in sorted(asn for asn in asns if asn > 0):
        next_value += rng.randint(1, 1000)
        mapping[asn] = next_value
    for asn in asns:
        if asn <= 0:
            mapping[asn] = asn  # sentinels are not AS numbers

    def m(asn: int) -> int:
        return mapping.get(asn, asn)

    dumps = []
    for dump in world.collector_dumps:
        renumbered = CollectorDump(name=dump.name, location=dump.location)
        for announcement in dump:
            renumbered.add(
                Announcement(
                    prefix=announcement.prefix,
                    as_path=tuple(m(asn) for asn in announcement.as_path),
                )
            )
        dumps.append(renumbered)
    cymru = CymruTable()
    for prefix, origin in world.cymru.items():
        cymru.add(prefix, m(origin))
    ixp = IXPDataset(
        IXPRecord(prefix=record.prefix, asn=m(record.asn), name=record.name)
        for record in world.ixp
    )
    as2org = AS2Org()
    for index, group in enumerate(world.as2org.groups()):
        as2org.add_siblings(sorted(m(asn) for asn in group), org_name=f"org-{index}")
    relationships = RelationshipDataset()
    for asn in world.relationships.all_ases():
        for customer in world.relationships.customers(asn):
            relationships.add_p2c(m(asn), m(customer))
        for peer in world.relationships.peers(asn):
            if asn < peer:
                relationships.add_p2p(m(asn), m(peer))
    renumbered_world = world.replaced(
        name=f"{world.name}+renumbered",
        collector_dumps=dumps,
        cymru=cymru,
        ixp=ixp,
        as2org=as2org,
        relationships=relationships,
        address_as={address: m(asn) for address, asn in world.address_as.items()},
    )
    return renumbered_world, mapping
