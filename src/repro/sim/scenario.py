"""Scenario assembly: one call from config to a complete dataset.

A :class:`Scenario` bundles everything one MAP-IT experiment needs —
traces, the IP2AS stack, sibling/relationship/IXP data, ground truth,
and handles to the underlying network — generated deterministically
from a seed.  The default dimensions produce an Internet2-like R&E
network plus tier-1s suitable for reproducing the paper's three
verification networks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bgp.cymru import CymruTable
from repro.bgp.ip2as import IP2AS
from repro.bgp.table import CollectorDump
from repro.io.truth import GroundTruth
from repro.ixp.dataset import IXPDataset
from repro.org.as2org import AS2Org
from repro.rel.relationships import RelationshipDataset
from repro.sim.asgraph import ASGraph, ASGraphConfig, Tier, generate_as_graph
from repro.sim.exports import build_ip2as, export_as2org, export_relationships
from repro.sim.groundtruth import ground_truth_from_network
from repro.sim.network import Network, NetworkConfig, build_network
from repro.sim.routing import ASRoutes, IGP
from repro.sim.tracer import Monitor, TracerConfig, TracerouteEngine
from repro.traceroute.model import Trace


@dataclass(frozen=True)
class ScenarioConfig:
    """All the knobs, in one place, seeded."""

    seed: int = 0
    as_graph: ASGraphConfig = field(default_factory=ASGraphConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    tracer: TracerConfig = field(default_factory=TracerConfig)
    monitor_count: int = 10
    #: probe targets sampled per announced prefix
    targets_per_prefix: int = 4
    #: BGP collectors (hosted at the largest ASes, like RouteViews)
    collector_count: int = 6
    ixp_directory_completeness: float = 0.9
    sibling_completeness: float = 0.85
    cymru_coverage: float = 0.6

    def reseeded(self, seed: int) -> "ScenarioConfig":
        """A copy with every layer reseeded consistently."""
        from dataclasses import replace

        return replace(
            self,
            seed=seed,
            as_graph=replace(self.as_graph, seed=seed),
            network=replace(self.network, seed=seed),
            tracer=replace(self.tracer, seed=seed),
        )


@dataclass
class Scenario:
    """A fully-built synthetic measurement campaign."""

    config: ScenarioConfig
    graph: ASGraph
    network: Network
    as_routes: ASRoutes
    igp: IGP
    engine: TracerouteEngine
    monitors: List[Monitor]
    traces: List[Trace]
    ip2as: IP2AS
    as2org: AS2Org
    relationships: RelationshipDataset
    ground_truth: GroundTruth
    #: the raw datasets the composite IP2AS was assembled from, kept
    #: so a scenario can be persisted as a dataset directory
    collector_dumps: List[CollectorDump] = field(default_factory=list)
    cymru: CymruTable = field(default_factory=CymruTable)
    ixp_dataset: IXPDataset = field(default_factory=IXPDataset)

    @property
    def re_asn(self) -> Optional[int]:
        """The Internet2-like R&E network's ASN, when present."""
        nodes = self.graph.by_tier(Tier.RE_NETWORK)
        return nodes[0].asn if nodes else None

    @property
    def tier1_asns(self) -> List[int]:
        """The tier-1 ASNs (the Level3/TeliaSonera stand-ins)."""
        return sorted(node.asn for node in self.graph.by_tier(Tier.TIER1))

    def verification_asns(self) -> List[int]:
        """The three networks the paper verifies against."""
        targets: List[int] = []
        if self.re_asn is not None:
            targets.append(self.re_asn)
        targets.extend(self.tier1_asns[:2])
        return targets

    def router_addresses(self) -> Dict[int, Tuple[int, ...]]:
        """Every router's interface addresses, sorted.

        Structural export for the differential shrinker
        (:mod:`repro.diff.shrink`): dropping a whole router at a time
        minimizes worlds far faster than trace-level ddmin alone.
        """
        by_router: Dict[int, List[int]] = {}
        for address, router_id, _ in self.network.interfaces():
            by_router.setdefault(router_id, []).append(address)
        return {
            router: tuple(sorted(addresses))
            for router, addresses in by_router.items()
        }


def build_scenario(config: ScenarioConfig = ScenarioConfig()) -> Scenario:
    """Generate topology, routing, monitors, and the trace campaign."""
    config = config.reseeded(config.seed)
    graph = generate_as_graph(config.as_graph)
    network = build_network(graph, config.network)
    as_routes = ASRoutes(graph)
    igp = IGP(network)
    engine = TracerouteEngine(network, as_routes, igp, config.tracer)

    rng = random.Random(config.seed ^ 0xC0FFEE)
    monitors = _place_monitors(engine, graph, rng, config.monitor_count)
    targets = _select_targets(network, rng, config.targets_per_prefix)
    traces: List[Trace] = []
    for monitor in monitors:
        for index, target in enumerate(targets):
            traces.append(engine.trace(monitor.name, target, flow_id=index))

    collector_asns = _collector_asns(graph, config.collector_count)
    ip2as, dumps, cymru, ixp_dataset = build_ip2as(
        network,
        as_routes,
        collector_asns,
        rng,
        ixp_completeness=config.ixp_directory_completeness,
        cymru_coverage=config.cymru_coverage,
    )
    as2org = export_as2org(graph, rng, config.sibling_completeness)
    relationships = export_relationships(graph)
    # Ground truth is read after monitor placement so monitor LANs are
    # classified as internal interfaces.
    ground_truth = ground_truth_from_network(network)
    return Scenario(
        config=config,
        graph=graph,
        network=network,
        as_routes=as_routes,
        igp=igp,
        engine=engine,
        monitors=monitors,
        traces=traces,
        ip2as=ip2as,
        as2org=as2org,
        relationships=relationships,
        ground_truth=ground_truth,
        collector_dumps=dumps,
        cymru=cymru,
        ixp_dataset=ixp_dataset,
    )


def _place_monitors(
    engine: TracerouteEngine, graph: ASGraph, rng: random.Random, count: int
) -> List[Monitor]:
    """Spread monitors across edge and mid-tier ASes.

    Like ARK, most vantage points live in stubs and regional networks;
    one monitor lands in the R&E network when present (the paper notes
    exactly one verification network hosted a monitor).
    """
    hosts: List[int] = []
    re_nodes = graph.by_tier(Tier.RE_NETWORK)
    if re_nodes:
        hosts.append(re_nodes[0].asn)
    pool = [
        node.asn
        for node in graph.nodes.values()
        if node.tier in (Tier.STUB, Tier.REGIONAL) and not node.natted
    ]
    rng.shuffle(pool)
    hosts.extend(pool[: max(0, count - len(hosts))])
    return [
        engine.add_monitor(f"mon-{index:02d}", asn, rng)
        for index, asn in enumerate(hosts)
    ]


def _select_targets(
    network: Network, rng: random.Random, per_prefix: int
) -> List[int]:
    """Sample probe targets from every announced prefix (ARK-style)."""
    targets: List[int] = []
    for asn in sorted(network.plan.announced):
        for prefix in network.plan.announced[asn]:
            for _ in range(per_prefix):
                offset = rng.randrange(max(1, prefix.size - 2)) + 1
                targets.append(prefix.address + offset)
    rng.shuffle(targets)
    return targets


def _collector_asns(graph: ASGraph, count: int) -> List[int]:
    """Host collectors at the best-connected ASes (tier-1s first)."""
    ranked = sorted(
        graph.nodes.values(),
        key=lambda node: (node.tier != Tier.TIER1, node.tier != Tier.TIER2, node.asn),
    )
    return [node.asn for node in ranked[:count]]
