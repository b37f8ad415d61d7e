"""Hand-authored topologies: the testbed builder.

The generated scenarios of :mod:`repro.sim.scenario` cover statistical
experiments; reproducing a *specific* neighborhood — the paper's Fig 2
wiring, a customer's real deployment — needs exact routers, links, and
addresses.  :class:`TestbedBuilder` is a small facade over the Network
machinery for that:

    tb = TestbedBuilder()
    tb.add_as(11537, "internet2", "198.71.44.0/22")
    tb.add_as(2603, "nordunet", "109.105.96.0/22")
    tb.add_router("newy", 11537)
    tb.add_router("nord", 2603)
    tb.link("nord", "newy", "109.105.98.8/30")   # owner = prefix owner
    tb.peer(2603, 11537)
    tb.monitor("mon-se", "nord")
    testbed = tb.build()
    traces = testbed.trace_all(flows=2)

Built testbeds use the same valley-free routing, IGP, traceroute
engine, ground truth, and IP2AS export paths as generated scenarios,
so results are directly comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.bgp.ip2as import IP2AS, IP2ASBuilder
from repro.bgp.origins import OriginTable
from repro.io.truth import GroundTruth
from repro.net.prefix import Prefix, host_addresses
from repro.org.as2org import AS2Org
from repro.rel.relationships import RelationshipDataset
from repro.sim.asgraph import ASGraph, ASNode, Tier
from repro.sim.groundtruth import ground_truth_from_network
from repro.sim.network import EXTERNAL, INTERNAL, Network
from repro.sim.addressing import AddressPlan, ASAllocator
from repro.sim.routing import ASRoutes, IGP
from repro.sim.tracer import Monitor, TracerConfig, TracerouteEngine
from repro.traceroute.model import Trace


@dataclass
class Testbed:
    """A built hand-authored topology, ready to trace."""

    #: not a test case, despite the name (pytest collection hint)
    __test__ = False

    network: Network
    graph: ASGraph
    engine: TracerouteEngine
    as_routes: ASRoutes
    igp: IGP
    monitors: List[Monitor]
    ip2as: IP2AS
    as2org: AS2Org
    relationships: RelationshipDataset
    ground_truth: GroundTruth
    names: Dict[int, str]

    def trace(self, monitor: str, dst: Union[int, str], flow_id: int = 0) -> Trace:
        """One traceroute from a named monitor."""
        if isinstance(dst, str):
            from repro.net.ipv4 import parse_address

            dst = parse_address(dst)
        return self.engine.trace(monitor, dst, flow_id)

    def trace_all(self, flows: int = 1, targets_per_as: int = 3) -> List[Trace]:
        """A campaign: every monitor probes hosts in every AS."""
        rng = random.Random(0xBEEF)
        targets: List[int] = []
        for asn in sorted(self.network.plan.announced):
            for prefix in self.network.plan.announced[asn]:
                for _ in range(targets_per_as):
                    offset = rng.randrange(max(1, prefix.size - 2)) + 1
                    targets.append(prefix.address + offset)
        traces = []
        for monitor in self.monitors:
            for flow in range(flows):
                for index, target in enumerate(targets):
                    traces.append(
                        self.engine.trace(monitor.name, target, flow_id=flow * 1000 + index)
                    )
        return traces


class TestbedBuilder:
    """Declarative construction of exact topologies."""

    # not a test case, despite the name (pytest collection hint)
    __test__ = False

    def __init__(self, seed: int = 0) -> None:
        self._graph = ASGraph()
        self._network: Optional[Network] = None
        self._plan = AddressPlan()
        self._routers: Dict[str, int] = {}
        self._links: List[Tuple[str, str, Prefix, Optional[int]]] = []
        self._monitors: List[Tuple[str, str]] = []
        self._siblings: List[Tuple[int, int]] = []
        self._unannounced: List[Prefix] = []
        self._seed = seed

    # -- declarations -----------------------------------------------------

    def add_as(
        self,
        asn: int,
        name: str,
        *prefixes: str,
        tier: Tier = Tier.REGIONAL,
        announce: bool = True,
    ) -> "TestbedBuilder":
        """Declare an AS and its address space."""
        parsed = [Prefix.parse(text) for text in prefixes]
        self._graph.add_node(ASNode(asn=asn, tier=tier, name=name, router_count=0))
        self._plan.allocators[asn] = ASAllocator(asn=asn, prefixes=list(parsed))
        self._plan.announced[asn] = list(parsed) if announce else []
        self._plan.unannounced[asn] = [] if announce else list(parsed)
        return self

    def add_router(self, name: str, asn: int) -> "TestbedBuilder":
        """Declare a router inside an AS."""
        if name in self._routers:
            raise ValueError(f"duplicate router name {name!r}")
        self._routers[name] = asn
        return self

    def link(
        self,
        first: str,
        second: str,
        subnet: str,
        owner: Optional[int] = None,
    ) -> "TestbedBuilder":
        """Wire two routers with a /30 or /31.

        The router named first takes the subnet's first host address.
        *owner* defaults to the AS whose declared space contains the
        subnet.
        """
        prefix = Prefix.parse(subnet)
        if prefix.length not in (30, 31):
            raise ValueError("point-to-point links need a /30 or /31")
        self._links.append((first, second, prefix, owner))
        return self

    def transit(self, provider: int, customer: int) -> "TestbedBuilder":
        self._graph.add_transit(provider, customer)
        return self

    def peer(self, a: int, b: int) -> "TestbedBuilder":
        self._graph.add_peering(a, b)
        return self

    def siblings(self, a: int, b: int) -> "TestbedBuilder":
        self._graph.sibling_groups.append({a, b})
        self._siblings.append((a, b))
        return self

    def monitor(self, name: str, at_router: str) -> "TestbedBuilder":
        self._monitors.append((name, at_router))
        return self

    # -- build -------------------------------------------------------------

    def _owner_of(self, prefix: Prefix) -> int:
        for asn, allocator in self._plan.allocators.items():
            if any(block.contains_prefix(prefix) for block in allocator.prefixes):
                return asn
        raise ValueError(f"{prefix} is not inside any declared AS space")

    def build(self, tracer_config: Optional[TracerConfig] = None) -> Testbed:
        """Materialize the network and all derived machinery."""
        network = Network(as_graph=self._graph, plan=self._plan)
        # Hand-assigned link subnets must never collide with later
        # automatic allocations (monitor LANs, NAT pool addresses).
        for _, _, prefix, _ in self._links:
            self._plan.allocators[self._owner_of(prefix)].reserve(prefix)
        router_ids: Dict[str, int] = {}
        for name, asn in self._routers.items():
            router_ids[name] = network.new_router(asn, name).router_id
        for first, second, prefix, owner in self._links:
            owner_as = owner if owner is not None else self._owner_of(prefix)
            first_id, second_id = router_ids[first], router_ids[second]
            as_a = network.router_as(first_id)
            as_b = network.router_as(second_id)
            kind = INTERNAL if as_a == as_b else EXTERNAL
            link = network.new_link(kind, prefix, owner_as)
            hosts = list(host_addresses(prefix))
            network.attach(link, first_id, hosts[0])
            network.attach(link, second_id, hosts[1])
            if kind == INTERNAL:
                network.internal_adjacency[first_id].append((link.link_id, second_id))
                network.internal_adjacency[second_id].append((link.link_id, first_id))
            else:
                network.external_links.setdefault(
                    frozenset((as_a, as_b)), []
                ).append(link.link_id)
        for node in self._graph.nodes.values():
            node.router_count = len(network.routers_by_as.get(node.asn, []))

        as_routes = ASRoutes(self._graph)
        igp = IGP(network)
        engine = TracerouteEngine(
            network, as_routes, igp, tracer_config or TracerConfig(seed=self._seed)
        )
        rng = random.Random(self._seed)
        monitors = [
            engine.add_monitor(
                name,
                network.router_as(router_ids[at_router]),
                rng,
                router_id=router_ids[at_router],
            )
            for name, at_router in self._monitors
        ]

        origins = OriginTable()
        for asn, prefixes in self._plan.announced.items():
            for prefix in prefixes:
                origins.record(prefix, asn)
        ip2as = IP2ASBuilder().add_bgp(origins).build()

        as2org = AS2Org()
        for a, b in self._siblings:
            as2org.add_pair(a, b)
        relationships = RelationshipDataset()
        for edge in self._graph.edges:
            if edge.kind == "transit":
                relationships.add_p2c(edge.a, edge.b)
            else:
                relationships.add_p2p(edge.a, edge.b)
        ground_truth = ground_truth_from_network(network)
        names = {asn: node.name for asn, node in self._graph.nodes.items()}
        return Testbed(
            network=network,
            graph=self._graph,
            engine=engine,
            as_routes=as_routes,
            igp=igp,
            monitors=monitors,
            ip2as=ip2as,
            as2org=as2org,
            relationships=relationships,
            ground_truth=ground_truth,
            names=names,
        )
