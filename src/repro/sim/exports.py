"""Dataset exports: the simulator's stand-ins for public data sources.

Each function renders part of the synthetic world in the shape MAP-IT
consumes in the paper: BGP collector dumps (RouteViews/RIPE/Internet2),
a Team Cymru-style fallback table, IXP directories (PeeringDB/PCH),
CAIDA-style AS2ORG sibling data, and CAIDA-style AS relationships.
Deliberate incompleteness is supported where the paper calls the real
data incomplete (IXP directories, sibling lists).
"""

from __future__ import annotations

import random
from typing import List

from repro.bgp.cymru import CymruTable
from repro.bgp.ip2as import assemble_ip2as
from repro.bgp.table import CollectorDump
from repro.ixp.dataset import IXPDataset, IXPRecord
from repro.org.as2org import AS2Org
from repro.rel.relationships import RelationshipDataset
from repro.sim.asgraph import ASGraph
from repro.sim.network import Network
from repro.sim.routing import ASRoutes


def export_relationships(graph: ASGraph) -> RelationshipDataset:
    """CAIDA-style relationships: transit edges, peerings, IXP sessions."""
    dataset = RelationshipDataset()
    for edge in graph.edges:
        if edge.kind == "transit":
            dataset.add_p2c(edge.a, edge.b)
        else:
            dataset.add_p2p(edge.a, edge.b)
    for ixp in graph.ixps:
        for a, b in ixp.sessions:
            dataset.add_p2p(a, b)
    return dataset


def export_as2org(
    graph: ASGraph, rng: random.Random, completeness: float = 1.0
) -> AS2Org:
    """Sibling data, optionally truncated (the paper's is incomplete)."""
    org = AS2Org()
    for index, group in enumerate(graph.sibling_groups):
        if rng.random() <= completeness:
            org.add_siblings(sorted(group), org_name=f"org-{index}")
    return org


def export_ixp_dataset(
    network: Network, rng: random.Random, completeness: float = 1.0
) -> IXPDataset:
    """IXP prefix directory, optionally missing some exchanges."""
    dataset = IXPDataset()
    for ixp in network.as_graph.ixps:
        link_id = network.ixp_links.get(ixp.name)
        if link_id is None:
            continue
        if rng.random() > completeness:
            continue
        lan = network.links[link_id]
        dataset.add(IXPRecord(prefix=lan.subnet, asn=ixp.asn, name=ixp.name))
    return dataset


def export_bgp_dumps(
    network: Network,
    as_routes: ASRoutes,
    collector_asns: List[int],
) -> List[CollectorDump]:
    """One RIB dump per collector AS.

    Each collector holds, per announced prefix, the valley-free AS path
    from its host AS to the origin.  Prefixes whose origin the
    collector cannot reach are absent, mirroring partial visibility.
    """
    dumps: List[CollectorDump] = []
    for index, collector_as in enumerate(collector_asns):
        dump = CollectorDump(name=f"collector-{index}", location=f"AS{collector_as}")
        for origin, prefixes in network.plan.announced.items():
            if not as_routes.knows(origin):
                continue  # IXP LAN space: listed in the IXP directory instead
            path = as_routes.as_path(collector_as, origin)
            if path is None:
                continue
            for prefix in prefixes:
                dump.add_route(prefix, path if path else [origin])
        dumps.append(dump)
    return dumps


def export_cymru(
    network: Network, rng: random.Random, unannounced_coverage: float = 0.6
) -> CymruTable:
    """Team Cymru-style fallback covering some unannounced space.

    The real service aggregates more feeds than any research collector
    set, so it resolves part of the infrastructure space the RIB dumps
    miss.
    """
    table = CymruTable()
    for asn, prefixes in network.plan.unannounced.items():
        for prefix in prefixes:
            if rng.random() < unannounced_coverage:
                table.add(prefix, asn)
    return table


def build_ip2as(
    network: Network,
    as_routes: ASRoutes,
    collector_asns: List[int],
    rng: random.Random,
    ixp_completeness: float = 1.0,
    cymru_coverage: float = 0.6,
):
    """Assemble the full IP2AS stack exactly as the paper does.

    Returns ``(ip2as, dumps, cymru, ixp)`` so the raw datasets can be
    persisted alongside the composite mapper.
    """
    dumps = export_bgp_dumps(network, as_routes, collector_asns)
    cymru = export_cymru(network, rng, cymru_coverage)
    ixp = export_ixp_dataset(network, rng, ixp_completeness)
    return assemble_ip2as(dumps, cymru, ixp), dumps, cymru, ixp
