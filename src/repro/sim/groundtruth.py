"""Ground truth extracted from the synthetic network.

The simulator knows exactly which interfaces sit on inter-AS links and
which ASes each link connects — the information the paper obtains from
Internet2's interface XML and reconstructs for Level 3 / TeliaSonera
from DNS hostnames.  The evaluation package scores MAP-IT and the
baselines against this.  The types live in the dataset layer
(:mod:`repro.io.truth`), so loading a dataset loads no simulator.
"""

from __future__ import annotations

from repro.io.truth import BorderInterface, GroundTruth
from repro.sim.network import EXTERNAL, INTERNAL, IXP_LAN, MONITOR_LAN, Network


def ground_truth_from_network(network: Network) -> GroundTruth:
    """The truth about every interface on *network*'s links."""
    truth = GroundTruth()
    for link in network.links.values():
        if link.kind == EXTERNAL:
            (router_a, addr_a), (router_b, addr_b) = link.endpoints
            as_a = network.router_as(router_a)
            as_b = network.router_as(router_b)
            truth.border[addr_a] = BorderInterface(
                address=addr_a,
                router_as=as_a,
                connected_as=as_b,
                other_address=addr_b,
                owner_as=link.owner_as,
            )
            truth.border[addr_b] = BorderInterface(
                address=addr_b,
                router_as=as_b,
                connected_as=as_a,
                other_address=addr_a,
                owner_as=link.owner_as,
            )
        elif link.kind in (INTERNAL, MONITOR_LAN):
            for _, address in link.endpoints:
                truth.internal.add(address)
        elif link.kind == IXP_LAN:
            for router_id, address in link.endpoints:
                truth.ixp[address] = network.router_as(router_id)
        for router_id, address in link.endpoints:
            truth.router_as[address] = network.router_as(router_id)
    return truth
