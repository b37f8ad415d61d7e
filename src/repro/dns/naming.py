"""Operator-style DNS hostnames for interfaces.

Large transit operators tag interconnection interfaces with the
connected network's name — the paper's examples are
``cogent-ic-309423-den-b1.c.telia.net`` (external) and
``ae-41-41.ebr1.berlin1.level3.net`` (internal).  We synthesize the
same two shapes for interfaces on routers of the chosen operators:

* external (inter-AS link) interfaces:
  ``<peer>-ic-<id>.edge<k>.<city>.<op>.net``
* internal interfaces: ``ae-<n>-<n>.<role><k>.<city>.<op>.net``

The paper's two noise sources are reproduced: some interfaces simply
lack hostnames (*coverage*), and some tags are stale — they name a
network the interface is no longer connected to (*stale_probability*).
Both inflate apparent false positives during verification, exactly as
section 5.1.2 warns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Optional

if TYPE_CHECKING:
    from repro.io.truth import GroundTruth
    from repro.sim.network import Network

_CITIES = (
    "newyork", "london", "frankfurt", "tokyo", "denver",
    "chicago", "paris", "seattle", "dallas", "vienna",
)


@dataclass
class HostnameDataset:
    """Address → hostname, like CAIDA's IPv4 DNS names dataset."""

    names: Dict[int, str] = field(default_factory=dict)

    def hostname(self, address: int) -> Optional[str]:
        return self.names.get(address)

    def __len__(self) -> int:
        return len(self.names)

    def dump_lines(self) -> Iterable[str]:
        from repro.net.ipv4 import format_address

        for address in sorted(self.names):
            yield f"{format_address(address)}\t{self.names[address]}"

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "HostnameDataset":
        from repro.net.ipv4 import parse_address

        dataset = cls()
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            address_text, _, name = line.partition("\t")
            dataset.names[parse_address(address_text)] = name
        return dataset


def _peer_tag(network: Network, asn: int) -> str:
    """The short name an operator would use for a connected network."""
    node = network.as_graph.nodes.get(asn)
    return (node.name if node is not None else f"as{asn}").replace("_", "-")


def generate_hostnames(
    network: Network,
    ground_truth: GroundTruth,
    operator_asns: Iterable[int],
    seed: int = 0,
    coverage: float = 0.9,
    stale_probability: float = 0.02,
) -> HostnameDataset:
    """Synthesize hostnames for all interfaces of the given operators.

    Hostnames are generated for every interface on an operator's
    routers *and* for the far side of its inter-AS links (named by the
    neighbor's own convention), since the paper resolves both.
    """
    from repro.net.trie import PrefixTrie

    rng = random.Random(seed ^ 0xD45)
    dataset = HostnameDataset()
    operators = set(operator_asns)
    all_asns = sorted(network.as_graph.nodes)
    # Reverse DNS is delegated with the address space: whoever owns the
    # prefix names the interface, including the far side of its links.
    owner_trie = PrefixTrie()
    for prefix, asn in network.plan.all_prefixes():
        owner_trie.insert(prefix, asn)
    for address, (router_id, link_id) in sorted(network.address_owner.items()):
        space_owner = owner_trie.lookup_value(address)
        if space_owner not in operators:
            continue
        if rng.random() > coverage:
            continue
        operator = _peer_tag(network, space_owner)
        city = _CITIES[router_id % len(_CITIES)]
        border = ground_truth.border.get(address)
        if border is not None:
            # The tag names the link's other network from the space
            # owner's perspective.
            pair = border.pair()
            connected = pair[1] if pair[0] == space_owner else pair[0]
            if rng.random() < stale_probability:
                # Stale tag: the interface was re-purposed but the
                # hostname still names an old neighbor.
                connected = all_asns[(connected + 7) % len(all_asns)]
            peer = _peer_tag(network, connected)
            name = (
                f"{peer}-ic-{300000 + address % 90000}"
                f".edge{router_id % 9}.{city}.{operator}.net"
            )
        elif address in ground_truth.ixp:
            name = f"fabric-peering.{city}.{operator}.net"
        else:
            name = f"ae-{address % 60}-{address % 9}.ebr{router_id % 4}.{city}.{operator}.net"
        dataset.names[address] = name
    return dataset
