"""Ground truth and its serialization.

The simulator's truth (:mod:`repro.sim.groundtruth`) is persisted so
saved datasets remain evaluable: one line per interface,
``border|addr|router_as|connected_as|other|owner``,
``internal|addr|router_as`` or ``ixp|addr|member_as``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.io.atomic import atomic_write_lines
from repro.net.ipv4 import format_address, parse_address


@dataclass(frozen=True)
class BorderInterface:
    """One interface on an inter-AS point-to-point link."""

    address: int
    #: AS of the router holding this interface
    router_as: int
    #: AS on the far side of the link
    connected_as: int
    #: the far interface's address
    other_address: int
    #: AS whose space numbers the link
    owner_as: int

    def pair(self) -> Tuple[int, int]:
        low, high = sorted((self.router_as, self.connected_as))
        return (low, high)


@dataclass
class GroundTruth:
    """Queryable truth about every interface in the network."""

    border: Dict[int, BorderInterface] = field(default_factory=dict)
    internal: Set[int] = field(default_factory=set)
    ixp: Dict[int, int] = field(default_factory=dict)  # address -> member AS
    #: AS of the router holding each address
    router_as: Dict[int, int] = field(default_factory=dict)

    def is_inter_as(self, address: int) -> bool:
        """True when *address* sits on a point-to-point inter-AS link."""
        return address in self.border

    def is_internal(self, address: int) -> bool:
        return address in self.internal

    def connected_pair(self, address: int) -> Optional[Tuple[int, int]]:
        """The unordered AS pair of the link at *address*, or None."""
        interface = self.border.get(address)
        return interface.pair() if interface is not None else None

    def interfaces_involving(self, asn: int) -> List[BorderInterface]:
        """All border interfaces on links with *asn* as an endpoint."""
        return [
            interface
            for interface in self.border.values()
            if asn in (interface.router_as, interface.connected_as)
        ]

    def counts(self) -> Dict[str, int]:
        return {
            "border_interfaces": len(self.border),
            "internal_interfaces": len(self.internal),
            "ixp_interfaces": len(self.ixp),
        }


def ground_truth_lines(truth: GroundTruth) -> Iterator[str]:
    """Serialize *truth* line by line."""
    for address in sorted(truth.border):
        interface = truth.border[address]
        yield (
            f"border|{format_address(interface.address)}"
            f"|{interface.router_as}|{interface.connected_as}"
            f"|{format_address(interface.other_address)}|{interface.owner_as}"
        )
    for address in sorted(truth.internal):
        router_as = truth.router_as.get(address, 0)
        yield f"internal|{format_address(address)}|{router_as}"
    for address in sorted(truth.ixp):
        yield f"ixp|{format_address(address)}|{truth.ixp[address]}"


def parse_ground_truth(lines: Iterable[str]) -> GroundTruth:
    """Parse the format produced by :func:`ground_truth_lines`."""
    truth = GroundTruth()
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        kind, rest = line.split("|", 1)
        fields = rest.split("|")
        if kind == "border":
            address = parse_address(fields[0])
            interface = BorderInterface(
                address=address,
                router_as=int(fields[1]),
                connected_as=int(fields[2]),
                other_address=parse_address(fields[3]),
                owner_as=int(fields[4]),
            )
            truth.border[address] = interface
            truth.router_as[address] = interface.router_as
        elif kind == "internal":
            address = parse_address(fields[0])
            truth.internal.add(address)
            truth.router_as[address] = int(fields[1])
        elif kind == "ixp":
            address = parse_address(fields[0])
            truth.ixp[address] = int(fields[1])
            truth.router_as[address] = int(fields[1])
        else:
            raise ValueError(f"unknown ground-truth record kind {kind!r}")
    return truth


def save_ground_truth(truth: GroundTruth, path: Path) -> str:
    """Write *truth* to *path* atomically; returns the content sha256."""
    return atomic_write_lines(path, ground_truth_lines(truth))


def load_ground_truth(path: Path) -> GroundTruth:
    """Read ground truth from *path*."""
    with open(path) as handle:
        return parse_ground_truth(handle)
