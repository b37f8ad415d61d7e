"""Trace and hop data model.

A :class:`Trace` is the unit MAP-IT consumes: the ordered hops of one
traceroute from a monitor toward a destination.  Hops record the
responding interface address (``None`` for an unresponsive ``*`` hop)
and the TTL quoted in the ICMP time-exceeded payload, which the
sanitizer uses to drop buggy-router responses (quoted TTL of zero,
section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Tuple

from repro.net.ipv4 import format_address


class Hop(NamedTuple):
    """One traceroute hop.

    ``address`` is the responding interface as an int, or ``None`` when
    the hop timed out.  ``quoted_ttl`` is the TTL of the probe packet as
    quoted inside the ICMP response; well-behaved routers quote 1, and
    the buggy routers of section 4.1 (forwarding TTL=1 packets) appear
    as responses with quoted TTL 0 one hop late.  ``rtt_ms`` is kept for
    realism and dataset fidelity; the algorithm ignores it.

    A tuple in :data:`repro.traceroute.parse.HopTuple`'s field order, so
    a trace's hops fold with no per-hop conversion.
    """

    address: Optional[int]
    quoted_ttl: int = 1
    rtt_ms: float = 0.0

    @property
    def responded(self) -> bool:
        return self.address is not None

    def __str__(self) -> str:
        if self.address is None:
            return "*"
        return format_address(self.address)


@dataclass(frozen=True)
class Trace:
    """One traceroute: monitor, destination, and the hop sequence."""

    monitor: str
    dst: int
    hops: Tuple[Hop, ...]
    flow_id: int = 0

    def __len__(self) -> int:
        return len(self.hops)

    def __iter__(self) -> Iterator[Hop]:
        return iter(self.hops)

    def addresses(self) -> Iterator[int]:
        """Addresses of responsive hops, in order."""
        for hop in self.hops:
            if hop.address is not None:
                yield hop.address

    def replace_hops(self, hops: Tuple[Hop, ...]) -> "Trace":
        """A copy of this trace with different hops."""
        return Trace(self.monitor, self.dst, hops, self.flow_id)

    def __str__(self) -> str:
        path = " ".join(str(hop) for hop in self.hops)
        return f"{self.monitor} -> {format_address(self.dst)}: {path}"
