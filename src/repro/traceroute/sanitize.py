"""Trace sanitization (paper section 4.1).

Two steps, exactly as described:

1. *Remove* every hop whose ICMP response quoted TTL=0 — the signature
   of buggy routers that forward TTL=1 packets instead of replying,
   which manufactures false adjacencies.  The rest of the trace is
   retained, with the removed hop replaced by a gap (null hop) so the
   addresses around it are not made adjacent.
2. *Discard* any trace containing an interface cycle — the same address
   appearing twice separated by at least one other hop (including gaps)
   — the signature of per-packet load balancing or a transient routing
   change.  An address appearing twice in a row is not a cycle.

The paper reports discarding 2.7% of traces while retaining 89.1% of
distinct addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.traceroute.model import Hop, Trace


def strip_buggy_hops(trace: Trace) -> Trace:
    """Replace quoted-TTL=0 hops with gaps (step 1)."""
    if not any(hop.responded and hop.quoted_ttl == 0 for hop in trace.hops):
        return trace
    hops = tuple(
        Hop(None) if (hop.responded and hop.quoted_ttl == 0) else hop
        for hop in trace.hops
    )
    return trace.replace_hops(hops)


def first_cycle(addresses: Sequence[Optional[int]]) -> Optional[int]:
    """Return the address of the first interface cycle in a trace's hop
    addresses (``None`` for a gap), or None.

    A cycle is the same address appearing twice separated by at least
    one other hop position (responsive or not); immediate repetition of
    an address is tolerated, per Viger et al.'s definition used by the
    paper.  The one production cycle test: :func:`find_cycle` (so
    :func:`sanitize_traces`) and :class:`repro.perf.flat.GraphFold` call
    it.  O(hops).
    """
    last_position: Dict[int, int] = {}
    for position, address in enumerate(addresses):
        if address is None:
            continue
        previous = last_position.get(address)
        if previous is not None and position - previous > 1:
            return address
        last_position[address] = position
    return None


def find_cycle(trace: Trace) -> Optional[int]:
    """Return the address of *trace*'s first interface cycle, or None."""
    return first_cycle([hop.address for hop in trace.hops])


@dataclass
class SanitizeReport:
    """Outcome of sanitizing a dataset.

    ``traces`` are the retained, cleaned traces.  ``all_addresses``
    includes addresses from discarded traces too — section 4.2's
    other-side heuristic deliberately uses them.
    """

    traces: List[Trace] = field(default_factory=list)
    discarded: int = 0
    buggy_hops_removed: int = 0
    all_addresses: Set[int] = field(default_factory=set)
    retained_addresses: Set[int] = field(default_factory=set)

    @property
    def total(self) -> int:
        return len(self.traces) + self.discarded

    @property
    def discard_fraction(self) -> float:
        """Fraction of traces discarded (paper: 2.7%)."""
        return self.discarded / self.total if self.total else 0.0

    @property
    def address_retention(self) -> float:
        """Fraction of distinct addresses retained (paper: 89.1%)."""
        if not self.all_addresses:
            return 0.0
        return len(self.retained_addresses) / len(self.all_addresses)


def sanitize_traces(traces: Iterable[Trace]) -> SanitizeReport:
    """Apply both sanitization steps to a dataset."""
    report = SanitizeReport()
    for trace in traces:
        for hop in trace.hops:
            if hop.address is not None:
                report.all_addresses.add(hop.address)
        cleaned = strip_buggy_hops(trace)
        if cleaned is not trace:
            removed = sum(
                1
                for original, replaced in zip(trace.hops, cleaned.hops)
                if original.responded and not replaced.responded
            )
            report.buggy_hops_removed += removed
        if find_cycle(cleaned) is not None:
            report.discarded += 1
            continue
        report.traces.append(cleaned)
        for hop in cleaned.hops:
            if hop.address is not None:
                report.retained_addresses.add(hop.address)
    return report
