"""Neighbor-set extraction (paper section 4.3) and the interface graph.

For every interface address, the forward neighbor set N_F holds the
*unique* addresses seen exactly one hop after it across all sanitized
traces, and the backward neighbor set N_B the unique addresses one hop
before it.  Null (unresponsive) hops break adjacency — addresses
either side of a gap are *not* neighbors — and private/shared addresses
are excluded both as subjects and as members, since they are neither
globally routable nor unique.

Multiplicity is deliberately not recorded: an address appearing in a
thousand traces contributes one member, exactly as in Fig 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.graph.othersides import OtherSideTable, infer_other_sides
from repro.net.special import default_special_registry
from repro.obs.observer import NULL_OBS, Observability
from repro.traceroute.model import Trace
from repro.traceroute.sanitize import SanitizeReport, sanitize_traces

_EMPTY: FrozenSet[int] = frozenset()


@dataclass
class InterfaceGraph:
    """Per-interface neighbor sets plus other-side assignments.

    This is the complete input MAP-IT's passes operate on: N_F and N_B
    per address, and the /30-vs-/31 other-side table computed from every
    address observed anywhere in the dataset (section 4.2).
    """

    forward: Dict[int, Set[int]] = field(default_factory=dict)
    backward: Dict[int, Set[int]] = field(default_factory=dict)
    other_sides: Optional[OtherSideTable] = None

    def addresses(self) -> Set[int]:
        """Every address owning at least one neighbor set."""
        return set(self.forward) | set(self.backward)

    def n_forward(self, address: int) -> FrozenSet[int]:
        """N_F for *address* (empty when never seen with a successor)."""
        members = self.forward.get(address)
        return frozenset(members) if members else _EMPTY

    def n_backward(self, address: int) -> FrozenSet[int]:
        """N_B for *address* (empty when never seen with a predecessor)."""
        members = self.backward.get(address)
        return frozenset(members) if members else _EMPTY

    def neighbors(self, address: int, forward: bool) -> FrozenSet[int]:
        """The neighbor set for one half of *address*."""
        table = self.forward if forward else self.backward
        members = table.get(address)
        return frozenset(members) if members else _EMPTY

    def other_side(self, address: int) -> Optional[int]:
        """The inferred point-to-point partner of *address*."""
        if self.other_sides is None:
            return None
        return self.other_sides.other_side.get(address)

    def count_multi_neighbor(self) -> Dict[str, int]:
        """How many interfaces have |N_F| > 1 and |N_B| > 1 (section 4.3)."""
        return {
            "forward": sum(1 for members in self.forward.values() if len(members) > 1),
            "backward": sum(1 for members in self.backward.values() if len(members) > 1),
        }

    def overlap_fraction(self) -> float:
        """Fraction of interfaces with an address in both Ns.

        The paper's footnote reports 0.3%, caused by per-packet load
        balancing and outgoing-interface responses.
        """
        addresses = self.addresses()
        if not addresses:
            return 0.0
        overlapping = sum(
            1
            for address in addresses
            if self.forward.get(address)
            and self.backward.get(address)
            and self.forward[address] & self.backward[address]
        )
        return overlapping / len(addresses)


def accumulate_neighbors(
    traces: Iterable[Trace],
    forward: Dict[int, Set[int]],
    backward: Dict[int, Set[int]],
    seen: Set[int],
    is_special: Callable[[int], bool],
) -> None:
    """Fold *traces* into partial N_F/N_B tables and the seen-set.

    The object twin of :class:`repro.perf.flat.GraphFold`'s §4.3 fold:
    one adjacency contributes one member regardless of multiplicity, so
    partial tables built over disjoint trace shards merge into exactly
    the serial result by set union.  *seen* gains every address of
    *traces*, special ones too — over sanitized traces, exactly
    ``SanitizeReport.retained_addresses``.
    """
    for trace in traces:
        previous: Optional[int] = None
        for hop in trace.hops:
            address = hop.address
            if address is None:
                previous = None
                continue
            seen.add(address)
            if is_special(address):
                # Private/shared addresses neither own neighbor sets nor
                # appear inside them, but they still break adjacency: the
                # public addresses either side of one are not neighbors.
                previous = None
                continue
            if previous is not None:
                forward.setdefault(previous, set()).add(address)
                backward.setdefault(address, set()).add(previous)
            previous = address


def build_interface_graph(
    traces: Iterable[Trace],
    all_addresses: Optional[Iterable[int]] = None,
    obs: Observability = NULL_OBS,
) -> InterfaceGraph:
    """Build N_F/N_B from sanitized traces and assign other sides.

    *all_addresses*, when given, is the address universe for the
    other-side heuristic — the paper includes addresses from discarded
    traces there.  It defaults to the addresses seen in *traces*.
    """
    is_special = default_special_registry().is_special
    graph = InterfaceGraph()
    forward, backward = graph.forward, graph.backward
    seen: Set[int] = set()
    with obs.span("neighbor_sets"):
        accumulate_neighbors(traces, forward, backward, seen, is_special)
    universe = set(all_addresses) if all_addresses is not None else seen
    universe.update(seen)
    return finish_interface_graph(graph, seen, universe, is_special, obs)


def graph_from_traces(
    traces: Iterable[Trace], obs: Optional[Observability] = None
) -> Tuple[InterfaceGraph, SanitizeReport]:
    """Sanitize raw *traces* (section 4.1) and build their interface
    graph (sections 4.2–4.3); returns ``(graph, report)``.

    The one object path from an in-memory trace list to a graph.  The
    other-side universe is every address observed, discarded traces
    included (section 4.2), exactly as the fused file loader
    (:func:`repro.perf.ingest.stream_graph_from_file`) builds it.
    """
    obs = obs if obs is not None else NULL_OBS
    with obs.span("sanitize"):
        report = sanitize_traces(traces)
    graph = build_interface_graph(
        report.traces, all_addresses=report.all_addresses, obs=obs
    )
    return graph, report


def finish_interface_graph(
    graph: InterfaceGraph,
    seen: Set[int],
    universe: Set[int],
    is_special: Callable[[int], bool],
    obs: Observability = NULL_OBS,
) -> InterfaceGraph:
    """Assign other sides and emit the graph-built observability.

    Shared tail of graph construction: the serial builder and the
    sharded merge of :mod:`repro.perf.ingest` both end here, so the
    ``graph.built`` event and gauges are byte-identical however the
    neighbor tables were produced.  ``addresses`` counts the
    non-special members of *seen*.
    """
    with obs.span("other_sides"):
        graph.other_sides = infer_other_sides(
            address for address in universe if not is_special(address)
        )
    if obs.enabled:
        addresses = sum(1 for address in seen if not is_special(address))
        obs.event(
            "graph.built",
            addresses=addresses,
            forward_sets=len(graph.forward),
            backward_sets=len(graph.backward),
            universe=len(universe),
        )
        obs.gauge("graph.addresses", addresses)
        obs.gauge("graph.forward_sets", len(graph.forward))
        obs.gauge("graph.backward_sets", len(graph.backward))
    return graph
