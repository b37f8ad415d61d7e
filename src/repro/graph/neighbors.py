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
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, Iterable, Optional, Set

from repro.graph.othersides import OtherSideTable, infer_other_sides
from repro.obs.observer import NULL_OBS, Observability
from repro.traceroute.model import Trace
from repro.traceroute.parse import trace_record

if TYPE_CHECKING:
    from repro.perf.flat import GraphFold

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


def fold_traces(traces: Iterable[Trace]) -> GraphFold:
    """§4.1 sanitizing and the §4.3 fold over an in-memory trace list:
    one :class:`~repro.perf.flat.GraphFold` over the traces' own hops,
    the kernel every other graph source folds through."""
    from repro.perf.flat import GraphFold

    fold = GraphFold()
    fold.fold_all(map(trace_record, traces))
    return fold


def accumulate_neighbors(
    traces: Iterable[Trace],
    forward: Dict[int, Set[int]],
    backward: Dict[int, Set[int]],
    seen: Set[int],
    is_special: Callable[[int], bool],
) -> None:
    """Fold *traces* into partial N_F/N_B tables and the seen-set: the
    fold of :func:`fold_traces`, into a ``GraphFold`` whose tables,
    seen-set and special test are the caller's.  §4.1 applies, which
    changes nothing on sanitized traces; *seen* gains every address of
    a retained trace, special ones too."""
    from repro.perf.flat import GraphFold

    fold = GraphFold()
    fold.forward, fold.backward, fold.seen = forward, backward, seen
    fold.is_special = is_special
    fold.fold_all(map(trace_record, traces))


def build_interface_graph(
    traces: Iterable[Trace],
    all_addresses: Optional[Iterable[int]] = None,
    obs: Observability = NULL_OBS,
) -> InterfaceGraph:
    """Sanitize *traces* (§4.1), build N_F/N_B (§4.3) and assign other
    sides (§4.2): :func:`fold_traces`, then ``GraphFold.finish``.

    The other-side universe is every address observed, discarded
    traces included, as the fused file loader builds it;
    *all_addresses*, when given, joins it.
    """
    fold = fold_traces(traces)
    if all_addresses is not None:
        fold.universe.update(all_addresses)
    return fold.finish(obs, 1, 0)


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
