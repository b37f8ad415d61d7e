"""Shared machinery for the add, remove, and stub passes.

The :class:`Engine` binds together the interface graph, the original
IP-to-AS mapper, sibling data, relationships, the config, and the
mutable state, and implements the neighbor-set AS counting that every
pass relies on (Alg 2 lines 2–3), caching each count until its inputs
change.

Counting rules, from the paper:

* a neighbor of the half ``(a, forward)`` is the *backward* half of
  each member of N_F(a), and vice versa (Fig 3) — mappings are per
  half, so the direction matters;
* sibling ASes count as one AS (section 4.4.1); when a sibling group
  wins, the recorded connected AS is the group's most frequent member;
* unannounced addresses (and IXP/private markers) are not inferable
  ASes, but they do occupy the denominator and compete for the
  plurality — a neighbor set made "primarily of unannounced addresses"
  must not yield an inference (section 5.4).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.bgp.ip2as import IP2AS
from repro.core.config import MapItConfig
from repro.core.state import MapItState
from repro.graph.halves import BACKWARD, FORWARD, Half
from repro.graph.neighbors import InterfaceGraph
from repro.obs.observer import NULL_OBS, Observability
from repro.org.as2org import AS2Org
from repro.rel.relationships import RelationshipDataset


def most_frequent_member(members: Dict[int, int], default: int) -> int:
    """The most frequent AS in a member tally, lowest ASN on ties.

    Section 4.4.1: when a sibling group wins a count, the recorded
    connected AS is the group's most frequent member.  Both the add
    step's plurality and the remove step's dominance tally go through
    this one helper so the two passes can never disagree about which
    member AS a sibling group stands for.
    """
    if not members:
        return default
    top = max(members.values())
    return min(asn for asn, count in members.items() if count == top)


@dataclass(frozen=True)
class Plurality:
    """Outcome of counting a neighbor set (the Alg 2 line 3–5 tally).

    ``canonical_as`` is the winning organization's representative;
    ``member_as`` the most frequent actual AS inside it; ``count`` its
    tally; ``total`` the neighbor-set size (the f denominator).
    """

    canonical_as: int
    member_as: int
    count: int
    total: int

    def satisfies_f(self, f: float) -> bool:
        """Alg 2 line 3: COUNT(AS_N) >= COUNT(neighbors) * f."""
        return self.count >= self.total * f

    def is_majority(self) -> bool:
        """Section 4.5's remove test: more than half of N."""
        return 2 * self.count > self.total


#: a tally cache: per half, its :meth:`Engine.count_plurality` outcome
Tallies = Dict[Half, Optional[Plurality]]


class Engine:
    """Bound context for one MAP-IT run (the state Alg 1 threads
    through its add/remove steps): the interface graph, the IP2AS /
    sibling / relationship datasets, the config, and the mutable
    :class:`~repro.core.state.MapItState`."""

    def __init__(
        self,
        graph: InterfaceGraph,
        ip2as: IP2AS,
        org: Optional[AS2Org] = None,
        rel: Optional[RelationshipDataset] = None,
        config: Optional[MapItConfig] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.graph = graph
        self.ip2as = ip2as
        self.org = org or AS2Org()
        self.rel = rel or RelationshipDataset()
        self.config = config or MapItConfig()
        self.obs = obs if obs is not None else NULL_OBS
        self.state = MapItState()
        self._origin_cache: Dict[int, int] = {}
        # The tally cache (docs/SERVE.md): per half, the
        # :meth:`count_plurality` outcome under the snapshot ``_synced``,
        # the ``state.visible`` dict it was last synced to, and the
        # settled candidates, which cannot fire under that tally and
        # their own mapping in that snapshot.
        self._tallies: Tallies = {}
        self._settled: Set[Half] = set()
        self._synced: Dict[Half, int] = {}
        # Kept by :meth:`restart`: the empty snapshot's tallies and
        # settled set between runs, and the rolling cache, parked with
        # its snapshot while a run's first pass reads the start cache.
        self._start: Optional[Tuple[Tallies, Set[Half]]] = None
        self._parked: Optional[Tuple[Tallies, Set[Half], Dict[Half, int]]] = None
        self._candidate_list: Optional[List[Half]] = None
        self._candidate_set: Set[Half] = set()

    # -- mappings -----------------------------------------------------------

    def original_asn(self, address: int) -> int:
        """BGP-derived origin for *address* (cached; Alg 1 input IP2AS)."""
        asn = self._origin_cache.get(address)
        if asn is None:
            asn = self.ip2as.asn(address)
            self._origin_cache[address] = asn
        return asn

    def prime_origins(self, addresses) -> int:
        """Warm the origin cache with one batched LPM pass, instead of
        faulting lookups in one neighbor at a time mid-pass.

        Any order will do: each lookup is one bisect, and nothing reads
        the cache's insertion order.  Purely a cache warm: each entry
        is exactly what :meth:`original_asn` would compute on demand.
        Returns how many addresses were resolved.
        """
        cache = self._origin_cache
        asn = self.ip2as.asn
        warmed = 0
        for address in addresses:
            if address not in cache:
                cache[address] = asn(address)
                warmed += 1
        return warmed

    def half_asn(self, half: Half) -> int:
        """Current (snapshot) mapping of *half* (section 4.4.1's per-half
        IP2AS view: direct inference, else indirect, else BGP origin)."""
        return self.state.visible_asn(half, self.original_asn(half[0]))

    def canonical(self, asn: int) -> int:
        """Organization identity (section 4.4.1 sibling merging);
        sentinels map to themselves."""
        if asn <= 0:
            return asn
        return self.org.canonical(asn)

    # -- the tally cache (docs/SERVE.md) --------------------------------------

    def reset_caches(self) -> None:
        """Drop every cached tally, settled half and start tally, and
        the candidate list.

        Used after wholesale graph replacement (checkpoint restore):
        the next run recounts from the live tables, exactly like a
        fresh engine.
        """
        self._tallies = {}
        self._settled = set()
        self._start = self._parked = None
        self._candidate_list = None
        self._candidate_set = set()

    def restart(self) -> None:
        """Begin a new run from an empty state, keeping the start tallies.

        Every run's first pass reads the empty snapshot, whose tallies
        read only original mappings, so they change only where a fold
        grew a neighbor set (:meth:`invalidate_halves`).  The first
        pass reads the start cache while the rolling cache is parked;
        the next snapshot resumes the rolling cache from the snapshot
        it answers for and keeps the start cache for the next restart.
        """
        self.state = MapItState()
        if self._parked is None:
            self._parked = (self._tallies, self._settled, self._synced)
            self._tallies, self._settled = self._start or ({}, set())
            self._start = None
            self._synced = self.state.visible

    def invalidate_halves(self, halves: Iterable[Half]) -> int:
        """Mark *halves* structurally dirty: their neighbor sets grew
        (serve folds only ever add members), so their cached tallies,
        start tallies included, are void, they are no longer settled,
        and a half may have become a candidate.  Returns how many halves
        had a cached tally dropped.
        """
        caches = [(self._tallies, self._settled)]
        if self._start is not None:
            caches.append(self._start)
        if self._parked is not None:
            caches.append(self._parked[:2])
        graph = self.graph
        minimum = self.config.min_neighbors
        dropped = 0
        for half in halves:
            held = False
            for tallies, settled in caches:
                if half in tallies:
                    del tallies[half]
                    held = True
                settled.discard(half)
            dropped += held
            if self._candidate_list is None or half in self._candidate_set:
                continue
            table = graph.forward if half[1] else graph.backward
            if len(table.get(half[0], ())) >= minimum:
                self._candidate_set.add(half)
                insort(self._candidate_list, half)
        return dropped

    def _sync_tallies(self, visible: Dict[Half, int]) -> None:
        """Adopt *visible* as the snapshot cached tallies answer for.

        The tally of ``(a, d)`` reads the mapping of ``(n, not d)`` for
        each ``n`` in ``N_d(a)``; by neighbor-set symmetry, a changed
        mapping on ``(n, e)`` therefore voids exactly the tallies of
        ``(a, not e)`` for ``a`` in ``N_e(n)``.  A half's own mapping
        is not part of its own tally.  Both snapshots are walked, so a
        half that gained or lost an entry counts as changed.  A settled
        half stays settled while its tally and its own mapping stand.

        The first non-empty snapshot after :meth:`restart` swaps the
        parked rolling cache back in and diffs against its snapshot.
        """
        previous = self._synced
        if visible and self._parked is not None:
            self._start = (self._tallies, self._settled)
            self._tallies, self._settled, previous = self._parked
            self._parked = None
        changed = [half for half, asn in visible.items() if previous.get(half) != asn]
        changed += [half for half in previous if half not in visible]
        tallies = self._tallies
        settled = self._settled
        graph = self.graph
        for half in changed:
            settled.discard(half)
            address, direction = half
            table = graph.forward if direction else graph.backward
            dependent = not direction
            for neighbor in table.get(address, ()):
                key = (neighbor, dependent)
                tallies.pop(key, None)
                settled.discard(key)
        self._synced = visible

    def settled(self) -> Set[Half]:
        """The candidates that cannot fire under the current snapshot:
        no plurality, a winner failing f, or a winner that is the half's
        own sibling-merged AS.  The direct pass skips them and adds each
        half it finds cannot fire."""
        visible = self.state.visible
        if visible is not self._synced:
            self._sync_tallies(visible)
        return self._settled

    # -- candidates -----------------------------------------------------------

    def candidate_halves(self) -> List[Half]:
        """Halves eligible for direct inference: |N| >= min_neighbors
        (Alg 2 line 1's iteration set; the paper requires at least 2).

        Sorted for determinism; the algorithm's results do not depend
        on the order (section 4.4.5) but reproducible diagnostics do.
        Computed once per engine — the graph is static during a run —
        and maintained by :meth:`invalidate_halves` when serve grows
        it: eligibility is monotone because folds only add members.
        """
        if self._candidate_list is not None:
            return self._candidate_list
        minimum = self.config.min_neighbors
        halves: List[Half] = []
        for address, members in self.graph.forward.items():
            if len(members) >= minimum:
                halves.append((address, FORWARD))
        for address, members in self.graph.backward.items():
            if len(members) >= minimum:
                halves.append((address, BACKWARD))
        halves.sort()
        self._candidate_list = halves
        self._candidate_set = set(halves)
        return halves

    # -- counting -----------------------------------------------------------

    def count_groups(self, half: Half) -> Tuple[Dict[int, int], Dict[int, Dict[int, int]], int]:
        """Tally the neighbor set of *half* by organization (Alg 2
        line 2's COUNT, with section 4.4.1 sibling merging).

        Returns ``(group_counts, member_counts, total)`` where group
        keys are canonical ASes (or non-positive sentinels) and
        ``member_counts[group]`` tallies actual ASes inside it.
        """
        address, forward = half
        table = self.graph.forward if forward else self.graph.backward
        neighbors = table.get(address, ())
        neighbor_direction = not forward
        group_counts: Dict[int, int] = {}
        member_counts: Dict[int, Dict[int, int]] = {}
        for neighbor in neighbors:
            asn = self.half_asn((neighbor, neighbor_direction))
            group = self.canonical(asn)
            group_counts[group] = group_counts.get(group, 0) + 1
            members = member_counts.setdefault(group, {})
            members[asn] = members.get(asn, 0) + 1
        return group_counts, member_counts, len(neighbors)

    def plurality(self, half: Half) -> Optional[Plurality]:
        """:meth:`count_plurality` of *half* under the current snapshot,
        recounted only when the tally cache lost it (the one entry point
        both passes read)."""
        visible = self.state.visible
        if visible is not self._synced:
            self._sync_tallies(visible)
        try:
            return self._tallies[half]
        except KeyError:
            outcome = self._tallies[half] = self.count_plurality(half)
            return outcome

    def count_plurality(self, half: Half) -> Optional[Plurality]:
        """The AS appearing strictly more than all others in N(half)
        (Alg 2 line 2's AS_N; the f test of line 3 is applied by the
        caller via :meth:`Plurality.satisfies_f`).

        Returns None when the set is empty, when no real AS (positive
        number) wins, or when the top count is tied.
        """
        group_counts, member_counts, total = self.count_groups(half)
        if not group_counts:
            return None
        best_group = None
        best_count = 0
        tied = False
        for group, count in group_counts.items():
            if count > best_count:
                best_group, best_count, tied = group, count, False
            elif count == best_count:
                tied = True
        if tied or best_group is None or best_group <= 0:
            return None
        member_as = most_frequent_member(member_counts[best_group], best_group)
        return Plurality(best_group, member_as, best_count, total)

    def dominance(self, half: Half, canonical_as: int) -> Plurality:
        """Tally for a *specific* organization in N(half) — the remove
        step's section 4.5 dominance test (Alg 3 line 4)."""
        group_counts, member_counts, total = self.count_groups(half)
        count = group_counts.get(canonical_as, 0)
        member_as = most_frequent_member(
            member_counts.get(canonical_as, {}), canonical_as
        )
        return Plurality(canonical_as, member_as, count, total)

    # -- other sides ---------------------------------------------------------

    def other_side_half(self, half: Half) -> Optional[Half]:
        """The link partner of *half*: other address, opposite direction
        (section 4.2's /30-vs-/31 other-side judgement)."""
        other = self.graph.other_side(half[0])
        if other is None:
            return None
        return (other, not half[1])
