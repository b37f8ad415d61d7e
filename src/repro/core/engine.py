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

from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
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
        # Answers that read only the engine's datasets, which no run
        # changes: sibling-canonical ASes and IXP addresses.
        self._canonical: Dict[int, int] = {}
        self._ixp: Dict[int, bool] = {}
        # The tally cache (docs/SERVE.md): per half, the
        # :meth:`count_plurality` outcome under the snapshot ``_synced``,
        # the ``state.visible`` dict it was last synced to, and the open
        # candidates: the ones not settled, where a settled candidate
        # cannot fire under its tally and its own mapping in that
        # snapshot (None: every candidate is open).
        self._tallies: Tallies = {}
        self._open: Optional[Set[Half]] = None
        self._synced: Dict[Half, int] = {}
        # Kept by :meth:`restart`: the empty snapshot's tallies and
        # open set between runs, and the rolling cache, parked with
        # its snapshot while a run's first pass reads the start cache.
        self._start: Optional[Tuple[Tallies, Optional[Set[Half]]]] = None
        self._parked: Optional[Tuple[Tallies, Optional[Set[Half]], Dict[Half, int]]] = None
        # Alg 2's iteration set and Alg 4's, kept as the graph grows.
        self._candidate_set: Optional[Set[Half]] = None
        self._stub_addresses: Optional[List[int]] = None
        self._stub_pairs: Dict[int, Optional[Tuple[int, int]]] = {}

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
        asn = self.state.visible.get(half)
        return self.original_asn(half[0]) if asn is None else asn

    def canonical(self, asn: int) -> int:
        """Organization identity (section 4.4.1 sibling merging);
        sentinels map to themselves."""
        canonical = self._canonical.get(asn)
        if canonical is None:
            canonical = self._canonical[asn] = asn if asn <= 0 else self.org.canonical(asn)
        return canonical

    def is_ixp(self, address: int) -> bool:
        """Whether *address* is on a known IXP LAN (§4.4.2 skips it)."""
        ixp = self._ixp.get(address)
        if ixp is None:
            ixp = self._ixp[address] = self.ip2as.is_ixp(address)
        return ixp


    # -- the tally cache (docs/SERVE.md) --------------------------------------

    def reset_caches(self) -> None:
        """Drop every cached tally, settled mark and start tally, and
        the candidate set and stub list.

        Used after wholesale graph replacement (checkpoint restore):
        the next run recounts from the live tables, exactly like a
        fresh engine.
        """
        self._tallies = {}
        self._open = None
        self._start = self._parked = None
        self._candidate_set = None
        self._stub_addresses = None
        self._stub_pairs = {}

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
            self._parked = (self._tallies, self._open, self._synced)
            self._tallies, self._open = self._start or ({}, None)
            self._start = None
            self._synced = self.state.visible

    def invalidate_halves(self, halves: Iterable[Half]) -> int:
        """Mark *halves* structurally dirty: their neighbor sets grew
        (serve folds only ever add members), so their cached tallies,
        start tallies included, are void, they are no longer settled,
        a half may have become a candidate, and a forward half may have
        joined or left the single-member list.  Returns how many halves
        had a cached tally dropped.
        """
        caches = [(self._tallies, self._open)]
        if self._start is not None:
            caches.append(self._start)
        if self._parked is not None:
            caches.append(self._parked[:2])
        graph = self.graph
        minimum = self.config.min_neighbors
        dropped = 0
        for half in halves:
            address, forward = half
            size = len((graph.forward if forward else graph.backward).get(address, ()))
            candidate = self._candidate_set is not None and size >= minimum
            if candidate:
                self._candidate_set.add(half)
            held = False
            for tallies, opened in caches:
                if half in tallies:
                    del tallies[half]
                    held = True
                if candidate and opened is not None:
                    opened.add(half)
            dropped += held
            if forward and self._stub_addresses is not None:
                singles = self._stub_addresses
                at = bisect_left(singles, address)
                listed = at < len(singles) and singles[at] == address
                if size == 1 and not listed:
                    singles.insert(at, address)
                elif size != 1 and listed:
                    del singles[at]
        return dropped

    def _sync_tallies(self, visible: Dict[Half, int]) -> None:
        """Adopt *visible* as the snapshot cached tallies answer for.

        The tally of ``(a, d)`` reads the mapping of ``(n, not d)`` for
        each ``n`` in ``N_d(a)``; by neighbor-set symmetry, a changed
        mapping on ``(n, e)`` therefore voids exactly the tallies of
        ``(a, not e)`` for ``a`` in ``N_e(n)``.  A half's own mapping
        is not part of its own tally.  The changed halves are the ones
        the state's refresh patched when the cache answers for the
        snapshot that refresh started from; otherwise both snapshots
        are walked, so a half that gained or lost an entry counts as
        changed.  A settled half stays settled (out of the open set)
        while its tally and its own mapping stand, and a direct stays
        held (its remove test passed) while its tally stands.

        The first non-empty snapshot after :meth:`restart` swaps the
        parked rolling cache back in and diffs against its snapshot.
        """
        state = self.state
        previous = self._synced
        if visible and self._parked is not None:
            self._start = (self._tallies, self._open)
            self._tallies, self._open, previous = self._parked
            self._parked = None
        if previous is state.visible_base and visible is state.visible:
            changed = state.visible_changed
        else:
            changed = [half for half, asn in visible.items() if previous.get(half) != asn]
            changed += [half for half in previous if half not in visible]
        graph = self.graph
        voided: List[Half] = []
        for address, direction in changed:
            table = graph.forward if direction else graph.backward
            voided.extend(zip(table.get(address, ()), repeat(not direction)))
        if self._open is not None:
            candidates = self._candidate_set
            self._open.update(candidates.intersection(changed))
            self._open.update(candidates.intersection(voided))
        state.held.difference_update(voided)
        pop = self._tallies.pop
        for key in voided:
            pop(key, None)
        self._synced = visible

    def sync(self) -> None:
        """Bring the tally cache up to the current snapshot."""
        visible = self.state.visible
        if visible is not self._synced:
            self._sync_tallies(visible)

    def settle(self, half: Half) -> None:
        """Mark a candidate that cannot fire under the current snapshot
        (no plurality, a winner failing f, or a winner that is the
        half's own sibling-merged AS): the direct pass leaves it out
        until its tally or its own mapping changes."""
        self._open.discard(half)

    # -- candidates -----------------------------------------------------------

    def candidate_set(self) -> Set[Half]:
        """Halves eligible for direct inference: |N| >= min_neighbors
        (Alg 2 line 1's iteration set; the paper requires at least 2).

        Computed once per engine — the graph is static during a run —
        and maintained by :meth:`invalidate_halves` when serve grows
        it: eligibility is monotone because folds only add members.
        """
        if self._candidate_set is None:
            minimum = self.config.min_neighbors
            graph = self.graph
            self._candidate_set = {
                (address, FORWARD)
                for address, members in graph.forward.items()
                if len(members) >= minimum
            }
            self._candidate_set.update(
                (address, BACKWARD)
                for address, members in graph.backward.items()
                if len(members) >= minimum
            )
        return self._candidate_set

    def candidate_halves(self) -> List[Half]:
        """:meth:`candidate_set`, sorted."""
        return sorted(self.candidate_set())

    def open_candidates(self) -> List[Half]:
        """The candidates a direct pass judges, sorted: none settled,
        none holding a direct inference, none inferred this add step
        (the three reasons Alg 2 skips a half; the order does not change
        the results, section 4.4.5, but reproducible diagnostics need
        one)."""
        self.sync()
        if self._open is None:
            self._open = set(self.candidate_set())
        state = self.state
        return sorted(self._open.difference(state.direct, state.inferred_this_step))

    def stub_addresses(self) -> List[int]:
        """The addresses whose forward neighbor set has one member,
        sorted (Alg 4's iteration set, §4.8), kept like the candidates
        as the graph grows."""
        if self._stub_addresses is None:
            self._stub_addresses = sorted(
                address
                for address, members in self.graph.forward.items()
                if len(members) == 1
            )
        return self._stub_addresses

    def stub_pair(self, address: int) -> Optional[Tuple[int, int]]:
        """Alg 4's tests on the ASes of a single-member forward address
        (§4.8): its own original AS and its one neighbor's, when both
        are real ASes of different organizations and the neighbor's is
        a stub the relationship data knows (an AS absent from it cannot
        be positively identified as a stub; inferring against it would
        fire on every low-visibility ISP as well), else None.

        Alg 4 acts only where neither half carries an inference, so
        the mappings are the original ones, and the one neighbor stays
        while the set has one member: answered once per address.
        """
        try:
            return self._stub_pairs[address]
        except KeyError:
            pass
        (neighbor,) = self.graph.forward[address]
        own_as, neighbor_as = self.original_asn(address), self.original_asn(neighbor)
        pair = None
        if (
            own_as > 0
            and neighbor_as > 0
            and self.canonical(own_as) != self.canonical(neighbor_as)
            and self.rel.is_stub(neighbor_as, self.org)
            and self.rel.knows(neighbor_as)
        ):
            pair = (own_as, neighbor_as)
        self._stub_pairs[address] = pair
        return pair

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
        # the recount loop: half_asn and canonical, inlined on their caches
        visible = self.state.visible
        origins = self._origin_cache
        canonicals = self._canonical
        for neighbor in neighbors:
            asn = visible.get((neighbor, neighbor_direction))
            if asn is None:
                asn = origins.get(neighbor)
                if asn is None:
                    asn = self.original_asn(neighbor)
            group = canonicals.get(asn)
            if group is None:
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
