"""MAP-IT Algorithms 1–4, restated slowly and literally from the paper.

Every mechanism below is written straight from the paper's section 4
(and, where the prose is ambiguous, the documented interpretation in
docs/ALGORITHM.md §8) using plain dictionaries and loops:

* **Alg 2 (direct inferences)** — per pass, for every half with enough
  neighbors, tally the opposite halves of its neighbor set by
  organization; a strict plurality of a real AS that covers ``f·|N|``
  and differs from the half's current mapping becomes an inference.
* **§4.4.2 (indirect inferences)** — the other side of each new direct
  inference is mapped to the same AS (skipped on IXP LANs).
* **§4.4.3 (contradictions)** — dual inferences drop the backward
  half; divergent other sides detach the two cross-imposed indirect
  updates.
* **§4.4.4 (adjacent inverse inferences)** — remove the backward
  inference, or flag every conflicting inference uncertain when the
  backward half's link other side also carries a direct inference.
* **Alg 3 (remove step)** — demote direct inferences whose connected
  AS no longer dominates, sweep unsupported indirects.
* **§4.6 (convergence)** — stop when the exact inference state
  repeats at the end of a remove step.
* **Alg 4 (stub heuristic)** — single-neighbor forward halves next to
  known stub ASes.

No caching, no observability, no shared code with :mod:`repro.core` —
the two implementations may only agree because the algorithm agrees.
Determinism comes from sorting every iteration domain outright.

Every state change is appended to a ``journal`` (iteration, pass,
rule, half, tally), which the differential harness prints when the
production engine disagrees; the fixes' counters are counted from it
(:meth:`OracleResult.fix_counters`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

#: A half is ``(address, direction)``; directions match the paper's
#: ``_f`` / ``_b`` rendering.  Redeclared here rather than imported so
#: the oracle compiles against nothing but the input objects.
FORWARD = True
BACKWARD = False

Half = Tuple[int, bool]

REMOVE_MAJORITY = "majority"
REMOVE_ADD_RULE = "add_rule"


@dataclass(frozen=True)
class OracleConfig:
    """The paper's knobs, restated (mirrors the semantics the
    production config documents, without importing it)."""

    f: float = 0.5
    min_neighbors: int = 2
    remove_rule: str = REMOVE_MAJORITY
    max_iterations: int = 20
    enable_stub_heuristic: bool = True
    fix_dual_inferences: bool = True
    fix_divergent_other_sides: bool = True
    fix_inverse_inferences: bool = True
    enable_remove_step: bool = True


@dataclass
class _Direct:
    """A live direct inference (Alg 2 / Alg 4)."""

    local_as: int
    remote_as: int
    uncertain: bool = False
    via_stub: bool = False


@dataclass
class _Indirect:
    """A live indirect inference (§4.4.2), tied to its supporting
    direct inference's half."""

    local_as: int
    remote_as: int
    source: Half
    detached: bool = False


@dataclass(frozen=True)
class OracleRecord:
    """One final inference, in a shape the harness can compare."""

    address: int
    forward: bool
    local_as: int
    remote_as: int
    kind: str  # "direct" | "indirect" | "stub"
    uncertain: bool

    @property
    def half(self) -> Half:
        return (self.address, self.forward)


@dataclass
class OracleResult:
    """Everything an oracle run produced."""

    confident: List[OracleRecord]
    uncertain: List[OracleRecord]
    iterations: int
    converged: bool
    journal: List[dict] = field(default_factory=list)
    #: the final per-half mapping snapshot (§4.4.5), for reporting
    final_visible: Dict[Half, int] = field(default_factory=dict)
    #: same-AS dual pairs the dual fix kept, summed over its passes
    dual_same_as: int = 0

    def by_half(self) -> Dict[Half, OracleRecord]:
        """Final inferences keyed by half (confident and uncertain)."""
        table: Dict[Half, OracleRecord] = {}
        for record in self.confident + self.uncertain:
            table[record.half] = record
        return table

    def fix_counters(self) -> Dict[str, int]:
        """The §4.4.3–§4.4.4 fixes' counters, as production names them:
        backward halves the dual fix dropped, same-AS dual pairs, links
        whose indirects were detached (one per link and pass, whichever
        of its two indirects went), backward halves the inverse fix
        removed, and forward halves it flagged uncertain."""
        rules = Counter(entry["rule"] for entry in self.journal)
        links = {
            (
                entry["iteration"],
                entry["pass"],
                frozenset(
                    ((entry["address"], entry["forward"]), (entry["source"], not entry["forward"]))
                ),
            )
            for entry in self.journal
            if entry["rule"] == "detach"
        }
        pairs = sum(
            1 for entry in self.journal if entry["rule"] == "uncertain" and entry["forward"]
        )
        return {
            "dual_resolved": rules["dual"],
            "dual_same_as": self.dual_same_as,
            "divergent_other_sides": len(links),
            "inverse_removed": rules["inverse_removed"],
            "uncertain_pairs": pairs,
        }

    def journal_for(self, half: Half) -> List[dict]:
        """Every journal entry that touched *half*."""
        return [
            entry
            for entry in self.journal
            if entry.get("address") == half[0] and entry.get("forward") == half[1]
        ]


class _OracleRun:
    """One execution of the literal algorithm over one input world."""

    def __init__(self, graph, ip2as, org, rel, config: OracleConfig) -> None:
        self.graph = graph
        self.ip2as = ip2as
        self.org = org
        self.rel = rel
        self.config = config
        self.direct: Dict[Half, _Direct] = {}
        self.indirect: Dict[Half, _Indirect] = {}
        self.inferred_this_step: set = set()
        self.visible: Dict[Half, int] = {}
        self.uncertain_log: Dict[Half, _Direct] = {}
        self.journal: List[dict] = []
        self.dual_same_as = 0
        self.iteration = 0
        self.pass_number = 0

    # -- journal ----------------------------------------------------------

    def note(self, rule: str, half: Half, **detail) -> None:
        entry = {
            "iteration": self.iteration,
            "pass": self.pass_number,
            "rule": rule,
            "address": half[0],
            "forward": half[1],
        }
        entry.update(detail)
        self.journal.append(entry)

    # -- mappings (§4.4.1: per half, snapshot per pass) -------------------

    def original_asn(self, address: int) -> int:
        return self.ip2as.asn(address)

    def half_asn(self, half: Half) -> int:
        if half in self.visible:
            return self.visible[half]
        return self.original_asn(half[0])

    def canonical(self, asn: int) -> int:
        if asn <= 0:
            return asn
        return self.org.canonical(asn)

    def refresh_visible(self) -> None:
        """Take the snapshot the next pass reads (§4.4.5): direct
        inferences override indirect ones; detached indirects
        contribute nothing."""
        visible: Dict[Half, int] = {}
        for half in sorted(self.indirect):
            if not self.indirect[half].detached:
                visible[half] = self.indirect[half].remote_as
        for half in sorted(self.direct):
            visible[half] = self.direct[half].remote_as
        self.visible = visible

    # -- neighbor tallies (Alg 2 lines 2–3) -------------------------------

    def neighbors(self, half: Half) -> FrozenSet[int]:
        return self.graph.neighbors(half[0], half[1])

    def tally(self, half: Half) -> Tuple[Dict[int, int], Dict[int, Dict[int, int]], int]:
        """COUNT over the neighbor set of *half*, grouped by
        organization (§4.4.1), counting the member ASes inside each
        group.  The member of N_F(a) contributed by next hop b is the
        *backward* half of b, and vice versa (Fig 3)."""
        neighbor_direction = not half[1]
        groups: Dict[int, int] = {}
        members: Dict[int, Dict[int, int]] = {}
        total = 0
        for neighbor in sorted(self.neighbors(half)):
            asn = self.half_asn((neighbor, neighbor_direction))
            group = self.canonical(asn)
            groups[group] = groups.get(group, 0) + 1
            inner = members.setdefault(group, {})
            inner[asn] = inner.get(asn, 0) + 1
            total += 1
        return groups, members, total

    @staticmethod
    def most_frequent(members: Dict[int, int], default: int) -> int:
        """§4.4.1: a winning sibling group is recorded as its most
        frequent member AS; lowest ASN breaks ties."""
        best = default
        best_count = 0
        for asn in sorted(members):
            if members[asn] > best_count:
                best, best_count = asn, members[asn]
        return best

    def plurality(self, half: Half) -> Optional[Tuple[int, int, int, int]]:
        """Alg 2 line 2's AS_N: ``(canonical, member, count, total)``
        when one real AS appears strictly more than every other group,
        else None."""
        groups, members, total = self.tally(half)
        if not groups:
            return None
        counts = sorted(groups.values(), reverse=True)
        best_count = counts[0]
        if len(counts) > 1 and counts[1] == best_count:
            return None
        winners = [group for group, count in groups.items() if count == best_count]
        winner = winners[0]
        if winner <= 0:
            return None
        member = self.most_frequent(members[winner], winner)
        return (winner, member, best_count, total)

    # -- the add step (§4.4, Alg 2) ---------------------------------------

    def candidate_halves(self) -> List[Half]:
        """Alg 2 line 1: halves with at least ``min_neighbors``."""
        minimum = self.config.min_neighbors
        halves = []
        for address in self.graph.forward:
            if len(self.graph.forward[address]) >= minimum:
                halves.append((address, FORWARD))
        for address in self.graph.backward:
            if len(self.graph.backward[address]) >= minimum:
                halves.append((address, BACKWARD))
        return sorted(halves)

    def other_side_half(self, half: Half) -> Optional[Half]:
        other = self.graph.other_side(half[0])
        if other is None:
            return None
        return (other, not half[1])

    def direct_pass(self, candidates: List[Half]) -> List[Half]:
        """One greedy Alg 2 pass; only a single direct inference may be
        made on each half per add step (§4.4.2)."""
        added: List[Half] = []
        f = self.config.f
        for half in candidates:
            if half in self.direct or half in self.inferred_this_step:
                continue
            plurality = self.plurality(half)
            if plurality is None:
                continue
            _, member, count, total = plurality
            if count < total * f:
                continue
            previous = self.half_asn(half)
            if self.canonical(previous) == plurality[0]:
                continue
            self.direct[half] = _Direct(local_as=previous, remote_as=member)
            self.inferred_this_step.add(half)
            added.append(half)
            self.note("direct", half, local=previous, remote=member,
                      count=count, total=total)
        return added

    def propagate_indirect(self, new_directs: List[Half]) -> None:
        """§4.4.2: map the other side of each new direct inference to
        the same AS; IXP LANs are multipoint, so skipped."""
        for half in new_directs:
            if self.ip2as.is_ixp(half[0]):
                continue
            partner = self.other_side_half(half)
            if partner is None:
                continue
            direct = self.direct[half]
            self.indirect[partner] = _Indirect(
                local_as=direct.local_as,
                remote_as=direct.remote_as,
                source=half,
            )
            self.note("indirect", partner, local=direct.local_as,
                      remote=direct.remote_as, source=half[0])

    def fix_dual_inferences(self) -> None:
        """§4.4.3 first contradiction: both halves of one interface
        inferred toward different organizations — keep forward, drop
        backward (Fig 4's third-party signature).  Interfaces without
        an original mapping are left alone."""
        for half in sorted(self.direct):
            if half[1] != BACKWARD or half not in self.direct:
                continue
            forward_half = (half[0], FORWARD)
            if forward_half not in self.direct:
                continue
            if self.original_asn(half[0]) <= 0:
                continue
            forward_remote = self.canonical(self.direct[forward_half].remote_as)
            backward_remote = self.canonical(self.direct[half].remote_as)
            if forward_remote == backward_remote:
                self.dual_same_as += 1
                continue
            self.remove_direct(half)
            self.note("dual", half)

    def flag_divergent_other_sides(self) -> None:
        """§4.4.3 second contradiction: a link's two endpoints inferred
        toward different organizations — the pairing itself is presumed
        wrong, so the two cross-imposed indirect updates are detached."""
        for half in sorted(self.direct):
            partner = self.other_side_half(half)
            if partner is None or partner not in self.direct:
                continue
            if half > partner:
                continue
            if self.original_asn(half[0]) <= 0 or self.original_asn(partner[0]) <= 0:
                continue
            if self.canonical(self.direct[half].remote_as) == self.canonical(
                self.direct[partner].remote_as
            ):
                continue
            for indirect_half, source in ((partner, half), (half, partner)):
                indirect = self.indirect.get(indirect_half)
                if indirect is not None and indirect.source == source and not indirect.detached:
                    indirect.detached = True
                    self.note("detach", indirect_half, source=source[0])

    def fix_inverse_inferences(self) -> None:
        """§4.4.4: a backward inference B→A on interface *b* adjacent
        to the inverse forward inference A→B.  Remove the backward one
        (the forward is nearer the monitors) — unless *b*'s link other
        side also carries a direct inference, in which case every
        conflicting inference is kept but flagged uncertain.  All
        matching predecessors are considered."""
        backward_halves = [
            half
            for half in sorted(self.direct)
            if half[1] == BACKWARD and not self.direct[half].uncertain
        ]
        for half in backward_halves:
            backward = self.direct.get(half)
            if backward is None:
                continue
            local = self.canonical(backward.local_as)
            remote = self.canonical(backward.remote_as)
            matching: List[Half] = []
            for predecessor in sorted(self.graph.n_backward(half[0])):
                forward_half = (predecessor, FORWARD)
                forward = self.direct.get(forward_half)
                if forward is None:
                    continue
                if (
                    self.canonical(forward.local_as) != remote
                    or self.canonical(forward.remote_as) != local
                ):
                    continue
                matching.append(forward_half)
            if not matching:
                continue
            partner = self.other_side_half(half)
            if partner is not None and partner in self.direct:
                backward.uncertain = True
                self.uncertain_log.setdefault(half, backward)
                self.note("uncertain", half)
                for forward_half in matching:
                    forward = self.direct[forward_half]
                    forward.uncertain = True
                    self.uncertain_log.setdefault(forward_half, forward)
                    self.note("uncertain", forward_half)
            else:
                self.remove_direct(half)
                self.note("inverse_removed", half)

    def add_step(self) -> None:
        """Alg 1 line 3: repeat the four sub-steps to fixpoint."""
        self.inferred_this_step = set()
        candidates = self.candidate_halves()
        while True:
            self.pass_number += 1
            new_directs = self.direct_pass(candidates)
            self.propagate_indirect(new_directs)
            if self.config.fix_dual_inferences:
                self.fix_dual_inferences()
            if self.config.fix_divergent_other_sides:
                self.flag_divergent_other_sides()
            if self.config.fix_inverse_inferences:
                self.fix_inverse_inferences()
            self.refresh_visible()
            if not new_directs:
                break

    # -- the remove step (§4.5, Alg 3) ------------------------------------

    def remove_direct(self, half: Half) -> None:
        """Discard a direct inference and every indirect it supports."""
        if half not in self.direct:
            return
        del self.direct[half]
        for key in sorted(self.indirect):
            if self.indirect[key].source == half:
                del self.indirect[key]

    def still_holds(self, half: Half, direct: _Direct) -> bool:
        """Alg 3 line 4's dominance test, under the configured reading."""
        target = self.canonical(direct.remote_as)
        if self.config.remove_rule == REMOVE_ADD_RULE:
            plurality = self.plurality(half)
            return (
                plurality is not None
                and plurality[0] == target
                and plurality[2] >= plurality[3] * self.config.f
            )
        groups, _, total = self.tally(half)
        count = groups.get(target, 0)
        return 2 * count > total

    def supporter_for(self, half: Half) -> Optional[Half]:
        """Alg 3 line 5: a live direct inference whose link other side
        is *half* (verified both ways for asymmetric judgements)."""
        partner = self.other_side_half(half)
        if partner is None or partner not in self.direct:
            return None
        if self.other_side_half(partner) == half:
            return partner
        return None

    def remove_step(self) -> None:
        while True:
            doomed = [
                half
                for half in sorted(self.direct)
                if not self.direct[half].via_stub
                and not self.still_holds(half, self.direct[half])
            ]
            for half in doomed:
                direct = self.direct.pop(half)
                supporter = self.supporter_for(half)
                if supporter is not None:
                    self.indirect[half] = _Indirect(
                        local_as=direct.local_as,
                        remote_as=direct.remote_as,
                        source=supporter,
                    )
                    self.note("demoted", half, source=supporter[0])
                else:
                    self.note("removed", half)
            swept = [
                half
                for half in sorted(self.indirect)
                if self.indirect[half].source not in self.direct
            ]
            for half in swept:
                del self.indirect[half]
                self.note("swept", half)
            self.refresh_visible()
            if not doomed and not swept:
                break

    # -- the stub heuristic (§4.8, Alg 4) ---------------------------------

    def stub_step(self) -> None:
        for address in sorted(self.graph.forward):
            members = self.graph.forward[address]
            if len(members) != 1:
                continue
            half = (address, FORWARD)
            if half in self.direct or half in self.indirect:
                continue
            (neighbor,) = members
            neighbor_half = (neighbor, BACKWARD)
            backward_half = (address, BACKWARD)
            if backward_half in self.direct or backward_half in self.indirect:
                continue
            if neighbor_half in self.direct or neighbor_half in self.indirect:
                continue
            own_as = self.half_asn(half)
            neighbor_as = self.half_asn(neighbor_half)
            if neighbor_as <= 0 or own_as <= 0:
                continue
            if self.canonical(own_as) == self.canonical(neighbor_as):
                continue
            if not self.rel.is_stub(neighbor_as, self.org):
                continue
            if not self.rel.knows(neighbor_as):
                continue
            self.direct[half] = _Direct(
                local_as=own_as, remote_as=neighbor_as, via_stub=True
            )
            self.note("stub", half, local=own_as, remote=neighbor_as)
            partner = self.other_side_half(half)
            if partner is not None and not self.ip2as.is_ixp(address):
                self.indirect[partner] = _Indirect(
                    local_as=own_as, remote_as=neighbor_as, source=half
                )
                self.note("stub_indirect", partner, source=address)
        self.refresh_visible()

    # -- convergence (§4.6) and collection --------------------------------

    def state_snapshot(self) -> FrozenSet:
        """The exact inference state the §4.6 stopping rule compares."""
        directs = frozenset(
            (half, rec.local_as, rec.remote_as, rec.uncertain, "d")
            for half, rec in self.direct.items()
        )
        indirects = frozenset(
            (half, rec.remote_as, rec.source, rec.detached, "i")
            for half, rec in self.indirect.items()
        )
        return frozenset((directs, indirects))

    def collect(self) -> Tuple[List[OracleRecord], List[OracleRecord]]:
        """The two output lists of §4.4.4.  Uncertain pairs typically
        cycle forever (§4.6), so the uncertain output is the union over
        the run minus halves that ended as live direct inferences."""
        confident: List[OracleRecord] = []
        uncertain: List[OracleRecord] = []
        for half in sorted(self.uncertain_log):
            if half in self.direct:
                continue
            rec = self.uncertain_log[half]
            uncertain.append(
                OracleRecord(
                    address=half[0],
                    forward=half[1],
                    local_as=rec.local_as,
                    remote_as=rec.remote_as,
                    kind="stub" if rec.via_stub else "direct",
                    uncertain=True,
                )
            )
        for half in sorted(self.direct):
            rec = self.direct[half]
            record = OracleRecord(
                address=half[0],
                forward=half[1],
                local_as=rec.local_as,
                remote_as=rec.remote_as,
                kind="stub" if rec.via_stub else "direct",
                uncertain=rec.uncertain,
            )
            (uncertain if rec.uncertain else confident).append(record)
        for half in sorted(self.indirect):
            if half in self.direct or self.indirect[half].detached:
                continue
            rec = self.indirect[half]
            source = self.direct.get(rec.source)
            source_uncertain = source.uncertain if source is not None else False
            record = OracleRecord(
                address=half[0],
                forward=half[1],
                local_as=rec.local_as,
                remote_as=rec.remote_as,
                kind="indirect",
                uncertain=source_uncertain,
            )
            (uncertain if source_uncertain else confident).append(record)
        return confident, uncertain

    def run(self) -> OracleResult:
        """Alg 1: alternate add and remove steps until the state
        repeats, then apply the stub heuristic once."""
        self.refresh_visible()
        seen = {self.state_snapshot()}
        converged = False
        while self.iteration < self.config.max_iterations:
            self.iteration += 1
            self.pass_number = 0
            self.add_step()
            if self.config.enable_remove_step:
                self.remove_step()
            snapshot = self.state_snapshot()
            if snapshot in seen:
                converged = True
                break
            seen.add(snapshot)
        if self.config.enable_stub_heuristic:
            self.pass_number = 0
            self.stub_step()
        confident, uncertain = self.collect()
        return OracleResult(
            confident=confident,
            uncertain=uncertain,
            iterations=self.iteration,
            converged=converged,
            journal=self.journal,
            final_visible=dict(self.visible),
            dual_same_as=self.dual_same_as,
        )


def oracle_run(graph, ip2as, org, rel, config: Optional[OracleConfig] = None) -> OracleResult:
    """Run the reference algorithm over one input world.

    *graph* is an interface graph exposing ``forward`` / ``backward``
    neighbor tables, ``neighbors(address, direction)``,
    ``n_backward(address)``, and ``other_side(address)``; *ip2as*
    exposes ``asn(address)`` and ``is_ixp(address)``; *org* exposes
    ``canonical(asn)``; *rel* exposes ``is_stub(asn, org)`` and
    ``knows(asn)``.  Duck typing keeps this module import-independent
    of the production engine.
    """
    return _OracleRun(graph, ip2as, org, rel, config or OracleConfig()).run()
