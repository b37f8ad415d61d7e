"""The add step (paper section 4.4).

Each pass makes direct inferences (Alg 2), propagates indirect
inferences to link other-sides, resolves point-to-point contradictions
(dual inferences, divergent other sides), and removes adjacent inverse
inferences; updated mappings become visible at the next pass.  Passes
repeat until no new direct inference is made.

A half that received a direct inference during this add step is never
reconsidered within the same step, even when a contradiction fix later
discarded that inference — "only a single direct inference can be made
on each IH per add step" (section 4.4.2).  Across outer iterations a
discarded half may be re-inferred, which is what produces the repeating
terminal state of section 4.6.

Each pass looks only at what can have changed since the last one: the
direct pass at candidates not settled by the engine's tally cache, and
the contradiction and inverse fixes at the halves the state's touched
log names (docs/SERVE.md argues that no other half's decision can
change).  Where a fix acts on several halves it acts in the order a
scan of the direct table would, so trace events keep their order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.core.engine import Engine
from repro.core.state import DirectInference, IndirectInference
from repro.graph.halves import BACKWARD, FORWARD, Half, half_fields

#: Optional hook fired after named sub-stages (used for Fig 7).
StageHook = Callable[[str], None]


@dataclass
class AddStepReport:
    """What one add step (Alg 2 passes plus the §4.4.3–4.4.4 fixes) did."""

    passes: int = 0
    direct_added: int = 0
    indirect_added: int = 0
    dual_resolved: int = 0
    inverse_removed: int = 0
    uncertain_marked: int = 0


def add_step(engine: Engine, hook: Optional[StageHook] = None) -> AddStepReport:
    """Run the full add step (Alg 1 line 3, section 4.4): repeat the
    four sub-steps — direct pass, indirect propagation, contradiction
    fixes, inverse-inference removal — to fixpoint."""
    state = engine.state
    obs = engine.obs
    state.inferred_this_step = set()
    report = AddStepReport()
    with obs.span("add/candidates"):
        engine.candidate_set()
    first_pass = True
    while True:
        report.passes += 1
        if obs.enabled:
            obs.event("add.pass.start", **{"pass": report.passes})
        with obs.span("add/direct"):
            new_directs = _direct_pass(engine)
        report.direct_added += len(new_directs)
        if first_pass and hook is not None:
            hook("direct")
        with obs.span("add/indirect"):
            indirect_added = _propagate_indirect(engine, new_directs)
        report.indirect_added += indirect_added
        with obs.span("add/contradictions"):
            if engine.config.fix_dual_inferences:
                report.dual_resolved += _fix_dual_inferences(
                    engine, state.touched_since("dual")
                )
            if engine.config.fix_divergent_other_sides:
                _flag_divergent_other_sides(engine, state.touched_since("divergent"))
        if first_pass and hook is not None:
            hook("contradictions")
        with obs.span("add/inverse"):
            if engine.config.fix_inverse_inferences:
                removed, uncertain = _fix_inverse_inferences(
                    engine, state.added_since("inverse")
                )
                report.inverse_removed += removed
                report.uncertain_marked += uncertain
        if first_pass and hook is not None:
            hook("inverse")
        state.refresh_visible()
        if obs.enabled:
            obs.event(
                "add.pass.end",
                direct_added=len(new_directs),
                indirect_added=indirect_added,
                direct=len(state.direct),
                indirect=len(state.indirect),
                **{"pass": report.passes},
            )
        if not new_directs:
            break
        first_pass = False
    if obs.enabled:
        obs.event(
            "add.end",
            passes=report.passes,
            direct_added=report.direct_added,
            indirect_added=report.indirect_added,
            dual_resolved=report.dual_resolved,
            inverse_removed=report.inverse_removed,
            uncertain_marked=report.uncertain_marked,
        )
        obs.inc("mapit.add.passes", report.passes)
        obs.inc("mapit.inference.direct_added", report.direct_added)
        obs.inc("mapit.inference.indirect_added", report.indirect_added)
    return report


def _direct_pass(engine: Engine) -> List[DirectInference]:
    """Alg 2: one greedy pass over the interface halves.

    A half found unable to fire is settled: the engine keeps it so
    until its tally or its own mapping changes (docs/SERVE.md), and
    leaves it out of the halves the next pass judges.
    """
    state = engine.state
    f = engine.config.f
    tracing = engine.obs.tracer.enabled
    added: List[DirectInference] = []
    for half in engine.open_candidates():
        plurality = engine.plurality(half)
        if plurality is None or not plurality.satisfies_f(f):
            engine.settle(half)
            continue
        previous = engine.half_asn(half)
        if engine.canonical(previous) == plurality.canonical_as:
            engine.settle(half)
            continue
        inference = DirectInference(half, previous, plurality.member_as)
        state.add_direct(inference)
        added.append(inference)
        if tracing:
            engine.obs.event(
                "inference.added",
                kind="direct",
                rule="direct",
                local_as=previous,
                remote_as=plurality.member_as,
                count=plurality.count,
                total=plurality.total,
                **half_fields(half),
            )
    return added


def _propagate_indirect(engine: Engine, new_directs: List[DirectInference]) -> int:
    """Section 4.4.2: update the other side of each new direct inference.

    Known IXP interfaces are skipped — IXP LANs are multipoint, so the
    /30-/31 other-side arithmetic does not apply to them.
    """
    state = engine.state
    tracing = engine.obs.tracer.enabled
    added = 0
    for direct in new_directs:
        if engine.is_ixp(direct.half[0]):
            continue
        partner = engine.other_side_half(direct.half)
        if partner is None:
            continue
        state.add_indirect(
            IndirectInference(partner, direct.local_as, direct.remote_as, direct.half)
        )
        added += 1
        if tracing:
            engine.obs.event(
                "inference.added",
                kind="indirect",
                rule="propagate",
                local_as=direct.local_as,
                remote_as=direct.remote_as,
                source=half_fields(direct.half)["address"],
                **half_fields(partner),
            )
    return added


def _fix_dual_inferences(engine: Engine, touched: Iterable[Half]) -> int:
    """Section 4.4.3, first contradiction: both halves of one interface
    directly inferred toward *different* ASes.

    Third-party addresses cause this (Fig 4); the forward inference is
    the trustworthy one, so the backward inference is discarded.  Both
    are kept when they involve the same AS (or siblings).  Interfaces
    without an original IP2AS mapping are left alone — the paper
    declines to fix contradictions on unannounced addresses.

    Only the addresses of *touched* halves are judged: any other
    address's two directs are the ones it was last judged on.  The
    same-AS pairs are kept in ``state.dual_pairs``, so ``dual_same_as``
    still counts every such pair on every pass.
    """
    state = engine.state
    direct = state.direct
    pairs = state.dual_pairs
    tracing = engine.obs.tracer.enabled
    doomed: List[Half] = []
    for address in dict.fromkeys(half[0] for half in touched):
        forward = direct.get((address, FORWARD))
        backward = direct.get((address, BACKWARD))
        if forward is None or backward is None or engine.original_asn(address) <= 0:
            pairs.discard(address)
        elif engine.canonical(forward.remote_as) == engine.canonical(backward.remote_as):
            pairs.add(address)
        else:
            pairs.discard(address)
            doomed.append((address, BACKWARD))
    state.dual_same_as += len(pairs)
    for half in sorted(doomed, key=state.order.__getitem__):
        discarded = state.remove_direct(half)
        state.dual_resolved += 1
        if tracing:
            engine.obs.event(
                "inference.removed",
                rule="dual",
                local_as=discarded.local_as,
                remote_as=discarded.remote_as,
                **half_fields(half),
            )
    return len(doomed)


def _flag_divergent_other_sides(engine: Engine, touched: Iterable[Half]) -> None:
    """Section 4.4.3, second contradiction: a link's two endpoints are
    directly inferred toward different ASes.

    The paper assumes the other-side pairing itself is wrong and does
    not pick a winner; we therefore detach the indirect updates the two
    directs imposed on each other and count the occurrence.

    Only the links of *touched* halves are judged: a link's judgement
    reads its two directs and the two indirects on its ends, and the
    §4.2 table pairs observed addresses symmetrically, so a touched
    half's own link is the only one its change can reach.
    """
    state = engine.state
    direct = state.direct
    links: Set[Half] = set()
    for half in dict.fromkeys(touched):
        partner = engine.other_side_half(half)
        if partner is None:
            continue
        first, second = (half, partner) if half < partner else (partner, half)
        if first in direct and second in direct and engine.other_side_half(first) == second:
            links.add(first)
    for half in sorted(links, key=state.order.__getitem__):
        partner = engine.other_side_half(half)
        if engine.original_asn(half[0]) <= 0 or engine.original_asn(partner[0]) <= 0:
            continue
        if engine.canonical(direct[half].remote_as) == engine.canonical(
            direct[partner].remote_as
        ):
            continue
        newly_detached = False
        for indirect_half, source in ((partner, half), (half, partner)):
            indirect = state.indirect.get(indirect_half)
            if indirect is not None and indirect.source == source and not indirect.detached:
                state.detach(indirect)
                newly_detached = True
                if engine.obs.tracer.enabled:
                    engine.obs.event(
                        "inference.detached",
                        rule="divergent_other_side",
                        source=half_fields(source)["address"],
                        **half_fields(indirect_half),
                    )
        if newly_detached:
            state.divergent_other_sides += 1


def _fix_inverse_inferences(engine: Engine, added: Iterable[Half]) -> tuple:
    """Section 4.4.4: adjacent inverse inferences.

    A backward inference (from AS_B to AS_A) on an interface *b* that
    appears in the forward neighbor set of an interface *a* carrying
    the inverse forward inference (from AS_A to AS_B) is usually the
    mistaken one: the forward inference is topologically nearer to the
    monitors.  We discard the backward inference — unless a direct
    inference also exists on the other side of *b*, in which case
    neither is nearer and every conflicting inference is kept but
    marked uncertain.

    All matching predecessors are considered, not just the first in
    address order: when several inverse-forward inferences surround one
    backward inference, the remove-vs-uncertain outcome and the set of
    flagged forward inferences must not depend on predecessor address
    ordering.

    A backward inference's judgement reads its own direct and the
    forward directs of its predecessors, and one left certain had no
    match when last judged; only a match gained can change it.  So a
    backward half in *added* (given a direct since the last run of this
    fix) is judged against all its predecessors, and an older one only
    against the predecessors whose forward half is in *added*.
    """
    state = engine.state
    direct = state.direct
    removed = 0
    uncertain = 0
    # judged backward half -> the predecessors that can match (None: all)
    judged: Dict[Half, Optional[Set[int]]] = {}
    for half in dict.fromkeys(added):
        if half not in direct:
            continue
        address, forward = half
        if not forward:
            judged[half] = None
            continue
        # b appears in N_F(a) exactly when a appears in N_B(b).
        for successor in engine.graph.forward.get(address, ()):
            successor_half = (successor, BACKWARD)
            if successor_half not in direct:
                continue
            if successor_half not in judged:
                judged[successor_half] = {address}
            elif judged[successor_half] is not None:
                judged[successor_half].add(address)
    backward_halves = sorted(
        (half for half in judged if not direct[half].uncertain),
        key=state.order.__getitem__,
    )
    for half in backward_halves:
        backward = direct[half]
        local = engine.canonical(backward.local_as)
        remote = engine.canonical(backward.remote_as)
        predecessors = judged[half]
        if predecessors is None:
            predecessors = engine.graph.backward.get(half[0], ())
        matching = []
        for predecessor in sorted(predecessors):
            forward_half = (predecessor, FORWARD)
            forward = state.direct.get(forward_half)
            if forward is None:
                continue
            if (
                engine.canonical(forward.local_as) != remote
                or engine.canonical(forward.remote_as) != local
            ):
                continue
            matching.append((forward_half, forward))
        if not matching:
            continue
        partner = engine.other_side_half(half)
        tracing = engine.obs.tracer.enabled
        if partner is not None and partner in state.direct:
            if not backward.uncertain:
                backward.uncertain = True
                uncertain += 1
                if tracing:
                    engine.obs.event(
                        "inference.uncertain", rule="inverse", **half_fields(half)
                    )
            state.uncertain_log.setdefault(half, backward)
            for forward_half, forward in matching:
                if not forward.uncertain:
                    forward.uncertain = True
                    uncertain += 1
                    if tracing:
                        engine.obs.event(
                            "inference.uncertain",
                            rule="inverse",
                            **half_fields(forward_half),
                        )
                state.uncertain_log.setdefault(forward_half, forward)
                state.uncertain_pairs += 1
        else:
            state.remove_direct(half)
            state.inverse_removed += 1
            removed += 1
            if tracing:
                engine.obs.event(
                    "inference.removed",
                    rule="inverse",
                    local_as=backward.local_as,
                    remote_as=backward.remote_as,
                    **half_fields(half),
                )
    return removed, uncertain
