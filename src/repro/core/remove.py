"""The remove step (paper section 4.5, Alg 3).

Multiple passes over the halves carrying direct inferences, each pass
reading only the mappings visible at its start.  A direct inference
whose connected AS no longer dominates its neighbor set is demoted to
an indirect inference (retaining its mapping) — it survives only while
a direct inference on the other side of its link supports it; after
every pass, unsupported indirect inferences are discarded along with
their mapping updates.  The step converges because inferences are only
ever discarded here.

Two readings of the dominance test exist in the paper (prose: "more
than half of its N"; Alg 3: "the inference would no longer be made").
Both are implemented; :class:`~repro.core.config.MapItConfig` selects
one, defaulting to the prose rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import REMOVE_ADD_RULE
from repro.core.engine import Engine
from repro.core.state import DirectInference, IndirectInference
from repro.graph.halves import Half, half_fields


@dataclass
class RemoveStepReport:
    """What one remove step (Alg 3, §4.5) did."""

    passes: int = 0
    demoted: int = 0
    indirect_discarded: int = 0


def _still_holds(engine: Engine, direct: DirectInference) -> bool:
    """Would this direct inference survive under current mappings?
    (Alg 3 line 4's test; section 4.5 prose vs literal readings are
    selected by :attr:`~repro.core.config.MapItConfig.remove_rule`.)

    Both readings go through the cached :meth:`Engine.plurality`.  A
    group holding more than half of N is necessarily the strict,
    positive plurality winner, so the majority test equals
    ``dominance(half, C).is_majority()`` without a second count.
    """
    plurality = engine.plurality(direct.half)
    if plurality is None or plurality.canonical_as != engine.canonical(direct.remote_as):
        return False
    if engine.config.remove_rule == REMOVE_ADD_RULE:
        return plurality.satisfies_f(engine.config.f)
    return plurality.is_majority()


def _supporter_for(engine: Engine, half: Half) -> Optional[Half]:
    """A live direct inference whose link other-side is *half*
    (Alg 3 line 5: demotion to an indirect inference needs a live
    supporting direct on the link's other side).

    Other-side assignment is usually symmetric, so the candidate is the
    direct inference on *half*'s own other side — but we verify that
    its other side really points back at *half*, covering the rare
    asymmetric /30-vs-/31 judgements.
    """
    partner = engine.other_side_half(half)
    if partner is None or partner not in engine.state.direct:
        return None
    if engine.other_side_half(partner) == half:
        return partner
    return None


def remove_step(engine: Engine) -> RemoveStepReport:
    """Run the remove step (Alg 3, section 4.5) to fixpoint."""
    state = engine.state
    obs = engine.obs
    tracing = obs.tracer.enabled
    report = RemoveStepReport()
    while True:
        report.passes += 1
        with obs.span("remove/dominance"):
            doomed: List[Half] = [
                half
                for half, direct in sorted(state.direct.items())
                if not direct.via_stub and not _still_holds(engine, direct)
            ]
        for half in doomed:
            direct = state.direct.pop(half)
            supporter = _supporter_for(engine, half)
            if supporter is not None:
                state.add_indirect(
                    IndirectInference(
                        half=half,
                        local_as=direct.local_as,
                        remote_as=direct.remote_as,
                        source=supporter,
                    )
                )
            if tracing:
                obs.event(
                    "inference.removed",
                    rule="demoted" if supporter is not None else "removed",
                    local_as=direct.local_as,
                    remote_as=direct.remote_as,
                    **half_fields(half),
                )
        report.demoted += len(doomed)
        swept = state.sweep_unsupported_indirect()
        report.indirect_discarded += swept
        state.refresh_visible()
        if obs.enabled:
            obs.event(
                "remove.pass.end",
                demoted=len(doomed),
                swept=swept,
                direct=len(state.direct),
                indirect=len(state.indirect),
                **{"pass": report.passes},
            )
        if not doomed and not swept:
            break
    if obs.enabled:
        obs.event(
            "remove.end",
            passes=report.passes,
            demoted=report.demoted,
            indirect_discarded=report.indirect_discarded,
        )
        obs.inc("mapit.remove.passes", report.passes)
        obs.inc("mapit.inference.demoted", report.demoted)
        obs.inc("mapit.inference.swept", report.indirect_discarded)
    return report
