"""The low-visibility / NAT stub heuristic (paper section 4.8, Alg 4).

The main algorithm needs at least two distinct addresses from the
connected AS next to a link.  Stub ASes often expose exactly one
address — a NAT front, flow control, or simply too few probes — so
after the main loop converges, every forward half with a *single*
neighbor is examined:

* the neighbor must map (under the converged mappings) to a different,
  non-sibling AS that is a **stub** (no non-sibling customers in the
  relationship data);
* neither the interface's backward half nor the neighbor's backward
  half may already carry an inference — if the link were named from
  the stub's space, a backward inference would already exist.

A qualifying half gets a direct inference to the stub AS, its other
side gets the matching indirect inference, and both mappings update.
Third-party addresses cannot trigger this step: a third-party address
returned by a stub maps to one of its providers, and providers are by
definition not stubs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.engine import Engine
from repro.core.state import DirectInference, IndirectInference
from repro.graph.halves import BACKWARD, FORWARD, half_fields


@dataclass
class StubStepReport:
    """What the stub heuristic (Alg 4, §4.8) did."""

    examined: int = 0
    inferred: int = 0


def stub_step(engine: Engine) -> StubStepReport:
    """Run Alg 4 (section 4.8) once over all single-neighbor forward
    halves, after the main loop has converged.

    The engine keeps those addresses sorted as the graph grows
    (:meth:`Engine.stub_addresses`); each is still tested for a single
    member, so a list that missed a growth skips the address rather
    than misreading its neighbor set.  The tests on the two halves'
    ASes read only original mappings (neither half may carry an
    inference), so the engine answers them once per address
    (:meth:`Engine.stub_pair`).
    """
    state = engine.state
    obs = engine.obs
    tracing = obs.tracer.enabled
    report = StubStepReport()
    forward = engine.graph.forward
    directs, indirects = state.direct, state.indirect
    for address in engine.stub_addresses():
        members = forward[address]
        if len(members) != 1:
            continue
        report.examined += 1
        pair = engine.stub_pair(address)
        if pair is None:
            continue
        half = (address, FORWARD)
        if half in directs or half in indirects:
            # An existing inference (even an indirect one from the
            # link's other side) means the link is already captured;
            # stacking a stub inference on top can only compound an
            # upstream mistake.
            continue
        (neighbor,) = members
        neighbor_half = (neighbor, BACKWARD)
        backward_half = (address, BACKWARD)
        if backward_half in directs or backward_half in indirects:
            continue
        if neighbor_half in directs or neighbor_half in indirects:
            continue
        own_as, neighbor_as = pair
        direct = DirectInference(
            half=half,
            local_as=own_as,
            remote_as=neighbor_as,
            via_stub=True,
        )
        state.add_direct(direct)
        if tracing:
            obs.event(
                "inference.added",
                kind="direct",
                rule="stub",
                local_as=own_as,
                remote_as=neighbor_as,
                count=1,
                total=1,
                **half_fields(half),
            )
        partner = engine.other_side_half(half)
        if partner is not None and not engine.is_ixp(address):
            state.add_indirect(
                IndirectInference(
                    half=partner,
                    local_as=own_as,
                    remote_as=neighbor_as,
                    source=half,
                )
            )
            if tracing:
                obs.event(
                    "inference.added",
                    kind="indirect",
                    rule="stub_propagate",
                    local_as=own_as,
                    remote_as=neighbor_as,
                    source=half_fields(half)["address"],
                    **half_fields(partner),
                )
        report.inferred += 1
    state.refresh_visible()
    if obs.enabled:
        obs.event(
            "stub.end",
            examined=report.examined,
            inferred=report.inferred,
            direct=len(state.direct),
            indirect=len(state.indirect),
        )
        obs.inc("mapit.inference.stub_added", report.inferred)
    return report
