"""MAP-IT driver: Alg 1 plus the section 4.6 convergence rule.

The outer loop alternates the add step and the remove step until the
inference state at the end of a remove step repeats — the paper's
stopping criterion, needed because uncertain inference pairs may be
added and removed forever.  The stub heuristic runs once afterwards.

:class:`MapIt` operates on a pre-built interface graph; the
:func:`run_mapit` convenience function goes all the way from raw traces
(sanitizing them first) to a :class:`~repro.core.results.MapItResult`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.bgp.ip2as import IP2AS
from repro.core.add import add_step
from repro.core.config import MapItConfig
from repro.core.engine import Engine
from repro.core.remove import remove_step
from repro.core.results import (
    Checkpoint,
    DIRECT,
    INDIRECT,
    LinkInference,
    MapItResult,
    STUB,
)
from repro.core.stub import stub_step
from repro.graph.halves import Half
from repro.graph.neighbors import InterfaceGraph, build_interface_graph
from repro.obs.observer import NULL_OBS, Observability
from repro.org.as2org import AS2Org
from repro.rel.relationships import RelationshipDataset
from repro.traceroute.model import Trace


class MapIt:
    """One configured MAP-IT run over an interface graph (Alg 1)."""

    def __init__(
        self,
        graph: InterfaceGraph,
        ip2as: IP2AS,
        org: Optional[AS2Org] = None,
        rel: Optional[RelationshipDataset] = None,
        config: Optional[MapItConfig] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.engine = Engine(graph, ip2as, org, rel, config, obs=obs)
        self._checkpoints: List[Checkpoint] = []

    # -- checkpointing (Fig 7) ------------------------------------------------

    def _checkpoint(self, label: str) -> None:
        if not self.engine.config.record_checkpoints:
            return
        inferences, uncertain = self._collect()
        self._checkpoints.append(Checkpoint(label, inferences + uncertain))
        if self.engine.obs.enabled:
            self.engine.obs.event(
                "checkpoint", label=label, inferences=len(inferences) + len(uncertain)
            )

    # -- main loop ------------------------------------------------------------

    def run(self) -> MapItResult:
        """Execute Alg 1 (add step, remove step, section 4.6 repeated-
        state convergence, then the Alg 4 stub heuristic) and return
        the results.
        """
        engine = self.engine
        config = engine.config
        obs = engine.obs
        if obs.enabled:
            obs.event(
                "run.start",
                f=config.f,
                min_neighbors=config.min_neighbors,
                remove_rule=config.remove_rule,
                max_iterations=config.max_iterations,
                stub_heuristic=config.enable_stub_heuristic,
            )
        # §4.6 compares exact states, as the oracle does; the sha256
        # digest (MapItState.fingerprint) is only for publishing.
        seen = {engine.state.state_key()}
        iterations = 0
        engine.state.refresh_visible()
        converged = False
        while iterations < config.max_iterations:
            iterations += 1
            if obs.enabled:
                obs.event("iteration.start", iteration=iterations)
            first = iterations == 1 and config.record_checkpoints
            hook = (lambda stage: self._checkpoint(f"add 1: {stage}")) if first else None
            with obs.span("pass/add"):
                add_step(engine, hook)
            if first:
                self._checkpoint("add 1: all passes")
            if config.enable_remove_step:
                with obs.span("pass/remove"):
                    remove_step(engine)
            self._checkpoint(f"iteration {iterations}")
            key = engine.state.state_key()
            repeated = key in seen
            if obs.enabled:
                obs.event(
                    "iteration.end",
                    iteration=iterations,
                    direct=len(engine.state.direct),
                    indirect=len(engine.state.indirect),
                    repeated=repeated,
                )
            if repeated:
                converged = True
                break
            seen.add(key)
        if config.enable_stub_heuristic:
            with obs.span("pass/stub"):
                stub_step(engine)
            self._checkpoint("stub heuristic")
        with obs.span("collect"):
            inferences, uncertain = self._collect()
        state = engine.state
        if obs.enabled:
            obs.event(
                "run.end",
                iterations=iterations,
                converged=converged,
                direct=len(state.direct),
                indirect=len(state.indirect),
                uncertain=len(uncertain),
            )
            obs.inc("mapit.runs")
            obs.inc("mapit.iterations", iterations)
            obs.gauge("mapit.inferences", len(inferences))
            obs.gauge("mapit.uncertain", len(uncertain))
        return MapItResult(
            inferences=inferences,
            uncertain=uncertain,
            iterations=iterations,
            converged=converged,
            diagnostics={
                "dual_resolved": state.dual_resolved,
                "dual_same_as": state.dual_same_as,
                "divergent_other_sides": state.divergent_other_sides,
                "inverse_removed": state.inverse_removed,
                "uncertain_pairs": state.uncertain_pairs,
                "direct": len(state.direct),
                "indirect": len(state.indirect),
            },
            checkpoints=self._checkpoints,
        )

    # -- incremental entry point (docs/SERVE.md) -------------------------------

    def run_incremental(self, dirty_halves: Iterable[Half] = ()) -> MapItResult:
        """Re-run the multipass over a graph that grew since the last
        call, recomputing only the dirty region.

        *dirty_halves* are the interface halves whose neighbor-set
        membership changed (as reported by
        :meth:`repro.perf.flat.GraphFold.fold`).  The run restarts from
        an empty :class:`~repro.core.state.MapItState` — iteration
        counts, diagnostics, and the uncertain log are trajectory
        properties, so only the batch trajectory reproduces the batch
        result byte-for-byte — but the engine keeps its tally cache
        (:meth:`Engine.restart`): the first pass recounts only the
        dirty halves' start tallies, a later pass only the halves next
        to a mapping that differs from the snapshot the rolling cache
        last answered for, and every pass skips the settled halves.
        The returned result is byte-identical to a fresh batch run over
        the same graph.
        """
        engine = self.engine
        with engine.obs.span("serve/invalidate"):
            dropped = engine.invalidate_halves(dirty_halves)
        engine.obs.inc("serve.halves.invalidated", dropped)
        engine.restart()
        self._checkpoints = []
        return self.run()

    # -- output ---------------------------------------------------------------

    def _collect(self) -> Tuple[List[LinkInference], List[LinkInference]]:
        """Materialize inference records from the live state (the two
        output lists of section 4.4.4: confident and uncertain).

        When a half carries both a direct and an indirect inference the
        direct one wins.  Detached indirects (divergent other sides)
        are dropped.  Indirect inferences inherit the uncertainty of
        their supporting direct.
        """
        state = self.engine.state
        directs = state.direct
        # This loop runs once per inference per run or quiesce: records
        # are built positionally (LinkInference's field order) and the
        # other-side lookup is bound once.
        other_sides = self.engine.graph.other_sides
        other_side = {}.get if other_sides is None else other_sides.other_side.get
        confident: List[LinkInference] = []
        uncertain: List[LinkInference] = []
        # Uncertain pairs are typically added and removed forever (the
        # section 4.6 cycle), so halves from the uncertain log that are
        # not currently held as direct inferences are reported from the
        # log.
        for half, direct in sorted(state.uncertain_log.items()):
            if half in directs:
                continue
            uncertain.append(
                LinkInference(
                    half[0],
                    half[1],
                    direct.local_as,
                    direct.remote_as,
                    STUB if direct.via_stub else DIRECT,
                    other_side(half[0]),
                    True,
                )
            )
        for (address, forward), direct in sorted(directs.items()):
            record = LinkInference(
                address,
                forward,
                direct.local_as,
                direct.remote_as,
                STUB if direct.via_stub else DIRECT,
                other_side(address),
                direct.uncertain,
            )
            (uncertain if direct.uncertain else confident).append(record)
        for half, indirect in sorted(state.indirect.items()):
            if half in directs or indirect.detached:
                continue
            source = directs.get(indirect.source)
            source_uncertain = source.uncertain if source is not None else False
            record = LinkInference(
                half[0],
                half[1],
                indirect.local_as,
                indirect.remote_as,
                INDIRECT,
                indirect.source[0],
                source_uncertain,
            )
            (uncertain if source_uncertain else confident).append(record)
        return confident, uncertain


def run_mapit_graph(
    graph: InterfaceGraph,
    ip2as: IP2AS,
    org: Optional[AS2Org] = None,
    rel: Optional[RelationshipDataset] = None,
    config: Optional[MapItConfig] = None,
    obs: Optional[Observability] = None,
) -> MapItResult:
    """Run MAP-IT over a pre-built interface graph.

    The tail every graph source ends in: the fused file loader, a warm
    cache hit, the journaled run, and :func:`run_mapit` over a trace
    list.  Before the passes start it warms the engine's origin cache
    with one batched LPM sweep over every address the passes can query
    (``Engine.prime_origins``), amortizing ip2as resolution per run
    instead of per neighbor lookup.
    """
    from repro.perf.flat import graph_address_universe

    mapit = MapIt(graph, ip2as, org=org, rel=rel, config=config, obs=obs)
    warmed = mapit.engine.prime_origins(graph_address_universe(graph))
    mapit.engine.obs.inc("perf.flat.origins_warmed", warmed)
    return mapit.run()


def run_mapit(
    traces: Iterable[Trace],
    ip2as: IP2AS,
    org: Optional[AS2Org] = None,
    rel: Optional[RelationshipDataset] = None,
    config: Optional[MapItConfig] = None,
    obs: Optional[Observability] = None,
) -> MapItResult:
    """Sanitize *traces* (section 4.1), build the interface graph
    (sections 4.2–4.3), and run MAP-IT (Alg 1).

    *obs*, when given, receives structured trace events, metrics, and
    profiling spans for the whole pipeline (docs/OBSERVABILITY.md).
    """
    obs = obs if obs is not None else NULL_OBS
    graph = build_interface_graph(traces, obs=obs)
    return run_mapit_graph(graph, ip2as, org=org, rel=rel, config=config, obs=obs)
