"""The differential harness: oracle vs. production engine, half by half.

For each world the harness runs the paper-literal oracle
(:mod:`repro.oracle`) and the production engine
(:mod:`repro.core.mapit`) on identical inputs and compares the final
inference sets keyed by interface half.  Any disagreement — a half
inferred by only one side, or inferred with a different AS pair, kind,
or uncertainty — is a :class:`Divergence`, and the first one per world
is rendered as a readable report: the half, which side said what, both
sides' final neighbor-set tallies, and the oracle's journal of every
rule that touched the half (iteration, pass, rule).  The §4.6
trajectory is held to the oracle too: both sides must run the same
number of outer iterations and agree on whether the state repeated.

With a cadence (``check_every > 0``) the harness also holds serve to
batch: it folds the world into an
:class:`~repro.serve.incremental.IncrementalIndex` one trace at a time,
quiescing after every fold, and compares every ``check_every``-th
prefix (and always the last) with :func:`reference_state` — the same
§4.6 fingerprint and the same result JSON, byte for byte.

With chaos schedules (``chaos=...``, :mod:`repro.diff.chaos`) it also
runs the real CLI on the saved world under each fault — killed and hung
workers, a torn journal, a full disk, a flipped cache byte, a SIGKILLed
serve daemon — and holds every faulted run to the bytes of the core
run the oracle comparison checked.

Emits ``diff.*`` metrics (docs/OBSERVABILITY.md) when given an
:class:`~repro.obs.observer.Observability`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bgp.ip2as import IP2AS
from repro.core.config import (
    MapItConfig,
    REMOVE_ADD_RULE,
    REMOVE_MAJORITY,
)
from repro.core.mapit import MapIt
from repro.core.results import MapItResult
from repro.diff.worlds import World
from repro.graph.neighbors import InterfaceGraph, graph_from_traces
from repro.obs.observer import NULL_OBS, Observability
from repro.oracle import OracleConfig, OracleResult, oracle_run

#: the remove-rule readings a sweep exercises by default (§4.5 prose
#: vs. Alg 3 literal)
DEFAULT_RULES = (REMOVE_MAJORITY, REMOVE_ADD_RULE)

#: a comparable inference record: (local_as, remote_as, kind, uncertain)
Record = Tuple[int, int, str, bool]
Half = Tuple[int, bool]


def oracle_config_for(config: MapItConfig) -> OracleConfig:
    """Map the production config onto the oracle's own knobs.

    Field-by-field on purpose: the oracle must not import
    :class:`MapItConfig`, and a new production knob should fail loudly
    here rather than silently diverge.
    """
    return OracleConfig(
        f=config.f,
        min_neighbors=config.min_neighbors,
        remove_rule=config.remove_rule,
        max_iterations=config.max_iterations,
        enable_stub_heuristic=config.enable_stub_heuristic,
        fix_dual_inferences=config.fix_dual_inferences,
        fix_divergent_other_sides=config.fix_divergent_other_sides,
        fix_inverse_inferences=config.fix_inverse_inferences,
        enable_remove_step=config.enable_remove_step,
    )


@dataclass
class Divergence:
    """One half on which the two implementations disagree."""

    half: Half
    core: Optional[Record]
    oracle: Optional[Record]

    def summary(self) -> str:
        def render(record: Optional[Record]) -> str:
            if record is None:
                return "(no inference)"
            local, remote, kind, uncertain = record
            flag = " uncertain" if uncertain else ""
            return f"AS{local} <-> AS{remote} [{kind}{flag}]"

        address, forward = self.half
        direction = "forward" if forward else "backward"
        return (
            f"half ({address}, {direction}): "
            f"core={render(self.core)} oracle={render(self.oracle)}"
        )


@dataclass(frozen=True)
class ChaosRun:
    """One chaos schedule's verdict against the core bytes."""

    schedule: str
    #: why the faulted run does not count; empty when it wrote the
    #: core bytes and its fault fired
    failure: str = ""
    #: the counters that show the fault fired
    evidence: str = ""

    def verdict(self) -> str:
        if self.failure:
            return self.failure
        return f"ok ({self.evidence})" if self.evidence else "ok"


@dataclass
class WorldOutcome:
    """Result of one world under one remove rule."""

    world: str
    remove_rule: str
    divergences: List[Divergence] = field(default_factory=list)
    core_inferences: int = 0
    oracle_inferences: int = 0
    #: ``((iterations, converged) of core, of oracle)`` when the two
    #: §4.6 loops ran differently; None when they agree
    trajectory: Optional[Tuple[Tuple[int, bool], Tuple[int, bool]]] = None
    #: serve prefixes compared against batch (0 without a cadence)
    prefixes: int = 0
    #: the first prefix whose quiesced serve state differed from batch
    serve_prefix: Optional[int] = None
    #: chaos runs held to the core bytes, in run order (``serial`` first)
    chaos: List[ChaosRun] = field(default_factory=list)
    report: str = ""

    @property
    def divergence_count(self) -> int:
        """Halves diverging from the oracle, plus one when the §4.6
        trajectory differs, plus one when serve diverged, plus one per
        failed chaos run."""
        failed = sum(1 for run in self.chaos if run.failure)
        return (
            len(self.divergences)
            + (self.trajectory is not None)
            + (self.serve_prefix is not None)
            + failed
        )

    @property
    def only_chaos_failed(self) -> bool:
        """True when every failure is a chaos run's (nothing to shrink)."""
        return (
            not self.divergences
            and self.trajectory is None
            and self.serve_prefix is None
        )

    @property
    def ok(self) -> bool:
        return not self.divergence_count

    def chaos_line(self, run: ChaosRun) -> str:
        return (
            f"world {self.world} (remove_rule={self.remove_rule}): "
            f"chaos {run.schedule}: {run.verdict()}"
        )


def core_records(
    graph: InterfaceGraph, world: World, config: MapItConfig
) -> Tuple[Dict[Half, Record], MapIt, MapItResult]:
    """Run the production engine; returns its record map, the run
    object (kept alive so the divergence report can re-tally halves)
    and its result."""
    mapit = MapIt(graph, world.ip2as(), world.as2org, world.relationships, config)
    result = mapit.run()
    records: Dict[Half, Record] = {}
    for inference in result.inferences + result.uncertain:
        records[(inference.address, inference.forward)] = (
            inference.local_as,
            inference.remote_as,
            inference.kind,
            inference.uncertain,
        )
    return records, mapit, result


def oracle_records(
    graph: InterfaceGraph, world: World, config: OracleConfig
) -> Tuple[Dict[Half, Record], OracleResult]:
    """Run the reference implementation; returns its record map and the
    full result (journal included)."""
    result = oracle_run(graph, world.ip2as(), world.as2org, world.relationships, config)
    records: Dict[Half, Record] = {}
    for record in result.confident + result.uncertain:
        records[record.half] = (
            record.local_as,
            record.remote_as,
            record.kind,
            record.uncertain,
        )
    return records, result


def build_graph(world: World) -> InterfaceGraph:
    """Sanitize (§4.1) and build the interface graph (§4.2–4.3) once,
    exactly as ``mapit run`` does — the other-side universe includes
    addresses seen only in discarded traces; both implementations
    consume the same graph object."""
    graph, _ = graph_from_traces(world.traces)
    return graph


def _oracle_tally(
    graph: InterfaceGraph,
    world: World,
    half: Half,
    visible: Dict[Half, int],
) -> Tuple[Dict[int, int], int]:
    """Re-tally *half*'s neighbor set under the oracle's final visible
    mappings (for the report only; the oracle itself stays untouched)."""
    ip2as = world.ip2as()
    org = world.as2org
    neighbor_direction = not half[1]
    groups: Dict[int, int] = {}
    total = 0
    for neighbor in sorted(graph.neighbors(half[0], half[1])):
        asn = visible.get((neighbor, neighbor_direction), ip2as.asn(neighbor))
        group = asn if asn <= 0 else org.canonical(asn)
        groups[group] = groups.get(group, 0) + 1
        total += 1
    return groups, total


def _tally_text(tally: Dict[int, int]) -> str:
    if not tally:
        return "(empty neighbor set)"
    parts = [f"AS{asn}x{count}" for asn, count in sorted(tally.items())]
    return " ".join(parts)


def first_divergence_report(
    world: World,
    rule: str,
    divergence: Divergence,
    mapit: MapIt,
    oracle_result: OracleResult,
) -> str:
    """Render the first divergence of a world as a readable report:
    the half, both final answers, both final tallies, and the oracle's
    journal of the half (iteration, pass, rule)."""
    half = divergence.half
    lines = [
        f"world {world.name} (remove_rule={rule}): first divergence, core vs oracle",
        f"  {divergence.summary()}",
    ]
    engine = mapit.engine
    core_groups, _, core_total = engine.count_groups(half)
    lines.append(
        f"  core final tally   ({core_total} neighbors): {_tally_text(core_groups)}"
    )
    journal = oracle_result.journal_for(half)
    oracle_groups, oracle_total = _oracle_tally(
        engine.graph, world, half, oracle_result.final_visible
    )
    lines.append(
        f"  oracle final tally ({oracle_total} neighbors): {_tally_text(oracle_groups)}"
    )
    if journal:
        lines.append("  oracle journal for this half:")
        for entry in journal:
            detail = {
                key: value
                for key, value in entry.items()
                if key not in ("iteration", "pass", "rule", "address", "forward")
            }
            suffix = f" {detail}" if detail else ""
            lines.append(
                f"    iteration {entry['iteration']} pass {entry['pass']}: "
                f"{entry['rule']}{suffix}"
            )
    else:
        lines.append("  oracle journal for this half: (no entries)")
    return "\n".join(lines)


def trajectory_report(
    world: World, rule: str, trajectory: Tuple[Tuple[int, bool], Tuple[int, bool]]
) -> str:
    """Render a §4.6 trajectory mismatch: each side's iteration count
    and whether its loop stopped on a repeated state."""
    (core_iterations, core_converged), (oracle_iterations, oracle_converged) = trajectory
    return (
        f"world {world.name} (remove_rule={rule}): §4.6 trajectory differs, "
        f"core vs oracle\n"
        f"  core {core_iterations} iteration(s), converged={core_converged}; "
        f"oracle {oracle_iterations} iteration(s), converged={oracle_converged}"
    )


def reference_state(
    world: World, prefix: int, config: MapItConfig, ip2as: Optional[IP2AS] = None
) -> Tuple[str, str]:
    """(§4.6 fingerprint, result JSON) of a batch run over the first
    *prefix* traces of *world* — what a quiesced serve state must equal.

    *ip2as* is the world's mapper when the caller already built one.
    """
    graph, _ = graph_from_traces(world.traces[:prefix])
    if ip2as is None:
        ip2as = world.ip2as()
    mapit = MapIt(graph, ip2as, world.as2org, world.relationships, config)
    result = mapit.run()
    return mapit.engine.state.fingerprint(), result.to_json(indent=2)


def _replay_serve(
    world: World, config: MapItConfig, check_every: int
) -> Tuple[int, Optional[int], str]:
    """Fold *world* trace by trace, quiescing after every fold, and
    compare every *check_every*-th prefix and the last with
    :func:`reference_state`.  The world's mapper is built once, for
    the index and every reference run alike.

    Returns ``(prefixes compared, first diverging prefix or None,
    its report)``; a cadence of 0 replays nothing.
    """
    if check_every <= 0:
        return 0, None, ""
    # Imported here so that loading repro.diff loads no serve code; the
    # dependency runs one way only (the daemon never loads repro.diff).
    from repro.serve.incremental import IncrementalIndex

    ip2as = world.ip2as()
    index = IncrementalIndex(
        ip2as, org=world.as2org, rel=world.relationships, config=config
    )
    total = len(world.traces)
    compared = 0
    for prefix, trace in enumerate(world.traces, start=1):
        index.fold([trace])
        result = index.quiesce()
        if prefix % check_every and prefix != total:
            continue
        compared += 1
        batch_fp, batch_json = reference_state(world, prefix, config, ip2as)
        serve_fp, serve_json = index.fingerprint(), result.to_json(indent=2)
        if serve_fp != batch_fp or serve_json != batch_json:
            report = (
                f"world {world.name} (remove_rule={config.remove_rule}): "
                f"first divergence, serve vs batch at prefix {prefix}\n"
                f"  batch {batch_fp[:12]} vs serve {serve_fp[:12]}, "
                f"json_equal={serve_json == batch_json}"
            )
            return compared, prefix, report
    return compared, None, ""


def compare_world(
    world: World,
    remove_rule: str = REMOVE_MAJORITY,
    config: Optional[MapItConfig] = None,
    obs: Observability = NULL_OBS,
    check_every: int = 0,
    chaos: Sequence[str] = (),
) -> WorldOutcome:
    """Run oracle and core on *world* and diff the final inferences and
    the §4.6 trajectory (iterations, converged); with *check_every* >
    0, also replay serve against batch at that prefix cadence
    (:func:`_replay_serve`); with *chaos* schedules, also hold the
    CLI's faulted runs to the core run's bytes
    (:func:`repro.diff.chaos.run_schedules`, which runs ``serial``
    first)."""
    if config is None:
        config = MapItConfig(remove_rule=remove_rule)
    with obs.span("diff/world"):
        graph = build_graph(world)
        core_map, mapit, result = core_records(graph, world, config)
        oracle_map, oracle_result = oracle_records(
            graph, world, oracle_config_for(config)
        )
        prefixes, serve_prefix, serve_report = _replay_serve(world, config, check_every)
        runs: List[ChaosRun] = []
        if chaos:
            # Imported here, as the serve replay is, so that loading
            # repro.diff loads no chaos code.
            from repro.diff.chaos import run_schedules

            expected = result.to_json(indent=2) + "\n"
            runs = run_schedules(world, config, expected, chaos)
    core_trajectory = (result.iterations, result.converged)
    oracle_trajectory = (oracle_result.iterations, oracle_result.converged)
    outcome = WorldOutcome(
        world=world.name,
        remove_rule=remove_rule,
        core_inferences=len(core_map),
        oracle_inferences=len(oracle_map),
        trajectory=(
            None
            if core_trajectory == oracle_trajectory
            else (core_trajectory, oracle_trajectory)
        ),
        prefixes=prefixes,
        serve_prefix=serve_prefix,
        chaos=runs,
    )
    for half in sorted(set(core_map) | set(oracle_map)):
        core = core_map.get(half)
        oracle = oracle_map.get(half)
        if core != oracle:
            outcome.divergences.append(Divergence(half, core, oracle))
    reports = []
    if outcome.divergences:
        reports.append(first_divergence_report(
            world, remove_rule, outcome.divergences[0], mapit, oracle_result
        ))
    if outcome.trajectory is not None:
        reports.append(trajectory_report(world, remove_rule, outcome.trajectory))
    if serve_report:
        reports.append(serve_report)
    reports.extend(outcome.chaos_line(run) for run in runs if run.failure)
    outcome.report = "\n".join(reports)
    if obs.enabled:
        obs.inc("diff.worlds")
        obs.inc("diff.divergences", outcome.divergence_count)
        if check_every > 0:
            obs.inc("diff.prefixes", outcome.prefixes)
    return outcome


def world_diverges(
    world: World, remove_rule: str = REMOVE_MAJORITY, check_every: int = 0
) -> bool:
    """The shrinker's predicate: does *world* still diverge (from the
    oracle, in records or trajectory, or, with a cadence, serve from
    batch)?"""
    try:
        return not compare_world(world, remove_rule, check_every=check_every).ok
    except Exception as exc:
        # A world mutilated into an outright crash is not a
        # reproduction of the original divergence; the shrinker must
        # reject the step, not die mid-minimization.
        logging.getLogger(__name__).debug(
            "shrink candidate %s crashed: %s: %s",
            world.name,
            type(exc).__name__,
            exc,
        )
        return False
