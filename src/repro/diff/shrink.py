"""Delta-debugging shrinker for diverging worlds.

When the harness finds a world on which oracle and production engine
disagree, this module minimizes it while the disagreement persists —
classic ddmin over three granularities, coarse to fine:

1. **traces** — drop whole traces (ddmin with increasing chunk
   granularity);
2. **routers** — excise all of one router's interface addresses from
   every trace (using the router map the simulator exported);
3. **ASes** — excise all addresses of one ground-truth AS, and prune
   the AS from the raw datasets.

Each accepted step keeps the world diverging, so the end state is a
locally-minimal reproduction; :func:`write_regression` persists it as
a normal dataset bundle under ``tests/fixtures/regressions/`` where CI
replays it forever (docs/DIFFERENTIAL_TESTING.md).

Hop excision drops hops rather than splitting traces; the two hops
around an excised router become adjacent, which can in principle
create new neighbor-set members.  That is fine for ddmin — the
predicate re-checks divergence after every candidate step and rejects
any that stop diverging — it only means minimality is local, like all
delta debugging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.bgp.cymru import CymruTable
from repro.bgp.table import CollectorDump
from repro.diff.harness import world_diverges
from repro.diff.worlds import World
from repro.ixp.dataset import IXPDataset
from repro.obs.observer import NULL_OBS, Observability
from repro.org.as2org import AS2Org
from repro.rel.relationships import RelationshipDataset
from repro.traceroute.model import Trace

Predicate = Callable[[World], bool]


@dataclass
class ShrinkReport:
    """What the shrinker did to one diverging world."""

    world: str
    original_traces: int
    final_traces: int = 0
    routers_removed: int = 0
    ases_removed: int = 0
    tests_run: int = 0
    stages: List[str] = field(default_factory=list)


def divergence_predicate(remove_rule: str, check_every: int = 0) -> Predicate:
    """The standard predicate: the world still diverges under *rule*
    (from the oracle, or serve from batch at the *check_every* cadence)."""

    def predicate(world: World) -> bool:
        return world_diverges(world, remove_rule, check_every)

    return predicate


def _ddmin_traces(
    world: World, predicate: Predicate, report: ShrinkReport
) -> World:
    """Zeller-style ddmin over the trace list."""
    traces: List[Trace] = list(world.traces)
    chunks = 2
    while len(traces) >= 2:
        size = max(1, len(traces) // chunks)
        reduced = False
        start = 0
        while start < len(traces):
            candidate_traces = traces[:start] + traces[start + size:]
            if not candidate_traces:
                start += size
                continue
            candidate = world.replaced(traces=candidate_traces)
            report.tests_run += 1
            if predicate(candidate):
                traces = candidate_traces
                chunks = max(2, chunks - 1)
                reduced = True
            else:
                start += size
        if not reduced:
            if size <= 1:
                break
            chunks = min(len(traces), chunks * 2)
    return world.replaced(traces=traces)


def _excise_addresses(traces: Sequence[Trace], doomed: Set[int]) -> List[Trace]:
    """Drop every hop whose address is in *doomed*; traces left with
    fewer than two hops carry no adjacency and are dropped whole."""
    kept: List[Trace] = []
    for trace in traces:
        hops = tuple(hop for hop in trace.hops if hop.address not in doomed)
        if len(hops) == len(trace.hops):
            kept.append(trace)
        elif len(hops) >= 2:
            kept.append(trace.replace_hops(hops))
    return kept


def _shrink_routers(
    world: World, predicate: Predicate, report: ShrinkReport
) -> World:
    """Try excising each simulator router's addresses, one at a time."""
    if not world.router_addresses:
        return world
    current = world
    used = {hop.address for trace in current.traces for hop in trace.hops}
    for router in sorted(current.router_addresses):
        addresses = set(current.router_addresses[router])
        if not addresses & used:
            continue
        candidate = current.replaced(
            traces=_excise_addresses(current.traces, addresses),
            router_addresses={
                key: value
                for key, value in current.router_addresses.items()
                if key != router
            },
        )
        if not candidate.traces:
            continue
        report.tests_run += 1
        if predicate(candidate):
            current = candidate
            used = {hop.address for trace in current.traces for hop in trace.hops}
            report.routers_removed += 1
    return current


def _drop_as_from_datasets(world: World, asn: int) -> World:
    """Remove *asn* from every raw dataset (announcements it
    originates, its cymru rows, IXP records, sibling membership, and
    relationship edges)."""
    dumps = []
    for dump in world.collector_dumps:
        pruned = CollectorDump(name=dump.name, location=dump.location)
        for announcement in dump:
            if announcement.origin != asn:
                pruned.add(announcement)
        dumps.append(pruned)
    cymru = CymruTable()
    for prefix, origin in world.cymru.items():
        if origin != asn:
            cymru.add(prefix, origin)
    ixp = IXPDataset(record for record in world.ixp if record.asn != asn)
    as2org = AS2Org()
    for index, group in enumerate(world.as2org.groups()):
        remaining = sorted(member for member in group if member != asn)
        if len(remaining) >= 2:
            as2org.add_siblings(remaining, org_name=f"org-{index}")
    relationships = RelationshipDataset()
    for known in world.relationships.all_ases():
        if known == asn:
            continue
        for customer in world.relationships.customers(known):
            if customer != asn:
                relationships.add_p2c(known, customer)
        for peer in world.relationships.peers(known):
            if peer != asn and known < peer:
                relationships.add_p2p(known, peer)
    return world.replaced(
        collector_dumps=dumps,
        cymru=cymru,
        ixp=ixp,
        as2org=as2org,
        relationships=relationships,
        address_as={
            address: owner for address, owner in world.address_as.items() if owner != asn
        },
    )


def _shrink_ases(
    world: World, predicate: Predicate, report: ShrinkReport
) -> World:
    """Try excising each ground-truth AS entirely."""
    if not world.address_as:
        return world
    current = world
    for asn in sorted(set(world.address_as.values())):
        addresses = {
            address for address, owner in current.address_as.items() if owner == asn
        }
        if not addresses:
            continue
        candidate = _drop_as_from_datasets(
            current.replaced(traces=_excise_addresses(current.traces, addresses)), asn
        )
        if not candidate.traces:
            continue
        report.tests_run += 1
        if predicate(candidate):
            current = candidate
            report.ases_removed += 1
    return current


def shrink_world(
    world: World,
    predicate: Predicate,
    obs: Observability = NULL_OBS,
) -> Tuple[World, ShrinkReport]:
    """Minimize *world* while *predicate* (still-diverging) holds.

    The caller must ensure ``predicate(world)`` is True on entry.
    """
    report = ShrinkReport(world=world.name, original_traces=len(world.traces))
    with obs.span("diff/shrink"):
        current = _ddmin_traces(world, predicate, report)
        report.stages.append(f"traces: {report.original_traces} -> {len(current.traces)}")
        current = _shrink_routers(current, predicate, report)
        report.stages.append(f"routers: removed {report.routers_removed}")
        current = _shrink_ases(current, predicate, report)
        report.stages.append(f"ases: removed {report.ases_removed}")
        # One more trace pass: router/AS excision often strands traces.
        current = _ddmin_traces(current, predicate, report)
    report.final_traces = len(current.traces)
    report.stages.append(f"final traces: {report.final_traces}")
    if obs.enabled:
        obs.inc("diff.shrink.runs")
        obs.inc("diff.shrink.tests", report.tests_run)
        obs.gauge("diff.shrink.final_traces", report.final_traces)
    return current.replaced(name=f"{world.name}+shrunk"), report


def regression_name(world: World, remove_rule: str) -> str:
    """A stable directory name for a checked-in repro bundle."""
    base = world.name.replace("+", "-")
    return f"{base}-{remove_rule}"


def write_regression(
    world: World,
    remove_rule: str,
    directory: Union[str, Path],
    extra_manifest: Optional[Dict] = None,
    check_every: int = 0,
) -> Path:
    """Persist a minimal diverging world under *directory* (typically
    ``tests/fixtures/regressions/``) for permanent replay under the
    remove rule and serve cadence it diverged at."""
    recorded = {"remove_rule": remove_rule, "check_every": check_every}
    recorded.update(extra_manifest or {})
    root = Path(directory) / regression_name(world, remove_rule)
    return world.replaced(recorded=recorded).save(root)
