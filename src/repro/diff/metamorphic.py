"""Metamorphic invariants of the production engine.

Three transformations of a world must leave the production engine's
final inferences unchanged:

* **trace-order permutation** — §4.4.5 promises order-independent
  results (passes read snapshots, candidate sets are sorted);
* **duplicate-trace injection** — neighbor sets are *sets*, so
  replaying the same paths adds no members and no inferences;
* **AS renumbering (order-preserving)** — absolute AS numbers carry no
  information; only identity, sibling grouping, and (for the ordinal
  tie-break) relative order matter, so relabeling must relabel the
  output and nothing else.

Unlike the differential harness these checks need no oracle: the
engine is compared against itself on transformed inputs, which catches
bug classes (hidden ordering dependence, tally accumulation across
duplicates, absolute-ASN comparisons) that oracle agreement alone
would miss if both implementations shared the assumption.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import MapItConfig, REMOVE_MAJORITY
from repro.diff.harness import Record, build_graph, core_records
from repro.diff.worlds import (
    World,
    duplicate_traces,
    permute_traces,
    renumber_ases,
)
from repro.obs.observer import NULL_OBS, Observability

Half = Tuple[int, bool]

#: names of the invariant checks, in run order
CHECKS = ("permutation", "duplication", "renumbering")


@dataclass
class MetamorphicFailure:
    """One invariant violation: the first half whose inference changed."""

    world: str
    check: str
    half: Half
    baseline: Optional[Record]
    transformed: Optional[Record]

    def summary(self) -> str:
        return (
            f"world {self.world}: {self.check} changed half {self.half}: "
            f"{self.baseline} -> {self.transformed}"
        )


@dataclass
class MetamorphicOutcome:
    """All invariant checks of one world."""

    world: str
    checks: int = 0
    failures: List[MetamorphicFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _engine_map(world: World, config: MapItConfig) -> Dict[Half, Record]:
    graph = build_graph(world)
    records, _, _ = core_records(graph, world, config)
    return records


def _diff_maps(
    world: str,
    check: str,
    baseline: Dict[Half, Record],
    transformed: Dict[Half, Record],
) -> List[MetamorphicFailure]:
    failures = []
    for half in sorted(set(baseline) | set(transformed)):
        if baseline.get(half) != transformed.get(half):
            failures.append(
                MetamorphicFailure(
                    world, check, half, baseline.get(half), transformed.get(half)
                )
            )
    return failures


def _relabel(records: Dict[Half, Record], mapping: Dict[int, int]) -> Dict[Half, Record]:
    """Apply an AS relabeling to an inference map (addresses fixed)."""
    relabeled: Dict[Half, Record] = {}
    for half, (local, remote, kind, uncertain) in records.items():
        relabeled[half] = (
            mapping.get(local, local),
            mapping.get(remote, remote),
            kind,
            uncertain,
        )
    return relabeled


def check_world(
    world: World,
    remove_rule: str = REMOVE_MAJORITY,
    seed: int = 0,
    obs: Observability = NULL_OBS,
) -> MetamorphicOutcome:
    """Run all three invariant checks against *world*."""
    config = MapItConfig(remove_rule=remove_rule)
    outcome = MetamorphicOutcome(world=world.name)
    with obs.span("diff/metamorphic"):
        baseline = _engine_map(world, config)

        rng = random.Random(seed)
        permuted = _engine_map(permute_traces(world, rng), config)
        outcome.checks += 1
        outcome.failures.extend(
            _diff_maps(world.name, "permutation", baseline, permuted)
        )

        rng = random.Random(seed + 1)
        duplicated = _engine_map(duplicate_traces(world, rng), config)
        outcome.checks += 1
        outcome.failures.extend(
            _diff_maps(world.name, "duplication", baseline, duplicated)
        )

        rng = random.Random(seed + 2)
        renumbered_world, mapping = renumber_ases(world, rng)
        renumbered = _engine_map(renumbered_world, config)
        outcome.checks += 1
        outcome.failures.extend(
            _diff_maps(
                world.name, "renumbering", _relabel(baseline, mapping), renumbered
            )
        )
    if obs.enabled:
        obs.inc("diff.metamorphic.checks", outcome.checks)
        obs.inc("diff.metamorphic.failures", len(outcome.failures))
    return outcome
