"""Differential and metamorphic testing of :mod:`repro.core`.

The harness (``python -m repro.diff``, docs/DIFFERENTIAL_TESTING.md)
sweeps seeded :mod:`repro.sim` worlds through both the production
engine and the paper-literal oracle (:mod:`repro.oracle`), diffs the
final inference sets half-by-half, checks metamorphic invariants
(trace-order permutation, duplicate injection, AS renumbering), and
delta-debugs any diverging world down to a minimal regression bundle
under ``tests/fixtures/regressions/``.  On request it also holds serve
to batch at every prefix, and the CLI's runs under the chaos schedules
(:mod:`repro.diff.chaos`, not imported here) to the core run's bytes.
"""

from repro.diff.harness import (
    DEFAULT_RULES,
    ChaosRun,
    Divergence,
    WorldOutcome,
    compare_world,
    world_diverges,
)
from repro.diff.metamorphic import MetamorphicOutcome, check_world
from repro.diff.shrink import (
    ShrinkReport,
    divergence_predicate,
    shrink_world,
    write_regression,
)
from repro.diff.worlds import (
    World,
    world_from_bundle,
    world_from_preset,
    world_from_scenario,
)

__all__ = [
    "DEFAULT_RULES",
    "ChaosRun",
    "Divergence",
    "MetamorphicOutcome",
    "ShrinkReport",
    "World",
    "WorldOutcome",
    "check_world",
    "compare_world",
    "divergence_predicate",
    "shrink_world",
    "world_diverges",
    "world_from_bundle",
    "world_from_preset",
    "world_from_scenario",
    "write_regression",
]
