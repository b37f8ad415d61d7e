"""Named scenario presets.

* :func:`small_scenario` — seconds-fast, for unit tests and examples;
* :func:`paper_scenario` — the evaluation-scale topology used by every
  benchmark: three tier-1s (two of which play Level 3 / TeliaSonera),
  an Internet2-like R&E network with a customer cone that numbers
  transit links from customer space, a deep tier-2/regional hierarchy,
  IXPs, sibling organizations, and a large stub population with NATed
  and low-visibility members;
* :func:`dense_scenario` — a heavier variant for scaling studies.
"""

from __future__ import annotations

from repro.sim.asgraph import ASGraphConfig
from repro.sim.scenario import Scenario, ScenarioConfig, build_scenario
from repro.sim.stress import StressConfig


def tiny_config(seed: int = 0) -> ScenarioConfig:
    """The smallest world that still exercises every pass.

    Sub-second end to end — sized for the chaos harness, which runs the
    full pipeline many times per schedule (golden run, faulted run,
    resumed run) and needs each to be cheap.
    """
    return ScenarioConfig(
        seed=seed,
        as_graph=ASGraphConfig(
            tier1_count=2,
            tier2_count=2,
            regional_count=3,
            stub_count=6,
            re_customer_count=2,
            sibling_group_count=1,
            ixp_count=1,
        ),
        monitor_count=3,
        targets_per_prefix=2,
        collector_count=2,
    )


def small_config(seed: int = 0) -> ScenarioConfig:
    """A tiny world: ~30 ASes, a few hundred traces."""
    return ScenarioConfig(
        seed=seed,
        as_graph=ASGraphConfig(
            tier1_count=2,
            tier2_count=4,
            regional_count=5,
            stub_count=12,
            re_customer_count=5,
            sibling_group_count=1,
            ixp_count=1,
        ),
        monitor_count=5,
        targets_per_prefix=3,
        collector_count=3,
    )


def paper_config(seed: int = 0) -> ScenarioConfig:
    """The evaluation-scale world behind the table/figure benchmarks."""
    return ScenarioConfig(
        seed=seed,
        as_graph=ASGraphConfig(
            tier1_count=3,
            tier2_count=12,
            regional_count=20,
            stub_count=70,
            re_customer_count=16,
            sibling_group_count=4,
            ixp_count=2,
        ),
        monitor_count=16,
        targets_per_prefix=6,
        collector_count=8,
    )


def dense_config(seed: int = 0) -> ScenarioConfig:
    """A heavier world for scaling and robustness studies."""
    return ScenarioConfig(
        seed=seed,
        as_graph=ASGraphConfig(
            tier1_count=4,
            tier2_count=18,
            regional_count=30,
            stub_count=120,
            re_customer_count=20,
            sibling_group_count=6,
            ixp_count=3,
        ),
        monitor_count=24,
        targets_per_prefix=8,
        collector_count=10,
    )


def stress_config(seed: int = 0) -> StressConfig:
    """The acceptance-tier stress world: 10⁴ ASes, shard-streamed.

    Built by :mod:`repro.sim.stress`, not the network simulator —
    traces arrive as generated :class:`~repro.perf.flat.FlatTraces`
    blocks and are never fully resident.
    """
    return StressConfig(
        seed=seed, as_count=10_000, monitor_count=8, trace_count=150_000
    )


def stress_large_config(seed: int = 0) -> StressConfig:
    """The top of the stress tier: 10⁵ ASes, million-trace campaigns."""
    return StressConfig(
        seed=seed, as_count=100_000, monitor_count=16, trace_count=1_000_000
    )


def stress_smoke_config(seed: int = 0) -> StressConfig:
    """A seconds-fast stress world for CI smoke and unit tests.

    Small enough to fold quickly, large enough that the campaign spans
    many generated shards — the streaming accounting still means
    something.
    """
    return StressConfig(
        seed=seed,
        as_count=2_000,
        monitor_count=4,
        trace_count=12_000,
        shard_size=1024,
    )


#: simulator-built worlds by name (simulate, experiment, chaos, sweep;
#: a sweep materializes them to dataset directories when it needs them)
SCENARIO_PRESETS = {
    "tiny": tiny_config,
    "small": small_config,
    "paper": paper_config,
    "dense": dense_config,
}


def tiny_scenario(seed: int = 0) -> Scenario:
    return build_scenario(tiny_config(seed))


def small_scenario(seed: int = 0) -> Scenario:
    return build_scenario(small_config(seed))


def paper_scenario(seed: int = 0) -> Scenario:
    return build_scenario(paper_config(seed))


def dense_scenario(seed: int = 0) -> Scenario:
    return build_scenario(dense_config(seed))
