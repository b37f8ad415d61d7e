"""Shared experiment plumbing for all tables and figures.

One :class:`Experiment` prepares everything the evaluations need from a
scenario: sanitized traces, the interface graph, the Internet2-style
complete verification dataset for the R&E network, and DNS-derived
approximate datasets for the two tier-1 operators — mirroring the
paper's three verification networks (labelled I2, T1-A, T1-B here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core import MapIt, MapItConfig, MapItResult
from repro.core.results import LinkInference
from repro.eval.metrics import Score
from repro.eval.verify import (
    VerificationDataset,
    build_verification,
    score_inferences,
)
from repro.graph.neighbors import InterfaceGraph, graph_from_traces
from repro.obs.observer import Observability
from repro.sim.scenario import Scenario
from repro.traceroute.sanitize import SanitizeReport


@dataclass
class Experiment:
    """A scenario plus everything derived from it for evaluation."""

    scenario: Scenario
    report: SanitizeReport
    graph: InterfaceGraph
    seen: Set[int]
    datasets: Dict[str, VerificationDataset] = field(default_factory=dict)

    def labels(self) -> List[str]:
        return list(self.datasets)

    def new_mapit(
        self,
        config: Optional[MapItConfig] = None,
        obs: Optional[Observability] = None,
    ) -> MapIt:
        """A MAP-IT instance over this experiment's interface graph."""
        scenario = self.scenario
        return MapIt(
            self.graph,
            scenario.ip2as,
            org=scenario.as2org,
            rel=scenario.relationships,
            config=config,
            obs=obs,
        )

    def run_mapit(
        self,
        config: Optional[MapItConfig] = None,
        obs: Optional[Observability] = None,
    ) -> MapItResult:
        return self.new_mapit(config, obs=obs).run()

    def score(self, inferences: List[LinkInference]) -> Dict[str, Score]:
        """Score one inference list against every verification network."""
        return {
            label: score_inferences(
                inferences, dataset, self.scenario.as2org, self.graph
            )
            for label, dataset in self.datasets.items()
        }


def prepare_experiment(
    scenario: Scenario,
    dns_for_tier1: bool = True,
    hostname_coverage: float = 0.9,
    hostname_staleness: float = 0.02,
) -> Experiment:
    """Sanitize, build the graph, and assemble verification datasets."""
    graph, report = graph_from_traces(scenario.traces)
    seen = set(report.retained_addresses)
    experiment = Experiment(
        scenario=scenario, report=report, graph=graph, seen=seen
    )
    address_as = scenario.ip2as.asn
    if scenario.re_asn is not None:
        experiment.datasets["I2"] = build_verification(
            scenario.ground_truth,
            scenario.re_asn,
            graph,
            seen,
            address_as,
            complete=True,
        )
    tier1s = scenario.tier1_asns[:2]
    if dns_for_tier1 and tier1s:
        # Imported here, not at module top: repro.dns itself depends on
        # repro.eval.verify, and importing it eagerly would close an
        # import cycle through this package's __init__.
        from repro.dns.naming import generate_hostnames
        from repro.dns.verification import build_dns_verification, tag_table

        hostnames = generate_hostnames(
            scenario.network,
            scenario.ground_truth,
            tier1s,
            seed=scenario.config.seed,
            coverage=hostname_coverage,
            stale_probability=hostname_staleness,
        )
        tags = tag_table(scenario.network)
        for index, asn in enumerate(tier1s):
            label = f"T1-{chr(ord('A') + index)}"
            experiment.datasets[label] = build_dns_verification(
                asn, hostnames, graph, seen, address_as, tags
            )
    else:
        for index, asn in enumerate(tier1s):
            label = f"T1-{chr(ord('A') + index)}"
            experiment.datasets[label] = build_verification(
                scenario.ground_truth, asn, graph, seen, address_as, complete=True
            )
    return experiment
