"""MAP-IT: Multipass Accurate Passive Inferences from Traceroute.

A complete reproduction of Marder & Smith, IMC 2016: the MAP-IT
algorithm for inferring inter-AS link interfaces from traceroute data,
together with every substrate it consumes (BGP-derived IP-to-AS
mapping, IXP/sibling/relationship datasets, trace sanitization), the
baselines it is compared against, a synthetic-Internet simulator that
stands in for the CAIDA ARK measurement infrastructure, and the
evaluation harness regenerating the paper's tables and figures.

Quickstart::

    from repro import MapItConfig, run_mapit
    from repro.sim.scenario import ScenarioConfig, build_scenario

    scenario = build_scenario(ScenarioConfig(seed=7))
    result = run_mapit(
        scenario.traces,
        scenario.ip2as,
        org=scenario.as2org,
        rel=scenario.relationships,
        config=MapItConfig(f=0.5),
    )
    for inference in result.inferences[:10]:
        print(inference)
"""

from repro.core import LinkInference, MapIt, MapItConfig, MapItResult, run_mapit

__version__ = "1.0.0"

__all__ = [
    "LinkInference",
    "MapIt",
    "MapItConfig",
    "MapItResult",
    "run_mapit",
    "__version__",
]
