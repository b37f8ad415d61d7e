#!/usr/bin/env python3
"""Network diagnostics with MAP-IT: explanations, AS graphs, and the
traceroute-vs-BGP completeness question.

The paper motivates MAP-IT with diagnostics use-cases — locating AS
boundaries for congestion measurement and failure analysis.  This
example shows the post-inference tooling a diagnostician would use:

* `explain_interface` — the section 3.1 walk-through, automated: why
  exactly was this interface inferred (or not)?
* `ASLinkGraph` — the AS-level adjacency graph implied by the
  inferences, with per-link interface evidence;
* `compare_with_relationships` — which inferred adjacencies are
  confirmed by BGP-derived relationship data, and which are
  traceroute-only.

Run:  python examples/diagnostics.py
"""

from repro import MapItConfig
from repro.analysis import (
    ASLinkGraph,
    compare_with_relationships,
    explain_interface,
    run_report,
)
from repro.core.mapit import MapIt
from repro.graph.neighbors import build_interface_graph
from repro.sim.presets import small_scenario


def main() -> None:
    scenario = small_scenario(seed=7)
    graph = build_interface_graph(scenario.traces)
    mapit = MapIt(
        graph,
        scenario.ip2as,
        org=scenario.as2org,
        rel=scenario.relationships,
        config=MapItConfig(f=0.5),
    )
    result = mapit.run()

    print(run_report(result, scenario.relationships, scenario.as2org))

    # Explain the strongest direct inference in full detail.
    strongest = max(
        (i for i in result.inferences if i.kind == "direct"),
        key=lambda i: len(
            graph.neighbors(i.address, i.forward)
        ),
    )
    print("\n--- explanation of the best-supported inference ---")
    print(explain_interface(mapit, strongest.address).render())

    # The AS-level view, checked against BGP-derived adjacencies.
    as_graph = ASLinkGraph.from_result(
        result, scenario.relationships, scenario.as2org
    )
    comparison = compare_with_relationships(as_graph, scenario.relationships)
    print("\n--- AS-level links vs BGP-derived adjacencies ---")
    print(comparison.summary())
    best = max(as_graph.links(), key=lambda link: link.support)
    print(
        f"best-evidenced AS link: AS{best.pair[0]} <-> AS{best.pair[1]} "
        f"({best.support} interfaces, {sorted(best.kinds)}, "
        f"{best.link_type.value if best.link_type else 'unclassified'})"
    )


if __name__ == "__main__":
    main()
