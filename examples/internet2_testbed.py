#!/usr/bin/env python3
"""The paper's Internet2 neighborhood, end to end.

`repro.sim.internet2` hand-builds the world of Figs 1, 2 and 5 with
the paper's literal addresses: NORDUnet peering at New York over
109.105.98.8/30 (so the New York router's ingress is 109.105.98.10),
NYSERNet's customer-space-numbered 199.109.5.0/30, U. Montana's two
Internet2-numbered links, and UPenn sitting behind MAGPI.  This
example traces through it with the real simulator, runs MAP-IT, and
prints each inferred link with the networks' names — then explains
the headline interface the way section 3.1 does.

Run:  python examples/internet2_testbed.py
"""

from repro import MapItConfig
from repro.analysis import explain_interface
from repro.core.mapit import MapIt
from repro.graph.neighbors import build_interface_graph
from repro.net.ipv4 import parse_address
from repro.sim.internet2 import internet2_testbed


def main() -> None:
    testbed = internet2_testbed()
    traces = testbed.trace_all(flows=2, targets_per_as=4)
    print(
        f"testbed: {len(testbed.graph)} ASes, "
        f"{len(testbed.network.routers)} routers, {len(traces)} traces "
        f"from {len(testbed.monitors)} monitors"
    )

    graph = build_interface_graph(traces)
    mapit = MapIt(
        graph,
        testbed.ip2as,
        org=testbed.as2org,
        rel=testbed.relationships,
        config=MapItConfig(f=0.5),
    )
    result = mapit.run()

    print("\ninferred inter-AS links:")
    for inference in result.inferences:
        local = testbed.names.get(inference.local_as, f"AS{inference.local_as}")
        remote = testbed.names.get(inference.remote_as, f"AS{inference.remote_as}")
        print(f"  {inference}   # {local} <-> {remote}")

    print("\n--- the section 3.1 walk-through, automated ---")
    print(explain_interface(mapit, parse_address("109.105.98.10")).render())

    truth = testbed.ground_truth
    observed = [i for i in result.inferences if i.kind != "indirect"]
    correct = sum(
        1 for i in observed if truth.connected_pair(i.address) == i.pair()
    )
    print(
        f"\nagainst the testbed's ground truth: {correct}/{len(observed)} "
        f"directly-observed inferences are exactly right"
    )


if __name__ == "__main__":
    main()
