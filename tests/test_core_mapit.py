"""End-to-end tests of the MAP-IT algorithm on the paper's worked
examples: the Fig 2 multipass refinement, the Fig 4 dual-inference
resolution, the Fig 5 inverse-inference removal (and its uncertain
variant), the Alg 4 stub heuristic, and the Alg 3 remove step."""

from repro import MapItConfig, run_mapit
from repro.bgp.ip2as import IP2AS
from repro.net.ipv4 import parse_address
from repro.rel.relationships import RelationshipDataset
from repro.traceroute.parse import parse_text_traces


def addr(text: str) -> int:
    return parse_address(text)


def run(lines, pairs, f=0.5, org=None, rel=None, **config_kwargs):
    config = MapItConfig(f=f, **config_kwargs)
    return run_mapit(
        list(parse_text_traces(lines)),
        IP2AS.from_pairs(pairs),
        org=org,
        rel=rel,
        config=config,
    )


def inference_on(result, address_text, forward=None):
    matches = [
        inference
        for inference in result.inferences
        if inference.address == addr(address_text)
        and (forward is None or inference.forward == forward)
    ]
    return matches


class TestFig2Multipass:
    """The Fig 2 neighborhood: 199.109.5.1_b is only inferable after
    the mappings of the New York router's ingress interfaces are
    refined to AS11537 (section 4.4.1's worked example)."""

    PAIRS = [
        ("109.105.98.0/24", 2603),
        ("216.249.136.0/24", 237),
        ("198.71.44.0/22", 11537),
        ("199.109.5.0/24", 3754),
    ]
    LINES = [
        "m1|198.71.46.99|109.105.98.10 198.71.46.180",
        "m1|198.71.45.99|109.105.98.10 198.71.45.2",
        "m1|199.109.5.99|109.105.98.10 199.109.5.1 199.109.5.99",
        "m2|198.71.46.99|216.249.136.196 198.71.46.180",
        "m2|198.71.45.99|216.249.136.196 198.71.45.2",
        "m2|199.109.5.98|216.249.136.196 199.109.5.1 199.109.5.98",
    ]

    def test_first_pass_infers_ingress_interfaces(self):
        result = run(self.LINES, self.PAIRS)
        (nordunet,) = inference_on(result, "109.105.98.10", forward=True)
        assert nordunet.pair() == (2603, 11537)
        (merit,) = inference_on(result, "216.249.136.196", forward=True)
        assert merit.pair() == (237, 11537)

    def test_second_pass_infers_nyser_link(self):
        """Initially tied (AS2603 vs AS237); after both mappings refine
        to AS11537, the backward inference can be made."""
        result = run(self.LINES, self.PAIRS)
        inferences = inference_on(result, "199.109.5.1", forward=False)
        assert len(inferences) == 1
        assert inferences[0].pair() == (3754, 11537)

    def test_indirect_inference_on_other_sides(self):
        """Section 4.4.2: the other side of each inferred link half is
        inferred indirectly — 109.105.98.9 and 199.109.5.2."""
        result = run(self.LINES, self.PAIRS)
        (other,) = inference_on(result, "109.105.98.9")
        assert other.kind == "indirect"
        assert other.pair() == (2603, 11537)
        (nyser_other,) = inference_on(result, "199.109.5.2")
        assert nyser_other.pair() == (3754, 11537)

    def test_internal_interface_not_inferred(self):
        """198.71.46.180's N_B refines to all-AS11537 — internal."""
        result = run(self.LINES, self.PAIRS)
        assert inference_on(result, "198.71.46.180") == []

    def test_determinism(self):
        first = run(self.LINES, self.PAIRS)
        second = run(self.LINES, self.PAIRS)
        assert [str(i) for i in first.inferences] == [
            str(i) for i in second.inferences
        ]

    def test_convergence_flag(self):
        result = run(self.LINES, self.PAIRS)
        assert result.converged
        assert result.iterations <= 4


class TestFig4DualInference:
    """A third-party address (Fig 4): 212.113.9.210 in AS3356 shows
    AS51159 forward and AS1299 backward; the forward inference is the
    correct one and the backward is discarded."""

    PAIRS = [
        ("212.113.9.0/24", 3356),
        ("62.115.0.0/16", 1299),
        ("91.228.0.0/16", 51159),
    ]
    LINES = [
        "m1|91.228.0.99|62.115.0.1 212.113.9.210 91.228.0.1",
        "m2|91.228.0.98|62.115.0.5 212.113.9.210 91.228.0.5",
    ]

    def test_forward_kept_backward_dropped(self):
        result = run(self.LINES, self.PAIRS)
        forward = inference_on(result, "212.113.9.210", forward=True)
        backward = inference_on(result, "212.113.9.210", forward=False)
        assert len(forward) == 1
        assert forward[0].pair() == (3356, 51159)
        assert backward == []
        assert result.diagnostics["dual_resolved"] >= 1

    def test_same_as_duals_both_kept(self):
        """When both inferences involve the same AS (load balancing or
        outgoing interfaces), both are retained."""
        pairs = [("212.113.9.0/24", 3356), ("62.115.0.0/16", 1299)]
        lines = [
            "m1|62.115.9.99|62.115.0.1 212.113.9.210 62.115.9.1",
            "m2|62.115.9.98|62.115.0.5 212.113.9.210 62.115.9.5",
        ]
        result = run(lines, pairs)
        forward = inference_on(result, "212.113.9.210", forward=True)
        backward = inference_on(result, "212.113.9.210", forward=False)
        assert len(forward) == 1 and len(backward) == 1
        assert result.diagnostics["dual_same_as"] >= 1

    def test_ablation_switch(self):
        result = run(self.LINES, self.PAIRS, fix_dual_inferences=False)
        backward = inference_on(result, "212.113.9.210", forward=False)
        assert len(backward) == 1  # contradiction left in place


class TestFig5InverseInference:
    """Fig 5: mistaken backward inferences one hop past the true border
    are removed in favour of the topologically nearer forward one."""

    PAIRS = [
        ("198.71.44.0/22", 11537),
        ("192.73.48.0/24", 3807),
    ]
    LINES = [
        "m1|192.73.48.99|198.71.45.10 198.71.46.197 192.73.48.120 192.73.48.99",
        "m2|192.73.48.98|198.71.45.14 198.71.46.197 192.73.48.124 192.73.48.98",
        "m3|192.73.48.97|198.71.45.18 198.71.46.217 192.73.48.120 192.73.48.97",
    ]

    def test_forward_kept_backward_removed(self):
        result = run(self.LINES, self.PAIRS)
        (forward,) = inference_on(result, "198.71.46.197", forward=True)
        assert forward.pair() == (3807, 11537)
        assert inference_on(result, "192.73.48.120", forward=False) == []
        assert result.diagnostics["inverse_removed"] >= 1

    def test_uncertain_when_other_side_corroborates(self):
        """When the backward IH's other side also carries a direct
        inference, neither side is nearer: both conflicting inferences
        are classified uncertain (section 4.4.4)."""
        lines = self.LINES + [
            # Traffic leaving AS3807: 192.73.48.121 (other side of
            # .120) sees AS11537 interfaces forward.
            "m4|198.71.45.99|192.73.48.121 198.71.46.198 198.71.45.99",
            "m4|198.71.45.98|192.73.48.121 198.71.46.218 198.71.45.98",
        ]
        result = run(lines, self.PAIRS)
        uncertain_addresses = {i.address for i in result.uncertain}
        assert addr("192.73.48.120") in uncertain_addresses
        assert addr("198.71.46.197") in uncertain_addresses
        confident = {i.address for i in result.inferences}
        assert addr("192.73.48.120") not in confident
        assert result.diagnostics["uncertain_pairs"] >= 1

    def test_ablation_switch(self):
        """With both the inverse fix and the remove step off, the
        mistaken backward inference survives to the output."""
        result = run(
            self.LINES,
            self.PAIRS,
            fix_inverse_inferences=False,
            enable_remove_step=False,
        )
        backward = inference_on(result, "192.73.48.120", forward=False)
        assert len(backward) == 1


class TestStubHeuristic:
    """Alg 4: a NATed stub exposing one address behind the link."""

    PAIRS = [("9.0.0.0/16", 100), ("9.5.0.0/16", 500), ("9.6.0.0/16", 600)]

    def rel(self):
        rel = RelationshipDataset()
        rel.add_p2c(100, 500)  # 500 is a stub customer of 100
        rel.add_p2c(100, 600)
        rel.add_p2c(600, 500)  # 600 has a customer: an ISP, not a stub
        return rel

    LINES = [
        "m1|9.5.0.99|9.0.0.9 9.0.0.33 9.5.0.77",
        "m2|9.5.0.98|9.0.0.13 9.0.0.33 9.5.0.77",
    ]

    def test_stub_link_inferred(self):
        result = run(self.LINES, self.PAIRS, rel=self.rel())
        (inference,) = inference_on(result, "9.0.0.33", forward=True)
        assert inference.kind == "stub"
        assert inference.pair() == (100, 500)

    def test_other_side_updated(self):
        result = run(self.LINES, self.PAIRS, rel=self.rel())
        others = inference_on(result, "9.0.0.34")
        assert len(others) == 1
        assert others[0].kind == "indirect"

    def test_no_inference_for_isp_neighbor(self):
        """A single neighbor belonging to an ISP could be a third-party
        address, so no inference is made (section 4.8 / 5.4)."""
        lines = [
            "m1|9.6.0.99|9.0.0.9 9.0.0.33 9.6.0.77",
            "m2|9.6.0.98|9.0.0.13 9.0.0.33 9.6.0.77",
        ]
        result = run(lines, self.PAIRS, rel=self.rel())
        assert inference_on(result, "9.0.0.33") == []

    def test_no_inference_without_relationships(self):
        """An AS absent from the relationship data is not provably a
        stub, so the heuristic stays quiet."""
        result = run(self.LINES, self.PAIRS, rel=RelationshipDataset())
        assert inference_on(result, "9.0.0.33") == []

    def test_disabled_by_config(self):
        result = run(
            self.LINES, self.PAIRS, rel=self.rel(), enable_stub_heuristic=False
        )
        assert inference_on(result, "9.0.0.33") == []

    def test_same_as_neighbor_no_inference(self):
        lines = [
            "m1|9.0.9.99|9.0.0.9 9.0.0.33 9.0.9.77",
            "m2|9.0.9.98|9.0.0.13 9.0.0.33 9.0.9.77",
        ]
        result = run(lines, self.PAIRS, rel=self.rel())
        assert inference_on(result, "9.0.0.33") == []


class TestRemoveStep:
    """Alg 3: an inference invalidated by refined mappings is demoted
    and discarded, then the half is free to be re-inferred."""

    PAIRS = [
        ("9.0.0.0/16", 100),
        ("9.1.0.0/16", 200),
        ("9.2.0.0/16", 300),
    ]
    # 9.0.0.50's forward set is {9.1.0.1, 9.1.0.5, 9.0.0.60}: initially
    # AS200 dominates, but both 9.1.0.x backward halves are then
    # re-mapped to AS300 (their own backward sets are all-AS300),
    # flipping the verdict.
    LINES = [
        "m1|9.9.0.1|9.0.0.50 9.1.0.1",
        "m2|9.9.0.2|9.0.0.50 9.1.0.5",
        "m3|9.9.0.3|9.0.0.50 9.0.0.60",
        "m4|9.9.0.4|9.2.0.1 9.1.0.1",
        "m4|9.9.0.5|9.2.0.5 9.1.0.1",
        "m5|9.9.0.6|9.2.0.9 9.1.0.5",
        "m5|9.9.0.7|9.2.0.13 9.1.0.5",
    ]

    def test_inference_revised_to_refined_as(self):
        result = run(self.LINES, self.PAIRS)
        inferences = inference_on(result, "9.0.0.50", forward=True)
        assert len(inferences) == 1
        assert inferences[0].remote_as == 300

    def test_without_remove_step_stale_inference_survives(self):
        result = run(self.LINES, self.PAIRS, enable_remove_step=False)
        inferences = inference_on(result, "9.0.0.50", forward=True)
        assert len(inferences) == 1
        assert inferences[0].remote_as == 200

    def test_converges(self):
        result = run(self.LINES, self.PAIRS)
        assert result.converged


class TestStateHashes:
    """§4.6 compares exact state keys; the sha256 fingerprint is only
    for publishing, so a batch run computes none."""

    def test_batch_run_hashes_nothing(self, monkeypatch):
        from repro.core.mapit import run_mapit_graph
        from repro.core.state import MapItState
        from repro.diff.harness import build_graph
        from repro.diff.worlds import world_from_preset

        calls = []
        fingerprint = MapItState.fingerprint
        monkeypatch.setattr(
            MapItState, "fingerprint", lambda self: calls.append(1) or fingerprint(self)
        )
        world = world_from_preset("small", 7)
        result = run_mapit_graph(
            build_graph(world), world.ip2as(), world.as2org, world.relationships
        )
        assert result.converged and result.iterations >= 2
        assert calls == []
