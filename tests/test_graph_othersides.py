"""Tests for the /30-vs-/31 other-side heuristic (paper section 4.2)."""

import copy

from repro.net.ipv4 import parse_address
from repro.graph.othersides import block_members, infer_other_sides, patch_other_sides


def addr(text: str) -> int:
    return parse_address(text)


class TestHeuristic:
    def test_lone_middle_address_assumed_30(self):
        """A valid /30 host with no conflicting observation keeps /30."""
        a = addr("9.0.0.1")
        table = infer_other_sides([a])
        assert table.other_side[a] == addr("9.0.0.2")
        assert a not in table.from_31

    def test_reserved_address_must_be_31(self):
        """x.x.x.0 cannot be a /30 host, so it is /31-addressed."""
        a = addr("9.0.0.0")
        table = infer_other_sides([a])
        assert table.other_side[a] == addr("9.0.0.1")
        assert a in table.from_31

    def test_broadcast_address_must_be_31(self):
        a = addr("9.0.0.3")
        table = infer_other_sides([a])
        assert table.other_side[a] == addr("9.0.0.2")
        assert a in table.from_31

    def test_observed_reserved_sibling_forces_31(self):
        """Seeing the /30's network address proves .1 is /31-addressed."""
        a, proof = addr("9.0.0.1"), addr("9.0.0.0")
        table = infer_other_sides([a, proof])
        assert table.other_side[a] == addr("9.0.0.0")
        assert a in table.from_31

    def test_observed_broadcast_sibling_forces_31(self):
        a, proof = addr("9.0.0.2"), addr("9.0.0.3")
        table = infer_other_sides([a, proof])
        assert table.other_side[a] == addr("9.0.0.3")
        assert a in table.from_31

    def test_plain_30_pair(self):
        a, b = addr("9.0.0.1"), addr("9.0.0.2")
        table = infer_other_sides([a, b])
        assert table.other_side[a] == b
        assert table.other_side[b] == a

    def test_paper_example(self):
        """109.105.98.10 (a /30 middle host, .8/.11 unseen) pairs with .9."""
        a = addr("109.105.98.10")
        table = infer_other_sides([a])
        assert table.other_side[a] == addr("109.105.98.9")

    def test_fraction_31(self):
        table = infer_other_sides([addr("9.0.0.0"), addr("9.0.1.1")])
        assert abs(table.fraction_31() - 0.5) < 1e-9

    def test_empty(self):
        table = infer_other_sides([])
        assert table.fraction_31() == 0.0
        assert not table.other_side

    def test_scenario_fraction_is_near_paper(self, experiment):
        """The simulator is calibrated near the paper's 40.4% /31 rate."""
        fraction = experiment.graph.other_sides.fraction_31()
        assert 0.25 < fraction < 0.6


class TestBlockPatch:
    def test_new_network_address_rejudges_its_block_only(self):
        """A block's network address arriving flips both middle hosts
        to /31; a neighbouring block keeps its /30 pair."""
        observed = {addr("9.0.0.1"), addr("9.0.0.2"), addr("9.0.0.5")}
        table = infer_other_sides(observed)
        observed.add(addr("9.0.0.0"))
        judged = block_members([addr("9.0.0.0")], observed.__contains__)
        assert judged == [addr("9.0.0.0"), addr("9.0.0.1"), addr("9.0.0.2")]
        patched = patch_other_sides(table, judged)
        assert patched == infer_other_sides(observed)
        assert patched.other_side[addr("9.0.0.5")] == addr("9.0.0.6")
        assert addr("9.0.0.1") in patched.from_31

    def test_patch_never_mutates_the_previous_table(self):
        table = infer_other_sides([addr("9.0.0.1")])
        frozen = copy.deepcopy(table)
        patch_other_sides(table, [addr("9.0.0.1"), addr("9.0.0.3")])
        assert table == frozen

    def test_unobserved_additions_judge_nothing(self):
        assert block_members([addr("10.0.0.1")], lambda address: False) == []
        assert patch_other_sides(None, []) == infer_other_sides([])
