"""Tests for the section 5.2 verification methodology."""

from repro.core.results import DIRECT, LinkInference
from repro.eval.verify import (
    LinkRecord,
    VerificationDataset,
    build_verification,
    score_inferences,
)
from repro.graph.neighbors import build_interface_graph
from repro.io.truth import BorderInterface, GroundTruth
from repro.net.ipv4 import parse_address
from repro.org.as2org import AS2Org
from repro.traceroute.parse import parse_text_traces


def addr(text: str) -> int:
    return parse_address(text)


TARGET = 100

# Link L1 (owner 100): 9.0.0.1 on an AS100 router <-> 9.0.0.2 on AS200.
# Link L2 (owner 300): 9.2.0.1 on an AS300 router <-> 9.2.0.2 on AS100.
A1, A2 = addr("9.0.0.1"), addr("9.0.0.2")
B1, B2 = addr("9.2.0.1"), addr("9.2.0.2")
INTERNAL = addr("9.0.5.1")


def ground_truth() -> GroundTruth:
    truth = GroundTruth()
    truth.border[A1] = BorderInterface(A1, 100, 200, A2, 100)
    truth.border[A2] = BorderInterface(A2, 200, 100, A1, 100)
    truth.border[B1] = BorderInterface(B1, 300, 100, B2, 300)
    truth.border[B2] = BorderInterface(B2, 100, 300, B1, 300)
    truth.internal.add(INTERNAL)
    truth.router_as.update({A1: 100, A2: 200, B1: 300, B2: 100, INTERNAL: 100})
    return truth


def address_as(address: int) -> int:
    """BGP-style origin: owner of the /16."""
    second_octet = (address >> 16) & 0xFF
    return {0: 100, 1: 200, 2: 300}.get(second_octet, 0)


def make_graph(lines):
    return build_interface_graph(parse_text_traces(lines))


def infer(address, local, remote, forward=True, kind=DIRECT):
    return LinkInference(
        address=address, forward=forward, local_as=local, remote_as=remote, kind=kind
    )


DEFAULT_LINES = [
    # a1 is seen with an AS200 successor (eligibility via adjacency),
    # internal and the second link are seen too.
    "m|9.1.9.9|9.0.5.1 9.0.0.1 9.1.0.7",
    "m|9.0.9.9|9.2.0.1 9.2.0.2 9.0.5.1",
]


def build(lines=None, complete=True):
    graph = make_graph(lines or DEFAULT_LINES)
    seen = set(graph.addresses())
    return (
        build_verification(
            ground_truth(), TARGET, graph, seen, address_as, complete=complete
        ),
        graph,
    )


class TestBuildVerification:
    def test_links_indexed_by_both_addresses(self):
        dataset, _ = build()
        assert dataset.link_by_address[A1] is dataset.link_by_address[A2]
        assert dataset.link_by_address[A1].pair == (100, 200)

    def test_internal_interfaces(self):
        dataset, _ = build()
        assert INTERNAL in dataset.internal

    def test_eligibility_by_owner(self):
        """L2 is numbered from the connected AS (300) — eligible even
        without adjacency evidence."""
        dataset, _ = build()
        assert (min(B1, B2), max(B1, B2)) in dataset.eligible

    def test_eligibility_by_adjacency(self):
        """L1 is numbered from the target, so it needs an adjacent
        AS200 address — which trace 1 provides."""
        dataset, _ = build()
        assert (A1, A2) in dataset.eligible

    def test_exclusion_without_adjacency(self):
        """Without the AS200 successor, L1 drops out of the recall set
        (the paper excluded 4 such Internet2 links)."""
        dataset, _ = build(lines=["m|9.0.9.9|9.0.5.1 9.0.0.1", "m|9.0.9.8|9.2.0.1 9.2.0.2"])
        assert (A1, A2) not in dataset.eligible
        assert dataset.excluded == 1

    def test_unseen_link_not_eligible(self):
        dataset, _ = build(lines=["m|9.0.9.9|9.0.5.1 9.0.0.1 9.1.0.7"])
        assert (min(B1, B2), max(B1, B2)) not in dataset.eligible


class TestScoring:
    def test_true_positive(self):
        dataset, graph = build()
        score = score_inferences([infer(A1, 200, 100)], dataset, graph=graph)
        assert score.tp == 1
        assert score.fp == 0

    def test_one_tp_per_link(self):
        """Inferences on both sides of one link count once."""
        dataset, graph = build()
        score = score_inferences(
            [infer(A1, 200, 100), infer(A2, 200, 100, forward=False)],
            dataset,
            graph=graph,
        )
        assert score.tp == 1

    def test_wrong_pair(self):
        dataset, graph = build()
        score = score_inferences([infer(A1, 300, 100)], dataset, graph=graph)
        assert score.fp_reasons == {"wrong_pair": 1}
        assert score.tp == 0

    def test_internal_error(self):
        dataset, graph = build()
        score = score_inferences([infer(INTERNAL, 100, 200)], dataset, graph=graph)
        assert score.fp_reasons == {"internal": 1}

    def test_unlisted_error_in_complete_mode(self):
        """Internet2 rule: inferences involving the target elsewhere
        are errors."""
        dataset, graph = build()
        stray = infer(addr("9.1.0.7"), 200, 100)
        score = score_inferences([stray], dataset, graph=graph)
        assert score.fp_reasons == {"unlisted": 1}

    def test_unlisted_ignored_in_incomplete_mode(self):
        dataset, graph = build(complete=False)
        stray = infer(addr("9.9.0.7"), 200, 100)
        score = score_inferences([stray], dataset, graph=graph)
        assert score.fp == 0

    def test_adjacent_duplicate_in_incomplete_mode(self):
        """Level3/TeliaSonera rule: duplicating a dataset link's pair
        on an adjacent interface is an error."""
        dataset, graph = build(complete=False)
        adjacent = infer(addr("9.1.0.7"), 200, 100)  # next hop after A1
        score = score_inferences([adjacent], dataset, graph=graph)
        assert score.fp_reasons == {"adjacent_beyond_link": 1}

    def test_non_involving_inferences_ignored(self):
        dataset, graph = build()
        other = infer(addr("9.1.0.7"), 200, 300)
        score = score_inferences([other], dataset, graph=graph)
        assert score.fp == 0

    def test_false_negatives(self):
        dataset, graph = build()
        score = score_inferences([], dataset, graph=graph)
        assert score.fn == len(dataset.eligible)
        assert score.recall == 0.0

    def test_sibling_pairs_match(self):
        dataset, graph = build()
        org = AS2Org.from_pairs([(200, 250)])
        score = score_inferences([infer(A1, 250, 100)], dataset, org=org, graph=graph)
        assert score.tp == 1

    def test_tp_on_ineligible_link_not_counted_as_fn(self):
        """An inference on a link excluded from the recall set is still
        correct; eligibility only governs FN."""
        dataset, graph = build(
            lines=["m|9.0.9.9|9.0.5.1 9.0.0.1", "m|9.0.9.8|9.2.0.1 9.2.0.2"]
        )
        assert (A1, A2) not in dataset.eligible
        score = score_inferences([infer(A1, 200, 100)], dataset, graph=graph)
        assert score.tp == 1
        assert score.fp == 0
