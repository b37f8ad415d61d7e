"""Table 1 reproduction: results by AS relationship type.

Every verification-network link is classified as ISP Transit, Peer, or
Stub Transit using the relationship dataset (an AS missing from it
counts as a stub, per section 5.4), and TP/FP/FN are tallied per class.
False positives are attributed to the class of the ground-truth link
they sit on when there is one, otherwise to the class implied by the
inferred AS pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.results import LinkInference
from repro.eval.metrics import Score
from repro.eval.verify import VerificationDataset, _adjacent_duplicate, _canonical_pair
from repro.graph.neighbors import InterfaceGraph
from repro.org.as2org import AS2Org
from repro.rel.relationships import LinkType, RelationshipDataset


@dataclass
class RelationshipBreakdown:
    """Per-class scores for one verification network."""

    by_class: Dict[LinkType, Score] = field(default_factory=dict)

    def total(self) -> Score:
        total = Score()
        for score in self.by_class.values():
            total = total.merged_with(score)
        return total

    def rows(self) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for link_type in LinkType:
            score = self.by_class.get(link_type)
            if score is None:
                continue
            row: Dict[str, object] = {"class": link_type.value}
            row.update(score.row())
            rows.append(row)
        row = {"class": "Total"}
        row.update(self.total().row())
        rows.append(row)
        return rows


def breakdown_by_relationship(
    inferences: Iterable[LinkInference],
    dataset: VerificationDataset,
    relationships: RelationshipDataset,
    org: Optional[AS2Org] = None,
    graph: Optional[InterfaceGraph] = None,
) -> RelationshipBreakdown:
    """Score like section 5.2, tallying per relationship class."""
    org = org or AS2Org()
    breakdown = RelationshipBreakdown(
        by_class={link_type: Score() for link_type in LinkType}
    )

    def classify(pair: Tuple[int, int]) -> LinkType:
        return relationships.classify_link(pair[0], pair[1], org)

    target = org.canonical(dataset.target_as)
    matched: Dict[Tuple[int, int], LinkType] = {}
    for inference in inferences:
        record = dataset.link_by_address.get(inference.address)
        inferred_pair = _canonical_pair(inference.pair(), org)
        if record is not None:
            link_class = classify(record.pair)
            if inferred_pair == _canonical_pair(record.pair, org):
                matched[record.key] = link_class
            else:
                breakdown.by_class[link_class].count_fp("wrong_pair")
            continue
        if inference.address in dataset.internal:
            breakdown.by_class[classify(inference.pair())].count_fp("internal")
            continue
        if target not in inferred_pair:
            continue
        if dataset.complete:
            breakdown.by_class[classify(inference.pair())].count_fp("unlisted")
        elif graph is not None and _adjacent_duplicate(
            inference, inferred_pair, dataset, graph, org
        ):
            breakdown.by_class[classify(inference.pair())].count_fp(
                "adjacent_beyond_link"
            )
    for key, link_class in matched.items():
        breakdown.by_class[link_class].tp += 1
    for key, record in dataset.eligible.items():
        if key not in matched:
            breakdown.by_class[classify(record.pair)].fn += 1
    return breakdown
