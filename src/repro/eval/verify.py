"""Ground-truth verification (paper section 5.2).

For one verification network (Internet2, Level 3, or TeliaSonera in the
paper; any AS of the synthetic topology here) we build a verification
dataset of its inter-AS links and internal interfaces, then score a set
of link inferences against it:

* **correct (TP)** — an inference on one of a link's interfaces naming
  the right AS pair (siblings count as equal); counted once per link;
* **errors (FP)** — inferences on dataset interfaces naming the wrong
  ASes; inferences on the network's internal interfaces; in
  complete-dataset mode (Internet2-style), any inference involving the
  network on an address outside the dataset; in hostname mode
  (Level 3 / TeliaSonera-style), inferences duplicating a dataset
  link's AS pair on an interface *adjacent* to that link;
* **missing (FN)** — eligible dataset links with no matching inference,
  where eligible means the link (or its other side) appears in the
  traces and either the link is numbered from the connected AS or at
  least one address of the connected AS is seen adjacent to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Optional, Set, Tuple

from repro.core.results import LinkInference
from repro.eval.metrics import Score
from repro.graph.neighbors import InterfaceGraph
from repro.io.truth import GroundTruth
from repro.org.as2org import AS2Org

if TYPE_CHECKING:
    from repro.io.bundle import InputBundle

LinkKey = Tuple[int, int]


@dataclass(frozen=True)
class LinkRecord:
    """One ground-truth inter-AS link of the verification network."""

    addresses: Tuple[int, int]
    pair: Tuple[int, int]
    owner_as: int

    @property
    def key(self) -> LinkKey:
        return self.addresses


@dataclass
class VerificationDataset:
    """Everything needed to score inferences for one network."""

    target_as: int
    #: every known link of the target (indexable by either address)
    link_by_address: Dict[int, LinkRecord] = field(default_factory=dict)
    #: links that count toward recall (visibility-qualified)
    eligible: Dict[LinkKey, LinkRecord] = field(default_factory=dict)
    #: links dropped by the adjacency qualification (paper: 4 for I2)
    excluded: int = 0
    #: the target's internal interfaces seen in the traces
    internal: Set[int] = field(default_factory=set)
    #: Internet2-style complete dataset vs hostname-derived partial one
    complete: bool = True

    def links(self) -> Set[LinkKey]:
        return {record.key for record in self.link_by_address.values()}


def build_verification(
    ground_truth: GroundTruth,
    target_as: int,
    graph: InterfaceGraph,
    seen_addresses: Set[int],
    address_as: Callable[[int], int],
    complete: bool = True,
) -> VerificationDataset:
    """Assemble the verification dataset for *target_as*.

    *seen_addresses* is every address observed in the (sanitized)
    traces; *address_as* maps an address to its BGP-announced origin
    (the "in the connected AS" test uses announced space, exactly as
    the paper's footnote 1 defines membership).
    """
    dataset = VerificationDataset(target_as=target_as, complete=complete)
    visited: Set[LinkKey] = set()
    for interface in ground_truth.border.values():
        if target_as not in interface.pair():
            continue
        key = tuple(sorted((interface.address, interface.other_address)))
        if key in visited:
            continue
        visited.add(key)
        record = LinkRecord(
            addresses=key, pair=interface.pair(), owner_as=interface.owner_as
        )
        for address in key:
            dataset.link_by_address[address] = record
        if _is_eligible(record, target_as, graph, seen_addresses, address_as):
            dataset.eligible[key] = record
        else:
            dataset.excluded += 1
    for address in ground_truth.internal:
        if (
            ground_truth.router_as.get(address) == target_as
            and address in seen_addresses
        ):
            dataset.internal.add(address)
    return dataset


def _is_eligible(
    record: LinkRecord,
    target_as: int,
    graph: InterfaceGraph,
    seen_addresses: Set[int],
    address_as: Callable[[int], int],
) -> bool:
    """The paper's two recall qualifications."""
    if not any(address in seen_addresses for address in record.addresses):
        return False
    connected = [asn for asn in record.pair if asn != target_as]
    connected_as = connected[0] if connected else target_as
    if record.owner_as == connected_as:
        return True
    for address in record.addresses:
        neighbors = graph.n_forward(address) | graph.n_backward(address)
        if any(address_as(neighbor) == connected_as for neighbor in neighbors):
            return True
    return False


def _canonical_pair(pair: Tuple[int, int], org: AS2Org) -> Tuple[int, int]:
    low, high = sorted(org.canonical(asn) for asn in pair)
    return (low, high)


def score_inferences(
    inferences: Iterable[LinkInference],
    dataset: VerificationDataset,
    org: Optional[AS2Org] = None,
    graph: Optional[InterfaceGraph] = None,
) -> Score:
    """Score *inferences* against *dataset* per section 5.2."""
    org = org or AS2Org()
    score = Score()
    target = org.canonical(dataset.target_as)
    matched: Set[LinkKey] = set()
    for inference in inferences:
        record = dataset.link_by_address.get(inference.address)
        inferred_pair = _canonical_pair(inference.pair(), org)
        if record is not None:
            if inferred_pair == _canonical_pair(record.pair, org):
                matched.add(record.key)
            else:
                score.count_fp("wrong_pair")
            continue
        if inference.address in dataset.internal:
            score.count_fp("internal")
            continue
        if target not in inferred_pair:
            continue  # does not involve the verification network
        if dataset.complete:
            # Internet2 rule: the dataset lists every link, so any
            # inference involving the network elsewhere is an error.
            score.count_fp("unlisted")
        elif graph is not None and _adjacent_duplicate(
            inference, inferred_pair, dataset, graph, org
        ):
            # Level3/TeliaSonera rule: a dataset link's AS pair inferred
            # on an interface adjacent to that link is an error.
            score.count_fp("adjacent_beyond_link")
    score.tp = len(matched)
    score.fn = sum(1 for key in dataset.eligible if key not in matched)
    return score


def score_bundle(bundle: InputBundle, inferences: Iterable[LinkInference], asn: int) -> Score:
    """Score a run's *inferences* over a loaded dataset against its
    verification network *asn* (``mapit evaluate``, sweep dataset
    cells).  *bundle* comes from ``load_bundle(..., graph_only=True)``:
    its graph and retained addresses are what the run saw."""
    dataset = build_verification(
        bundle.ground_truth, asn, bundle.graph, bundle.retained_addresses, bundle.ip2as.asn
    )
    return score_inferences(inferences, dataset, bundle.as2org, bundle.graph)


def _adjacent_duplicate(
    inference: LinkInference,
    inferred_pair: Tuple[int, int],
    dataset: VerificationDataset,
    graph: InterfaceGraph,
    org: AS2Org,
) -> bool:
    """Does this inference sit right next to a dataset link it copies?"""
    neighbors = graph.n_forward(inference.address) | graph.n_backward(
        inference.address
    )
    for neighbor in neighbors:
        record = dataset.link_by_address.get(neighbor)
        if record is not None and inferred_pair == _canonical_pair(record.pair, org):
            return True
    return False
