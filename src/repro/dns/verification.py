"""Hostname-derived approximate ground truth (paper section 5.1.2).

Given a hostname dataset, classify each interface of a target operator
as *external* (carries an interconnection tag naming the connected
network), *internal* (no tag, and the other side of its link has no tag
either), *fabric* (tags a switching fabric — removed, as the paper
removes 176 such interfaces), or *unknown* (uninterpretable — removed).
External interfaces plus their other sides become the verification
dataset's link records; the noise sources the paper describes (stale
tags, missing hostnames) flow straight into the scores.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

from repro.dns.naming import HostnameDataset
from repro.eval.verify import LinkRecord, VerificationDataset, _is_eligible
from repro.graph.neighbors import InterfaceGraph

EXTERNAL_TAG = "external"
INTERNAL_TAG = "internal"
FABRIC_TAG = "fabric"
UNKNOWN_TAG = "unknown"


def classify_hostname(name: Optional[str]) -> Tuple[str, Optional[str]]:
    """Classify one hostname; returns ``(kind, peer_tag)``.

    Mirrors the paper's manual classification: ``<peer>-ic-…`` marks an
    interconnection and names the peer; ``ae-…`` is internal gear; a
    fabric tag marks a switching fabric, not a network.
    """
    if not name:
        return UNKNOWN_TAG, None
    label = name.split(".", 1)[0]
    if "-ic-" in label:
        return EXTERNAL_TAG, label.split("-ic-", 1)[0]
    if label.startswith("fabric-"):
        return FABRIC_TAG, None
    if label.startswith("ae-"):
        return INTERNAL_TAG, None
    return UNKNOWN_TAG, None


def build_dns_verification(
    target_as: int,
    hostnames: HostnameDataset,
    graph: InterfaceGraph,
    seen_addresses: Set[int],
    address_as: Callable[[int], int],
    tag_to_asn: Dict[str, int],
) -> VerificationDataset:
    """Assemble the Level3/TeliaSonera-style verification dataset.

    Candidates are the addresses announced by *target_as* that appear
    in the traces, plus their inferred other sides — exactly the
    paper's resolution set.  The dataset is marked incomplete
    (``complete=False``), so scoring applies the adjacent-duplicate
    error rule instead of the Internet2 everything-listed rule.
    """
    dataset = VerificationDataset(target_as=target_as, complete=False)
    candidates: Set[int] = set()
    for address in seen_addresses:
        if address_as(address) == target_as:
            candidates.add(address)
            other = graph.other_side(address)
            if other is not None:
                candidates.add(other)

    for address in sorted(candidates):
        kind, tag = classify_hostname(hostnames.hostname(address))
        other = graph.other_side(address)
        if kind == EXTERNAL_TAG:
            peer_asn = tag_to_asn.get(tag or "")
            if peer_asn is None:
                continue  # ambiguous tag: removed, as in the paper
            low, high = sorted((address, other if other is not None else address))
            record = LinkRecord(
                addresses=(low, high),
                pair=tuple(sorted((target_as, peer_asn))),
                owner_as=address_as(address),
            )
            for link_address in record.addresses:
                dataset.link_by_address.setdefault(link_address, record)
        elif kind == INTERNAL_TAG:
            other_kind, _ = classify_hostname(
                hostnames.hostname(other) if other is not None else None
            )
            if other_kind != EXTERNAL_TAG and address in seen_addresses:
                dataset.internal.add(address)

    # Recall qualification: the link or its other side must be seen,
    # and the connected AS must be visible next to it (or own the
    # link prefix).
    # dict.fromkeys dedups in first-seen order (a set would iterate in
    # arbitrary order and leak it into the eligible dict's ordering)
    for record in dict.fromkeys(dataset.link_by_address.values()):
        if _is_eligible(record, target_as, graph, seen_addresses, address_as):
            dataset.eligible[record.key] = record
        else:
            dataset.excluded += 1
    return dataset


def tag_table(network) -> Dict[str, int]:
    """Peer-tag → ASN table from the synthetic network's AS names."""
    table: Dict[str, int] = {}
    for asn, node in network.as_graph.nodes.items():
        table[node.name.replace("_", "-")] = asn
    return table
