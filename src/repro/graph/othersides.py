"""Point-to-point other-side inference (MAP-IT section 4.2).

Point-to-point links are addressed from either a /30 or a /31.  Given
every address observed anywhere in the traceroute dataset (including
discarded traces), the paper's heuristic decides per address:

* an address that is *reserved* in its /30 (network or broadcast) can
  only be a /31 host, so its other side comes from its /31;
* a valid /30 host whose /30-reserved sibling addresses were observed
  in the dataset must itself be /31-addressed (the observation proves
  the /30 framing is wrong), so its other side also comes from its /31;
* otherwise the address is assumed to be a /30 host and the other side
  is the remaining middle address of its /30.

The paper reports this labels 40.4% of interfaces as /31-addressed.

The rule for an address reads nothing outside its own /30 block, so
the serve daemon re-judges only the blocks that gained an address
(:func:`block_members`, :func:`patch_other_sides`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional

from repro.net.prefix import is_reserved_in_30, p2p_other_side_30, p2p_other_side_31


@dataclass(frozen=True)
class OtherSideTable:
    """Result of other-side inference.

    ``other_side`` maps each address to its inferred link partner;
    ``from_31`` records which addresses were judged /31-addressed.
    """

    other_side: Mapping[int, int]
    from_31: frozenset

    def fraction_31(self) -> float:
        """Fraction of addresses inferred to be /31-addressed."""
        if not self.other_side:
            return 0.0
        return len(self.from_31) / len(self.other_side)


def infer_other_sides(addresses: Iterable[int]) -> OtherSideTable:
    """Apply the section 4.2 heuristic to every observed address.

    *addresses* should include every address seen in any trace, even
    discarded ones — extra observations only make the /30-vs-/31 call
    more accurate.
    """
    observed = set(addresses)
    other: Dict[int, int] = {}
    from_31 = set()
    for address in observed:
        if is_reserved_in_30(address):
            other[address] = p2p_other_side_31(address)
            from_31.add(address)
            continue
        base = address & ~3
        if base in observed or (base | 3) in observed:
            other[address] = p2p_other_side_31(address)
            from_31.add(address)
        else:
            other[address] = p2p_other_side_30(address)
    return OtherSideTable(other_side=other, from_31=frozenset(from_31))


def block_members(
    added: Iterable[int], observed: Callable[[int], bool]
) -> List[int]:
    """Every observed address of the /30 blocks the observed addresses
    of *added* fall in: exactly the addresses whose judgement *added*
    can change.  O(len(added))."""
    blocks = {address & ~3 for address in added if observed(address)}
    return [
        address
        for base in blocks
        for address in range(base, base + 4)
        if observed(address)
    ]


def patch_other_sides(
    table: Optional[OtherSideTable], judged: Iterable[int]
) -> OtherSideTable:
    """A copy of *table* with every address of *judged* re-judged.

    *table* must judge a subset of today's observed set, and *judged*
    must hold the complete observed contents of each /30 block that
    gained an address since (:func:`block_members`); then the result
    equals :func:`infer_other_sides` over the whole observed set.
    *table* is never mutated — a published serve snapshot may hold it —
    and ``None`` stands for the empty table.  O(len(table) +
    len(judged)), the copy at C speed.
    """
    patch = infer_other_sides(judged)
    if table is None:
        return patch
    other = dict(table.other_side)
    other.update(patch.other_side)
    # a judgement only moves from /30 to /31 as a block fills, so no
    # address leaves from_31
    return OtherSideTable(other_side=other, from_31=table.from_31 | patch.from_31)
