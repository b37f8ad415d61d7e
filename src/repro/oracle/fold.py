"""§4.1 sanitizing and the §4.3 neighbor fold, restated from the paper.

The production fold (:class:`repro.perf.flat.GraphFold`) buffers
traces, folds each distinct adjacency once and tests cycles by last
position; this module restates the same two rules trace by trace, hop
by hop, so the differential harness can hold that fold to the paper:

* **§4.1** — every responsive address joins the address universe
  (discarded traces included; §4.2 reads it).  A responsive hop that
  quotes TTL 0 is a buggy router's reply: it becomes a gap and is
  counted.  A trace that repeats an address more than one position
  apart — with some other hop, or a gap, between the two — contains an
  interface cycle and is discarded; an address repeated immediately is
  no cycle.
* **§4.3** — consecutive responsive, non-special hops of a retained
  trace are neighbors: the second joins N_F of the first, the first
  N_B of the second.  Gaps and special (private/shared) addresses
  break adjacency, and special addresses own no neighbor set.

Standard library only, duck-typed like :func:`repro.oracle.oracle_run`:
it reads ``trace.hops``, ``hop.address`` and ``hop.quoted_ttl``, and
the caller passes the special-address test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set


@dataclass
class OracleFold:
    """What §4.1 and §4.3 leave behind for one trace list."""

    forward: Dict[int, Set[int]] = field(default_factory=dict)
    backward: Dict[int, Set[int]] = field(default_factory=dict)
    #: every address of a retained trace after stripping, special ones too
    retained_addresses: Set[int] = field(default_factory=set)
    #: every responsive hop address before any stripping
    all_addresses: Set[int] = field(default_factory=set)
    retained: int = 0
    discarded: int = 0
    buggy_hops_removed: int = 0


def _has_cycle(addresses: List[Optional[int]]) -> bool:
    """Whether an address occurs in two separate runs of the sequence:
    collapse each run of one repeated entry to a single entry, then look
    for an address that is still there twice."""
    runs = [
        address
        for position, address in enumerate(addresses)
        if position == 0 or addresses[position - 1] != address
    ]
    responsive = [address for address in runs if address is not None]
    return len(set(responsive)) != len(responsive)


def oracle_fold(traces: Iterable, is_special: Callable[[int], bool]) -> OracleFold:
    """Sanitize (§4.1) and fold (§4.3) *traces*, one at a time."""
    fold = OracleFold()
    for trace in traces:
        addresses: List[Optional[int]] = []
        for hop in trace.hops:
            address = hop.address
            if address is not None:
                fold.all_addresses.add(address)
                if hop.quoted_ttl == 0:
                    fold.buggy_hops_removed += 1
                    address = None
            addresses.append(address)
        if _has_cycle(addresses):
            fold.discarded += 1
            continue
        fold.retained += 1
        fold.retained_addresses.update(a for a in addresses if a is not None)
        for first, second in zip(addresses, addresses[1:]):
            if first is None or second is None:
                continue
            if is_special(first) or is_special(second):
                continue
            fold.forward.setdefault(first, set()).add(second)
            fold.backward.setdefault(second, set()).add(first)
    return fold
