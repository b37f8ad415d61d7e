"""Longest-prefix-match table over IPv4 prefixes.

This backs every IP-to-AS mapping structure in the library.  The table
stores a value per prefix and answers: which is the longest (most
specific) inserted prefix containing a given address, and what value is
attached to it?  That is exactly the semantics of BGP-derived IP2AS
mapping (section 5 of the paper: "longest matching prefix").

Implementation notes: prefixes live in a dict keyed by
``(address, length)``.  Two IPv4 prefixes are either nested or
disjoint, so one stack sweep over them in ``(address, length)`` order
cuts the address space into disjoint ranges, each labelled with its
longest covering prefix (or none); a lookup is then one C-level
``bisect`` over the range starts.  That flat index is built on the
first lookup after a change and dropped by every insert and remove.
The last range starts at 2**32 and is unlabelled, so an integer outside
0..2**32-1 matches nothing: a negative one lands on index -1, which is
that same range.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.net.prefix import Prefix

Key = Tuple[int, int]
#: ``(starts, keys, values)``: range *i* covers ``starts[i]`` up to
#: ``starts[i + 1] - 1``; ``keys[i]`` is its longest covering prefix as
#: ``(address, length)`` (None when uncovered), ``values[i]`` its value
Index = Tuple[List[int], List[Optional[Key]], List[Any]]


class PrefixTrie:
    """Map :class:`Prefix` keys to values with longest-prefix-match."""

    def __init__(self) -> None:
        self._values: Dict[Key, Any] = {}
        self._index: Optional[Index] = None

    def __len__(self) -> int:
        return len(self._values)

    def insert(self, prefix: Prefix, value: Any) -> None:
        """Insert or replace the value at *prefix*."""
        self._values[prefix.address, prefix.length] = value
        self._index = None

    def remove(self, prefix: Prefix) -> bool:
        """Remove *prefix*; return True when it was present."""
        key = (prefix.address, prefix.length)
        if key not in self._values:
            return False
        del self._values[key]
        self._index = None
        return True

    def exact(self, prefix: Prefix) -> Optional[Any]:
        """Value stored exactly at *prefix*, or None."""
        return self._values.get((prefix.address, prefix.length))

    def _build(self) -> Index:
        """Sweep the sorted prefixes into the range index and publish
        it with one assignment.  O(n log n) in the prefix count."""
        ranges: List[Tuple[int, Optional[Key]]] = []  # (first address, key)
        enclosing: List[Tuple[int, Key]] = []  # (last address, key), innermost last
        cursor = 0  # first address not yet in a range
        # The sentinel past the address space closes every open prefix.
        for key in sorted(self._values) + [(1 << 32, 0)]:
            address, length = key
            while enclosing and enclosing[-1][0] < address:
                last, outer = enclosing.pop()
                if cursor <= last:
                    ranges.append((cursor, outer))
                    cursor = last + 1
            if cursor < address:
                ranges.append((cursor, enclosing[-1][1] if enclosing else None))
            cursor = address
            enclosing.append((address + (1 << (32 - length)) - 1, key))
        ranges.append((cursor, None))  # from 2**32 on: the unlabelled tail
        values = self._values
        keys = [key for _, key in ranges]
        index = self._index = (
            [start for start, _ in ranges],
            keys,
            [None if key is None else values[key] for key in keys],
        )
        return index

    def lookup(self, address: int) -> Optional[Tuple[Prefix, Any]]:
        """Longest-prefix match for *address*.

        Returns ``(matched_prefix, value)`` or ``None`` when no inserted
        prefix covers the address.
        """
        starts, keys, values = self._index or self._build()
        at = bisect_right(starts, address) - 1
        key = keys[at]
        return None if key is None else (Prefix(*key), values[at])

    def lookup_value(self, address: int) -> Optional[Any]:
        """Value of the longest-prefix match, or None."""
        starts, _, values = self._index or self._build()
        return values[bisect_right(starts, address) - 1]

    def __contains__(self, address: int) -> bool:
        starts, keys, _ = self._index or self._build()
        return keys[bisect_right(starts, address) - 1] is not None

    def items(self) -> Iterator[Tuple[Prefix, Any]]:
        """Iterate ``(prefix, value)`` pairs in address order, a shorter
        prefix before the longer ones it contains."""
        values = self._values
        for key in sorted(values):
            yield Prefix(*key), values[key]
