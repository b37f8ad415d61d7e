"""RFC 6890 special-purpose address registry.

MAP-IT excludes private/shared addresses from neighbor sets (section
4.3) because they are not globally routable or unique and can be reused
by many ASes, so no inference may be drawn from or about them.  This
module provides the registry of such prefixes and a fast membership
test.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional

from repro.net.prefix import Prefix
from repro.net.trie import PrefixTrie

#: Special-purpose registries per RFC 6890 (plus conventional extras)
#: as ``(prefix, name)`` pairs.
SPECIAL_PURPOSE_PREFIXES = (
    ("0.0.0.0/8", "this host on this network"),
    ("10.0.0.0/8", "private-use"),
    ("100.64.0.0/10", "shared address space (CGN)"),
    ("127.0.0.0/8", "loopback"),
    ("169.254.0.0/16", "link local"),
    ("172.16.0.0/12", "private-use"),
    ("192.0.0.0/24", "IETF protocol assignments"),
    ("192.0.2.0/24", "documentation (TEST-NET-1)"),
    ("192.88.99.0/24", "6to4 relay anycast"),
    ("192.168.0.0/16", "private-use"),
    ("198.18.0.0/15", "benchmarking"),
    ("198.51.100.0/24", "documentation (TEST-NET-2)"),
    ("203.0.113.0/24", "documentation (TEST-NET-3)"),
    ("224.0.0.0/4", "multicast"),
    ("240.0.0.0/4", "reserved"),
    ("255.255.255.255/32", "limited broadcast"),
)


class SpecialPurposeRegistry:
    """Membership test for special-purpose (non-routable) addresses."""

    def __init__(self, prefixes: Optional[Iterable[Prefix]] = None) -> None:
        self._trie = PrefixTrie()
        self._names = {}
        if prefixes is not None:
            for prefix in prefixes:
                self.add(prefix, "custom")

    def add(self, prefix: Prefix, name: str = "") -> None:
        """Register a special-purpose prefix."""
        self._trie.insert(prefix, name)
        self._names[prefix] = name

    def is_special(self, address: int) -> bool:
        """True when *address* falls in any registered prefix."""
        return address in self._trie

    def name_for(self, address: int) -> Optional[str]:
        """Registry name covering *address*, or None."""
        return self._trie.lookup_value(address)

    def __len__(self) -> int:
        return len(self._names)


def default_special_registry() -> SpecialPurposeRegistry:
    """The RFC 6890 registry used by the paper's sanitization, as a new
    registry the caller may add to."""
    registry = SpecialPurposeRegistry()
    for text, name in SPECIAL_PURPOSE_PREFIXES:
        registry.add(Prefix.parse(text), name)
    return registry


@lru_cache(maxsize=None)
def shared_special_registry() -> SpecialPurposeRegistry:
    """The default registry, built once per process and shared by every
    reader (each fold, each IP2AS): never add to it."""
    return default_special_registry()
