"""Tests for the longest-prefix-match trie."""


from repro.bgp.ip2as import UNKNOWN_AS, IP2AS
from repro.net.ipv4 import parse_address
from repro.net.prefix import Prefix
from repro.net.special import default_special_registry
from repro.net.trie import PrefixTrie


def addr(text: str) -> int:
    return parse_address(text)


class TestInsertLookup:
    def test_empty(self):
        trie = PrefixTrie()
        assert trie.lookup(addr("1.2.3.4")) is None
        assert len(trie) == 0

    def test_single_prefix(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "ten")
        prefix, value = trie.lookup(addr("10.20.30.40"))
        assert value == "ten"
        assert prefix == Prefix.parse("10.0.0.0/8")
        assert trie.lookup(addr("11.0.0.0")) is None

    def test_longest_match_wins(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "short")
        trie.insert(Prefix.parse("10.5.0.0/16"), "long")
        assert trie.lookup_value(addr("10.5.1.1")) == "long"
        assert trie.lookup_value(addr("10.6.1.1")) == "short"

    def test_default_route(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("0.0.0.0/0"), "default")
        trie.insert(Prefix.parse("192.0.2.0/24"), "specific")
        assert trie.lookup_value(addr("8.8.8.8")) == "default"
        assert trie.lookup_value(addr("192.0.2.9")) == "specific"
        assert trie.lookup_value(addr("255.255.255.255")) == "default"
        for outside in (-1, 2**32, 2**40):  # even /0 ends at 255.255.255.255
            assert trie.lookup(outside) is None
            assert outside not in trie

    def test_host_route(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("1.2.3.4/32"), "host")
        assert trie.lookup_value(addr("1.2.3.4")) == "host"
        assert trie.lookup_value(addr("1.2.3.5")) is None

    def test_replace_value(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), 1)
        trie.insert(Prefix.parse("10.0.0.0/8"), 2)
        assert trie.lookup_value(addr("10.0.0.1")) == 2
        assert len(trie) == 1

    def test_contains(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), 1)
        assert addr("10.1.1.1") in trie
        assert addr("11.1.1.1") not in trie

    def test_matched_prefix_is_canonical(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("198.71.44.0/22"), 11537)
        prefix, _ = trie.lookup(addr("198.71.46.180"))
        assert prefix == Prefix.parse("198.71.44.0/22")


class TestExactAndRemove:
    def test_exact(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "v")
        assert trie.exact(Prefix.parse("10.0.0.0/8")) == "v"
        assert trie.exact(Prefix.parse("10.0.0.0/16")) is None

    def test_remove(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "v")
        assert trie.remove(Prefix.parse("10.0.0.0/8"))
        assert trie.lookup(addr("10.0.0.1")) is None
        assert len(trie) == 0

    def test_remove_missing(self):
        trie = PrefixTrie()
        assert not trie.remove(Prefix.parse("10.0.0.0/8"))

    def test_remove_keeps_more_specific(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "outer")
        trie.insert(Prefix.parse("10.5.0.0/16"), "inner")
        trie.remove(Prefix.parse("10.0.0.0/8"))
        assert trie.lookup_value(addr("10.5.0.1")) == "inner"
        assert trie.lookup(addr("10.6.0.1")) is None


class TestItems:
    def test_items_roundtrip(self):
        trie = PrefixTrie()
        inserted = {
            Prefix.parse("10.0.0.0/8"): 1,
            Prefix.parse("10.5.0.0/16"): 2,
            Prefix.parse("192.0.2.0/24"): 3,
            Prefix.parse("0.0.0.0/0"): 4,
        }
        for prefix, value in inserted.items():
            trie.insert(prefix, value)
        # Address order, a shorter prefix first: cymru.txt is written so.
        assert list(trie.items()) == [
            (Prefix.parse("0.0.0.0/0"), 4),
            (Prefix.parse("10.0.0.0/8"), 1),
            (Prefix.parse("10.5.0.0/16"), 2),
            (Prefix.parse("192.0.2.0/24"), 3),
        ]

    def test_matches_naive_lpm(self):
        """Spot-check trie answers against a brute-force LPM."""
        import random

        rng = random.Random(0)
        prefixes = []
        trie = PrefixTrie()
        for index in range(200):
            length = rng.randint(8, 30)
            base = rng.getrandbits(32)
            prefix = Prefix(base & Prefix(0, length).mask, length)
            prefixes.append(prefix)
            trie.insert(prefix, index)
        table = {}
        for index, prefix in enumerate(prefixes):
            table[prefix] = index  # replacement semantics, as in the trie
        for _ in range(500):
            address = rng.getrandbits(32)
            best = None
            for prefix, index in table.items():
                if prefix.contains(address):
                    if best is None or prefix.length > best[0].length:
                        best = (prefix, index)
            got = trie.lookup(address)
            if best is None:
                assert got is None
            else:
                assert got == best


class TestOutOfRange:
    """An integer outside 0..2**32-1 matches no prefix: it must not
    alias its low 32 bits (or, when negative, its two's complement)."""

    def test_above_range_is_not_special(self):
        # The low 32 bits, 0.0.0.5, are in 0.0.0.0/8.
        assert not default_special_registry().is_special(2**32 + 5)

    def test_negative_is_not_special(self):
        # All ones, 255.255.255.255, is the limited broadcast /32.
        assert not default_special_registry().is_special(-1)

    def test_above_range_is_unmapped(self):
        ip2as = IP2AS.from_pairs([("8.0.0.0/8", 3356)])
        assert ip2as.asn(2**32 + addr("8.8.8.8")) == UNKNOWN_AS
