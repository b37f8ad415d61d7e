"""Tests for IPv4 address parsing/formatting."""

import random

import pytest

from repro.net.ipv4 import (
    MAX_ADDRESS,
    AddressError,
    format_address,
    is_valid_address,
    parse_address,
)

#: each malformed input and the exact message it raises
MALFORMED = {
    "1.2.3": "expected 4 octets, got 3: '1.2.3'",
    "1.2.3.4.5": "expected 4 octets, got 5: '1.2.3.4.5'",
    "256.1.1.1": "octet 256 out of range in '256.1.1.1'",
    "1.2.3.999": "octet 999 out of range in '1.2.3.999'",
    "a.b.c.d": "bad octet 'a' in 'a.b.c.d'",
    "1..2.3": "bad octet '' in '1..2.3'",
    "": "expected 4 octets, got 1: ''",
    "1.2.3.4 ": "bad octet '4 ' in '1.2.3.4 '",
    "-1.2.3.4": "bad octet '-1' in '-1.2.3.4'",
    # leading zeros rejected (ambiguous octal)
    "01.2.3.4": "bad octet '01' in '01.2.3.4'",
    # Unicode digits: str.isdigit() accepts them, int() may too
    "1.2.3.³": "bad octet '³' in '1.2.3.³'",
    "1.2.3.٣": "bad octet '٣' in '1.2.3.٣'",
    # signs and whitespace int() would forgive
    "+1.2.3.4": "bad octet '+1' in '+1.2.3.4'",
    "1.2.3.-0": "bad octet '-0' in '1.2.3.-0'",
    " 1.2.3.4": "bad octet ' 1' in ' 1.2.3.4'",
}


class TestParseAddress:
    def test_basic(self):
        assert parse_address("1.2.3.4") == (1 << 24) | (2 << 16) | (3 << 8) | 4

    def test_zero(self):
        assert parse_address("0.0.0.0") == 0

    def test_max(self):
        assert parse_address("255.255.255.255") == MAX_ADDRESS

    def test_known_value(self):
        assert parse_address("10.0.0.1") == 167772161

    @pytest.mark.parametrize("bad", list(MALFORMED))
    def test_rejects_malformed(self, bad):
        """Each bad input raises with the message quarantine files
        record (``.errors.jsonl``), byte for byte."""
        with pytest.raises(AddressError) as raised:
            parse_address(bad)
        assert str(raised.value) == MALFORMED[bad]

    def test_single_zero_octet_allowed(self):
        assert parse_address("10.0.0.0") == 10 << 24


class TestFormatAddress:
    def test_basic(self):
        assert format_address(167772161) == "10.0.0.1"

    def test_zero(self):
        assert format_address(0) == "0.0.0.0"

    def test_max(self):
        assert format_address(MAX_ADDRESS) == "255.255.255.255"

    def test_out_of_range(self):
        with pytest.raises(AddressError):
            format_address(MAX_ADDRESS + 1)
        with pytest.raises(AddressError):
            format_address(-1)

    def test_roundtrip(self):
        for text in ("1.2.3.4", "198.71.46.180", "109.105.98.10"):
            assert format_address(parse_address(text)) == text

    def test_seeded_roundtrip(self):
        """Every octet value in every position, and a seeded sample of
        addresses, parse back to the integer they were formatted from."""
        rng = random.Random(6890)
        values = [rng.randrange(MAX_ADDRESS + 1) for _ in range(2000)]
        values += [octet << shift for octet in range(256) for shift in (0, 8, 16, 24)]
        for value in values:
            assert parse_address(format_address(value)) == value


class TestIsValid:
    def test_valid(self):
        assert is_valid_address("192.0.2.1")

    def test_invalid(self):
        assert not is_valid_address("192.0.2")
        assert not is_valid_address("hello")
