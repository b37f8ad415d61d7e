"""IPv4 address parsing and formatting.

All hot-path code in the library passes addresses around as integers.
These helpers are the only place where string forms are produced or
consumed, which keeps parsing bugs in one spot and the rest of the code
fast and allocation-free.
"""

from __future__ import annotations

MAX_ADDRESS = (1 << 32) - 1

#: every octet text the checks in :func:`parse_address` accept — ASCII
#: digits, no leading zero, at most 255 — mapped to its value
_OCTETS = {str(value): value for value in range(256)}


class AddressError(ValueError):
    """Raised when a dotted-quad string cannot be parsed."""


def parse_address(text: str) -> int:
    """Parse a dotted-quad IPv4 address into an integer.

    >>> parse_address("10.0.0.1")
    167772161

    Raises :class:`AddressError` for malformed input, including octets
    out of range, wrong octet counts, and non-numeric octets.
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError(f"expected 4 octets, got {len(parts)}: {text!r}")
    try:
        a, b, c, d = map(_OCTETS.__getitem__, parts)
    except KeyError:
        pass  # a bad octet: the checks below name it
    else:
        return (a << 24) | (b << 16) | (c << 8) | d
    value = 0
    for part in parts:
        # isascii() matters: str.isdigit() accepts Unicode digits like
        # '³', which int() then rejects (or worse, silently converts).
        if (
            not part
            or not part.isascii()
            or not part.isdigit()
            or (len(part) > 1 and part[0] == "0")
        ):
            raise AddressError(f"bad octet {part!r} in {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet {octet} out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_address(value: int) -> str:
    """Format an integer as a dotted-quad IPv4 address.

    >>> format_address(167772161)
    '10.0.0.1'
    """
    if not 0 <= value <= MAX_ADDRESS:
        raise AddressError(f"address {value} out of range")
    return f"{value >> 24}.{(value >> 16) & 0xFF}.{(value >> 8) & 0xFF}.{value & 0xFF}"


def is_valid_address(text: str) -> bool:
    """Return True when *text* parses as a dotted-quad IPv4 address."""
    try:
        parse_address(text)
    except AddressError:
        return False
    return True
