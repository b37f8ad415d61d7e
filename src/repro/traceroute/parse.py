"""Trace serialization: a compact text format and a JSON-lines format.

The text format is one trace per line::

    monitor|dst|hop hop hop ...

where each hop is ``*`` (no reply) or ``address[@quoted_ttl]``; a
quoted TTL of 1 is implied when omitted.  The JSON-lines format mirrors
scamper/warts-style output closely enough to demonstrate ingesting real
collections: one JSON object per line with ``src``, ``dst`` and a
``hops`` array of ``{"addr": ..., "probe_ttl": ..., "reply_ttl": ...,
"rtt": ...}`` objects; missing probe TTLs are treated as gaps.

Malformed records raise :class:`TraceParseError`, which carries the
line number and the offending text so resilient ingestion
(:mod:`repro.robust.ingest`) can skip, count, and quarantine bad lines
instead of aborting the whole load.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.net.ipv4 import AddressError, format_address, parse_address
from repro.traceroute.model import Hop, Trace


class TraceParseError(ValueError):
    """A trace record could not be parsed.

    ``reason`` says what was wrong, ``line_number`` is the 1-based
    position in the source (when known), and ``text`` is the offending
    raw line, so error reports can point at the exact input.
    """

    def __init__(
        self,
        reason: str,
        line_number: Optional[int] = None,
        text: Optional[str] = None,
    ) -> None:
        self.reason = reason
        self.line_number = line_number
        self.text = text
        where = f"line {line_number}: " if line_number is not None else ""
        snippet = f" in {text[:80]!r}" if text else ""
        super().__init__(f"{where}{reason}{snippet}")


def traces_to_text_lines(traces: Iterable[Trace]) -> Iterator[str]:
    """Serialize traces in the compact text format."""
    for trace in traces:
        hop_texts: List[str] = []
        for hop in trace.hops:
            if hop.address is None:
                hop_texts.append("*")
            elif hop.quoted_ttl != 1:
                hop_texts.append(f"{format_address(hop.address)}@{hop.quoted_ttl}")
            else:
                hop_texts.append(format_address(hop.address))
        yield f"{trace.monitor}|{format_address(trace.dst)}|{' '.join(hop_texts)}"


def _split_text_record(line: str, line_number: Optional[int]) -> List[str]:
    """``monitor|dst|hops`` → its three fields, or :class:`TraceParseError`."""
    parts = line.split("|", 2)
    if len(parts) != 3:
        raise TraceParseError(
            f"expected monitor|dst|hops, got {len(parts)} field(s)",
            line_number,
            line,
        )
    return parts


def _parse_text_destination(text: str, line_number: Optional[int], line: str) -> int:
    try:
        return parse_address(text)
    except AddressError as exc:
        raise TraceParseError(f"bad destination: {exc}", line_number, line) from exc


def _parse_text_hop(
    token: str, line_number: Optional[int], line: str
) -> Tuple[int, int]:
    """A responsive hop token ``address[@quoted_ttl]`` → ``(address,
    quoted_ttl)``; the TTL is checked before the address, so a token
    bad in both reports its TTL."""
    addr_text, _, ttl_text = token.partition("@")
    try:
        quoted = int(ttl_text) if ttl_text else 1
    except ValueError as exc:
        raise TraceParseError(
            f"bad quoted TTL {ttl_text!r}", line_number, line
        ) from exc
    try:
        address = parse_address(addr_text)
    except AddressError as exc:
        raise TraceParseError(f"bad hop address: {exc}", line_number, line) from exc
    return address, quoted


def parse_text_trace(line: str, line_number: Optional[int] = None) -> Trace:
    """Parse one non-blank line of the compact text format.

    Raises :class:`TraceParseError` for malformed input: fewer than two
    ``|`` separators, bad destination or hop addresses, or non-numeric
    quoted TTLs.
    """
    monitor, dst_text, hops_text = _split_text_record(line, line_number)
    dst = _parse_text_destination(dst_text, line_number, line)
    hops: List[Hop] = []
    for token in hops_text.split():
        if token == "*":
            hops.append(Hop(None))
        else:
            hops.append(Hop(*_parse_text_hop(token, line_number, line)))
    return Trace(monitor, dst, tuple(hops))


#: one parsed hop as plain values: ``(address or None, quoted_ttl,
#: rtt_ms)`` — the fields of a :class:`Hop`, without the object
HopTuple = Tuple[Optional[int], int, float]

#: one parsed record as plain values: ``(monitor, dst, flow_id, hops)``
RecordTuple = Tuple[str, int, int, List[HopTuple]]


def trace_record(trace: Trace) -> RecordTuple:
    """A :class:`Trace` as the plain values of :data:`RecordTuple`."""
    hops = [(hop.address, hop.quoted_ttl, hop.rtt_ms) for hop in trace.hops]
    return trace.monitor, trace.dst, trace.flow_id, hops


class TextTokenizer:
    """Parses compact-text records straight to :data:`RecordTuple` values.

    The object-free twin of :func:`parse_text_trace`, for loaders that
    only need integers.  Each distinct hop token and destination text is
    parsed once, by the same code :func:`parse_text_trace` runs, and the
    validated result is memoised by its text — a traceroute collection
    repeats the same few thousand router tokens on every line.  Failures
    are never memoised: a bad token raises the same
    :class:`TraceParseError` (reason, line number, line) on every line
    it appears on, in the same token order as the object parser.

    One tokenizer serves one load; its memo grows with the distinct
    tokens of the text it has seen.
    """

    def __init__(self) -> None:
        self._hops: Dict[str, HopTuple] = {"*": (None, 1, 0.0)}
        self._destinations: Dict[str, int] = {}

    def parse(self, line: str, line_number: Optional[int] = None) -> RecordTuple:
        """One non-blank line → ``(monitor, dst, 0, hops)``; raises
        exactly what :func:`parse_text_trace` raises on the same line."""
        monitor, dst_text, hops_text = _split_text_record(line, line_number)
        dst = self._destinations.get(dst_text)
        if dst is None:
            dst = _parse_text_destination(dst_text, line_number, line)
            self._destinations[dst_text] = dst
        memo = self._hops
        hops = []
        for token in hops_text.split():
            hop = memo.get(token)
            if hop is None:
                address, quoted = _parse_text_hop(token, line_number, line)
                hop = memo[token] = (address, quoted, 0.0)
            hops.append(hop)
        return monitor, dst, 0, hops


def parse_text_traces(lines: Iterable[str]) -> Iterator[Trace]:
    """Parse the compact text format (strict: first bad line raises)."""
    for line_number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        yield parse_text_trace(line, line_number)


def traces_to_json_lines(traces: Iterable[Trace]) -> Iterator[str]:
    """Serialize traces in the scamper-like JSON-lines format."""
    for trace in traces:
        hops = []
        for index, hop in enumerate(trace.hops, start=1):
            if hop.address is None:
                continue
            hops.append(
                {
                    "addr": format_address(hop.address),
                    "probe_ttl": index,
                    "reply_ttl": hop.quoted_ttl,
                    "rtt": hop.rtt_ms,
                }
            )
        yield json.dumps(
            {
                "src": trace.monitor,
                "dst": format_address(trace.dst),
                "hop_count": len(trace.hops),
                "hops": hops,
            },
            separators=(",", ":"),
        )


def parse_json_trace(line: str, line_number: Optional[int] = None) -> Trace:
    """Parse one line of the scamper-like JSON-lines format.

    Raises :class:`TraceParseError` for invalid JSON, missing or null
    required fields, and malformed addresses.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"invalid JSON: {exc.msg}", line_number, line) from exc
    if not isinstance(record, dict):
        raise TraceParseError(
            f"expected a JSON object, got {type(record).__name__}", line_number, line
        )
    dst_text = record.get("dst")
    if not isinstance(dst_text, str):
        raise TraceParseError("missing or null 'dst'", line_number, line)
    try:
        dst = parse_address(dst_text)
    except AddressError as exc:
        raise TraceParseError(f"bad destination: {exc}", line_number, line) from exc
    replies = {}
    raw_hops = record.get("hops") or ()
    if not isinstance(raw_hops, (list, tuple)):
        raise TraceParseError("'hops' is not an array", line_number, line)
    for hop in raw_hops:
        if not isinstance(hop, dict) or not isinstance(hop.get("probe_ttl"), int):
            raise TraceParseError(
                "hop record missing integer 'probe_ttl'", line_number, line
            )
        replies[hop["probe_ttl"]] = hop
    count = record.get("hop_count") or (max(replies) if replies else 0)
    if not isinstance(count, int) or count < 0:
        raise TraceParseError(f"bad hop_count {count!r}", line_number, line)
    hops: List[Hop] = []
    for ttl in range(1, count + 1):
        reply = replies.get(ttl)
        if reply is None:
            hops.append(Hop(None))
            continue
        addr_text = reply.get("addr")
        if not isinstance(addr_text, str):
            raise TraceParseError("hop missing or null 'addr'", line_number, line)
        try:
            address = parse_address(addr_text)
        except AddressError as exc:
            raise TraceParseError(f"bad hop address: {exc}", line_number, line) from exc
        reply_ttl_raw = reply.get("reply_ttl")
        rtt_raw = reply.get("rtt")
        try:
            reply_ttl = 1 if reply_ttl_raw is None else int(reply_ttl_raw)
            rtt = 0.0 if rtt_raw is None else float(rtt_raw)
        except (TypeError, ValueError) as exc:
            raise TraceParseError(f"bad hop field: {exc}", line_number, line) from exc
        hops.append(Hop(address, reply_ttl, rtt))
    monitor = record.get("src") or ""
    if not isinstance(monitor, str):
        monitor = str(monitor)
    return Trace(monitor, dst, tuple(hops))


def parse_json_traces(lines: Iterable[str]) -> Iterator[Trace]:
    """Parse the scamper-like JSON-lines format (strict).

    Hops missing from the ``hops`` array (unresponsive probes) become
    ``*`` entries, reconstructed from the probe TTLs.
    """
    for line_number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        yield parse_json_trace(line, line_number)


def trace_format_for_path(name: str) -> str:
    """Infer the trace format from a file name.

    ``*.jsonl`` is the scamper-like JSON-lines format, ``*.atlas`` /
    ``*.atlas.json`` the RIPE Atlas format, anything else the compact
    text format.  Shared by the serial ingester, the sharded parallel
    ingester, and the bundle cache so all three agree on the key.
    """
    if name.endswith(".jsonl"):
        return "jsonl"
    if ".atlas" in name:
        return "atlas"
    return "text"
