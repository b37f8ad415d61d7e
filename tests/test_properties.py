"""Property-based tests on core data structures and algorithm
invariants: hypothesis strategies for the structured generators, plus
seeded stdlib-``random`` fuzzers for the raw string parsers (no extra
dependency, fully reproducible from the hard-coded seeds)."""

import json
import random
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.results import LinkInference, MapItResult
from repro.graph.neighbors import build_interface_graph
from repro.graph.othersides import infer_other_sides
from repro.net.ipv4 import (
    MAX_ADDRESS,
    AddressError,
    format_address,
    is_valid_address,
    parse_address,
)
from repro.net.prefix import (
    Prefix,
    host_addresses,
    is_reserved_in_30,
    p2p_other_side_31,
    prefix_of,
)
from repro.net.trie import PrefixTrie
from repro.traceroute.model import Hop, Trace
from repro.traceroute.parse import (
    TraceParseError,
    parse_json_trace,
    parse_json_traces,
    parse_text_trace,
    parse_text_traces,
    traces_to_json_lines,
    traces_to_text_lines,
)
from repro.traceroute.sanitize import find_cycle, sanitize_traces, strip_buggy_hops

addresses = st.integers(min_value=0, max_value=MAX_ADDRESS)
lengths = st.integers(min_value=0, max_value=32)


class TestAddressProperties:
    @given(addresses)
    def test_format_parse_roundtrip(self, address):
        assert parse_address(format_address(address)) == address


class TestPrefixProperties:
    @given(addresses, lengths)
    def test_prefix_contains_own_range(self, address, length):
        prefix = prefix_of(address, length)
        assert prefix.contains(prefix.address)
        assert prefix.contains(prefix.broadcast)
        assert prefix.contains(address)

    @given(addresses, lengths)
    def test_parse_str_roundtrip(self, address, length):
        prefix = prefix_of(address, length)
        assert Prefix.parse(str(prefix)) == prefix

    @given(addresses, st.integers(min_value=1, max_value=32))
    def test_outside_neighbors_not_contained(self, address, length):
        prefix = prefix_of(address, length)
        if prefix.address > 0:
            assert not prefix.contains(prefix.address - 1)
        if prefix.broadcast < MAX_ADDRESS:
            assert not prefix.contains(prefix.broadcast + 1)

    @given(addresses, st.integers(min_value=24, max_value=31))
    def test_host_addresses_inside(self, address, length):
        prefix = prefix_of(address, length)
        hosts = list(host_addresses(prefix))
        assert hosts
        assert all(prefix.contains(host) for host in hosts)
        if length < 31:
            assert prefix.address not in hosts
            assert prefix.broadcast not in hosts

    @given(addresses)
    def test_p2p_31_involution(self, address):
        assert p2p_other_side_31(p2p_other_side_31(address)) == address
        assert prefix_of(address, 31) == prefix_of(p2p_other_side_31(address), 31)


#: prefix bases that make nested, equal and adjacent prefixes likely
#: (10.0.0.0/31 and 10.0.0.2/31 touch; 10.0.0.0/8 holds both)
_trie_bases = st.sampled_from(
    [0, 0x0A000000, 0x0A000002, 0x0A000004, 0x0A000100, 0x0AFFFFFF, MAX_ADDRESS]
) | addresses
_trie_lengths = st.sampled_from([0, 8, 24, 30, 31, 32]) | lengths
_trie_prefixes = st.builds(prefix_of, _trie_bases, _trie_lengths)
_trie_queries = _trie_bases | st.builds(
    lambda base, delta: min(max(base + delta, 0), MAX_ADDRESS),
    _trie_bases,
    st.integers(min_value=-2, max_value=2),
)
#: interleaved ("insert", prefix, value) / ("remove", prefix) /
#: ("lookup", address) steps; a None value must still count as a match
_trie_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _trie_prefixes, st.none() | st.integers(0, 3)),
        st.tuples(st.just("remove"), _trie_prefixes),
        st.tuples(st.just("lookup"), _trie_queries),
    ),
    min_size=1,
    max_size=60,
)


class TestTrieProperties:
    @given(_trie_ops)
    @example(
        [
            ("insert", Prefix.parse("0.0.0.0/0"), None),
            ("lookup", 0x0A000003),
            ("insert", Prefix.parse("10.0.0.0/8"), 1),
            ("insert", Prefix.parse("10.0.0.0/31"), 2),
            ("insert", Prefix.parse("10.0.0.2/31"), 3),
            ("insert", Prefix.parse("10.0.0.3/32"), 4),
            ("lookup", 0x0A000003),
            ("insert", Prefix.parse("10.0.0.3/32"), 5),
            ("lookup", 0x0A000003),
            ("remove", Prefix.parse("10.0.0.3/32")),
            ("lookup", 0x0A000003),
            ("remove", Prefix.parse("10.0.0.2/31")),
            ("lookup", 0x0A000003),
            ("remove", Prefix.parse("0.0.0.0/0")),
            ("lookup", 0x0B000000),
        ]
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_lpm(self, ops):
        """Every lookup, wherever it falls among inserts, replacements
        and removes, agrees with a brute-force LPM over a dict."""
        trie = PrefixTrie()
        table = {}
        for op in ops:
            if op[0] == "insert":
                trie.insert(op[1], op[2])
                table[op[1]] = op[2]
            elif op[0] == "remove":
                assert trie.remove(op[1]) == (op[1] in table)
                table.pop(op[1], None)
            else:
                query = op[1]
                best = None
                for prefix, value in table.items():
                    if prefix.contains(query):
                        if best is None or prefix.length > best[0].length:
                            best = (prefix, value)
                assert trie.lookup(query) == best
                assert (query in trie) == (best is not None)
                assert trie.lookup_value(query) == (best[1] if best else None)
            assert len(trie) == len(table)

    @given(st.lists(st.tuples(addresses, lengths), max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_items_roundtrip(self, entries):
        trie = PrefixTrie()
        table = {}
        for index, (address, length) in enumerate(entries):
            prefix = prefix_of(address, length)
            trie.insert(prefix, index)
            table[prefix] = index
        ordered = sorted(table.items(), key=lambda kv: (kv[0].address, kv[0].length))
        assert list(trie.items()) == ordered
        assert len(trie) == len(table)


class TestOtherSideProperties:
    @given(st.sets(addresses, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_complete_and_consistent(self, observed):
        table = infer_other_sides(observed)
        assert set(table.other_side) == observed
        for address, other in table.other_side.items():
            # Other side shares the /30; distinct from the address.
            assert other != address
            assert prefix_of(address, 30) == prefix_of(other, 30)
            if address in table.from_31:
                assert other == address ^ 1
            else:
                assert not is_reserved_in_30(address)
                assert not is_reserved_in_30(other)

    @given(st.sets(addresses, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_31_judgement_monotone_in_evidence(self, observed):
        """Adding the /30-reserved sibling can only move an address
        from /30 to /31, never the reverse."""
        base = infer_other_sides(observed)
        extra = set(observed)
        for address in observed:
            extra.add(address & ~3)
        more = infer_other_sides(extra)
        for address in observed:
            if address in base.from_31:
                assert address in more.from_31


def traces_strategy():
    hop = st.one_of(
        st.none(),
        st.integers(min_value=1 << 24, max_value=(99 << 24)),
    )
    return st.lists(
        st.tuples(
            st.lists(hop, min_size=1, max_size=12),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1,
        max_size=10,
    )


def build_traces(raw):
    traces = []
    for hops, flow in raw:
        traces.append(
            Trace(
                "mon",
                parse_address("203.0.114.1"),
                tuple(Hop(address) for address in hops),
                flow,
            )
        )
    return traces


class TestSanitizeProperties:
    @given(traces_strategy())
    @settings(max_examples=60, deadline=None)
    def test_retained_traces_are_cycle_free(self, raw):
        report = sanitize_traces(build_traces(raw))
        for trace in report.traces:
            assert find_cycle(trace) is None

    @given(traces_strategy())
    @settings(max_examples=60, deadline=None)
    def test_counts_add_up(self, raw):
        traces = build_traces(raw)
        report = sanitize_traces(traces)
        assert len(report.traces) + report.discarded == len(traces)
        assert report.retained_addresses <= report.all_addresses

    @given(traces_strategy())
    @settings(max_examples=40, deadline=None)
    def test_strip_buggy_never_adds_addresses(self, raw):
        for trace in build_traces(raw):
            cleaned = strip_buggy_hops(trace)
            before = set(trace.addresses())
            after = set(cleaned.addresses())
            assert after <= before


class TestParseProperties:
    @given(traces_strategy())
    @settings(max_examples=50, deadline=None)
    def test_text_roundtrip(self, raw):
        traces = build_traces(raw)
        parsed = list(parse_text_traces(traces_to_text_lines(traces)))
        assert len(parsed) == len(traces)
        for original, back in zip(traces, parsed):
            assert [h.address for h in original.hops] == [
                h.address for h in back.hops
            ]

    @given(traces_strategy())
    @settings(max_examples=50, deadline=None)
    def test_json_roundtrip(self, raw):
        traces = build_traces(raw)
        parsed = list(parse_json_traces(traces_to_json_lines(traces)))
        for original, back in zip(traces, parsed):
            assert [h.address for h in original.hops] == [
                h.address for h in back.hops
            ]


_kinds = st.sampled_from(["direct", "indirect", "stub", "},\n      {"]) | st.text(
    alphabet=st.sampled_from('"\\{}\n,: aé☃\u2028\x00'), max_size=8
)
_inferences = st.builds(
    LinkInference,
    address=addresses,
    forward=st.booleans(),
    local_as=st.integers(min_value=0, max_value=MAX_ADDRESS),
    remote_as=st.integers(min_value=0, max_value=MAX_ADDRESS),
    kind=_kinds,
    other_side=st.none() | addresses,
    uncertain=st.booleans(),
)
_results = st.builds(
    MapItResult,
    inferences=st.lists(_inferences, max_size=6),
    uncertain=st.lists(_inferences, max_size=3),
    iterations=st.integers(min_value=0, max_value=9),
    converged=st.booleans(),
    diagnostics=st.dictionaries(st.text(max_size=6), st.integers(0, 99), max_size=3),
)


class TestResultJsonProperties:
    """``to_json`` encodes the record lists on the C encoder and then
    rewrites their layout; its bytes must stay ``json.dumps``'s."""

    @given(_results, st.sampled_from([None, 1, 2, 4]))
    @example(MapItResult([], [], 0, True), 2)
    @settings(max_examples=200, deadline=None)
    def test_to_json_is_json_dumps(self, result, indent):
        document = {
            "summary": result.summary(),
            "converged": result.converged,
            "diagnostics": result.diagnostics,
            "inferences": [inference.to_dict() for inference in result.inferences],
            "uncertain": [inference.to_dict() for inference in result.uncertain],
        }
        text = result.to_json(indent)
        assert text == json.dumps(document, indent=indent)
        assert MapItResult.from_json(text) == result


def _mutate_line(rng, line):
    """One random edit: delete, insert, replace, splice, or truncate."""
    kind = rng.randrange(5)
    if not line or kind == 4:
        return line[: rng.randrange(len(line) + 1)]
    position = rng.randrange(len(line))
    junk = rng.choice(string.printable.strip() + "|@*. ")
    if kind == 0:
        return line[:position] + line[position + 1 :]
    if kind == 1:
        return line[:position] + junk + line[position:]
    if kind == 2:
        return line[:position] + junk + line[position + 1 :]
    return line[:position] + line[: rng.randrange(len(line) + 1)]


class TestSeededAddressFuzz:
    """Stdlib-``random`` fuzzers for the dotted-quad parser: any string
    either parses (and then round-trips) or raises AddressError —
    nothing else escapes, under fixed seeds."""

    def test_octet_shaped_garbage(self):
        rng = random.Random(0xA11C)
        pieces = ["0", "1", "9", "10", "99", "255", "256", "999", "00", "01",
                  "-1", "+1", "1e1", " 1", "1 ", "", "x", "³", "0x10"]
        for _ in range(3000):
            text = ".".join(rng.choice(pieces) for _ in range(rng.randrange(1, 6)))
            try:
                value = parse_address(text)
            except AddressError:
                assert not is_valid_address(text)
                continue
            assert 0 <= value <= MAX_ADDRESS
            canonical = format_address(value)
            assert parse_address(canonical) == value

    def test_printable_garbage_only_raises_address_error(self):
        rng = random.Random(0xF00D)
        alphabet = string.printable
        for _ in range(2000):
            text = "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(0, 24))
            )
            if is_valid_address(text):
                assert format_address(parse_address(text)).count(".") == 3
            else:
                with pytest.raises(AddressError):
                    parse_address(text)

    def test_mutated_valid_addresses(self):
        rng = random.Random(0xCAFE)
        for _ in range(2000):
            address = rng.randrange(MAX_ADDRESS + 1)
            text = _mutate_line(rng, format_address(address))
            try:
                parse_address(text)
            except AddressError:
                pass  # the only acceptable failure mode


class TestSeededTraceLineFuzz:
    """Mutation fuzzers for the trace-record parsers: a damaged line
    either still parses or raises TraceParseError (a ValueError) with
    the caller's line number attached — never any other exception."""

    def _valid_text_lines(self, rng, count):
        lines = []
        for _ in range(count):
            hops = []
            for _ in range(rng.randrange(1, 6)):
                if rng.random() < 0.2:
                    hops.append("*")
                else:
                    addr = format_address(rng.randrange(1 << 24, 99 << 24))
                    if rng.random() < 0.3:
                        addr += f"@{rng.randrange(0, 4)}"
                    hops.append(addr)
            dst = format_address(rng.randrange(1 << 24, 99 << 24))
            lines.append(f"m{rng.randrange(4)}|{dst}|{' '.join(hops)}")
        return lines

    def test_mutated_text_lines(self):
        rng = random.Random(0xBEEF)
        for line in self._valid_text_lines(rng, 600):
            damaged = _mutate_line(rng, line)
            if not damaged.strip() or damaged.lstrip().startswith("#"):
                continue
            try:
                trace = parse_text_trace(damaged, line_number=11)
            except TraceParseError as exc:
                assert exc.line_number == 11
                assert isinstance(exc, ValueError)
            else:
                assert trace.hops is not None

    def test_mutated_json_lines(self):
        rng = random.Random(0xD00D)
        source = list(
            traces_to_json_lines(
                parse_text_traces(self._valid_text_lines(rng, 300))
            )
        )
        for line in source:
            damaged = _mutate_line(rng, line)
            if not damaged.strip():
                continue
            try:
                parse_json_trace(damaged, line_number=7)
            except TraceParseError as exc:
                assert exc.line_number == 7

    def test_lenient_ingest_accounts_for_every_record(self, tmp_path):
        """Over a fuzzed corpus, lenient ingest never raises and its
        counts partition the non-blank, non-comment lines exactly —
        under the serial ingester and the sharded fused loader alike."""
        from repro.perf.ingest import stream_graph_from_file
        from repro.robust.ingest import ingest_traces
        from tests.test_oracle import oracle_graph

        rng = random.Random(0x5EED)
        lines = []
        for line in self._valid_text_lines(rng, 400):
            lines.append(_mutate_line(rng, line) if rng.random() < 0.5 else line)
        records = sum(
            1 for line in lines if line.strip() and not line.strip().startswith("#")
        )
        traces, report = ingest_traces(lines, mode="lenient")
        assert report.parsed + report.malformed == records
        assert report.parsed == len(traces)
        path = tmp_path / "traces.txt"
        path.write_text("\n".join(lines) + "\n")
        par_graph, par_report, _ = stream_graph_from_file(path, 4, mode="lenient")
        graph, _ = oracle_graph(traces)
        assert (par_graph.forward, par_graph.backward) == (graph.forward, graph.backward)
        assert (par_report.parsed, par_report.malformed) == (
            report.parsed,
            report.malformed,
        )


class TestNeighborSetProperties:
    @given(traces_strategy())
    @settings(max_examples=50, deadline=None)
    def test_forward_backward_duality(self, raw):
        """b in N_F(a) if and only if a in N_B(b)."""
        graph = build_interface_graph(build_traces(raw))
        for address in graph.addresses():
            for successor in graph.n_forward(address):
                assert address in graph.n_backward(successor)
            for predecessor in graph.n_backward(address):
                assert address in graph.n_forward(predecessor)
