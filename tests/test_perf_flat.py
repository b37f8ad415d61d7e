"""Unit and property tests for the flat-array data layer.

``repro.perf.flat``'s ``GraphFold`` is the production §4.1 sanitize and
§4.3 neighbor fold, over records, in-memory traces and columnar
buffers; these tests hold it to exact equality with the oracle's
paper-literal fold (:func:`repro.oracle.oracle_fold`) over seeded
random datasets, and pin the round-trip and rejection behaviour of the
binary trace-block codec and of the folded-graph codec
(``FlatGraphBundle.to_bytes``).
"""

import random
import struct
import sys
from array import array

import pytest

import repro.perf.flat as perf_flat
from repro.obs.observer import NULL_OBS
from repro.oracle import oracle_fold
from repro.perf.flat import (
    U32,
    FlatEncodeError,
    FlatGraphBundle,
    FlatTraces,
    GraphFold,
    encode_addresses,
    encode_table,
    merge_address_blob,
    merge_table_blob,
    pack_traces,
)
from repro.traceroute.model import Hop, Trace
from repro.traceroute.parse import trace_record

_COLUMNS = (
    "monitor_off", "monitors", "dst", "flow", "hop_start",
    "hop_flags", "hop_addr", "hop_quoted", "hop_rtt",
)


def _read_back(flat):
    """Every trace of *flat* as :func:`trace_record` values, read
    straight off the columns."""
    records = []
    for index in range(len(flat)):
        monitor = flat.monitors[flat.monitor_off[index]:flat.monitor_off[index + 1]]
        hops = tuple(
            (
                flat.hop_addr[i] if flat.hop_flags[i] else None,
                flat.hop_quoted[i],
                flat.hop_rtt[i],
            )
            for i in range(flat.hop_start[index], flat.hop_start[index + 1])
        )
        records.append((monitor.decode("utf-8"), flat.dst[index], flat.flow[index], hops))
    return records


def _sample_traces():
    return [
        Trace("mon-a", 0x0A000001, (Hop(0x0A000002, 1, 1.5), Hop(None), Hop(0x0A000003, 1, 20.25)), 7),
        Trace("mönïtor-β", 0xFFFFFFFF, (Hop(0xFFFFFFFF, 0, 0.0), Hop(0x01020304, 255, 3.125)), -3),
        Trace("m", 1, (), 0),
        Trace("mon-a", 0x0A000001, (Hop(0, 1, 0.0625),), 2**40),
    ]


def _fold(is_special):
    """An empty :class:`GraphFold` whose RFC 6890 test is *is_special*."""
    fold = GraphFold()
    fold.is_special = is_special
    return fold


def _random_traces(rng, n_traces=40, address_pool=24):
    """Seeded random dataset exercising gaps, buggy hops, and cycles."""
    addresses = [rng.randrange(1, 2**32) for _ in range(address_pool)]
    traces = []
    for _ in range(n_traces):
        hops = []
        for _ in range(rng.randrange(0, 9)):
            if rng.random() < 0.15:
                hops.append(Hop(None))
            else:
                hops.append(
                    Hop(
                        rng.choice(addresses),
                        0 if rng.random() < 0.1 else rng.randrange(1, 5),
                        round(rng.random() * 100, 3),
                    )
                )
        traces.append(
            Trace(
                f"monitor-{rng.randrange(4)}",
                rng.choice(addresses),
                tuple(hops),
                rng.randrange(-(2**20), 2**20),
            )
        )
    return traces


class TestBlockCodec:
    def test_pack_unpack_round_trip(self):
        traces = _sample_traces()
        flat = pack_traces(traces)
        assert len(flat) == len(traces)
        assert flat.hop_count == sum(len(t.hops) for t in traces)
        assert _read_back(flat) == [trace_record(trace) for trace in traces]

    def test_to_bytes_round_trip(self):
        flat = pack_traces(_sample_traces())
        decoded = FlatTraces.from_bytes(flat.to_bytes())
        for column in _COLUMNS:
            assert getattr(decoded, column) == getattr(flat, column), column

    def test_empty_round_trip(self):
        blob = pack_traces([]).to_bytes()
        flat = FlatTraces.from_bytes(blob)
        assert len(flat) == 0 and flat.hop_count == 0
        assert _read_back(flat) == []

    def test_from_bytes_rejects_malformed(self):
        blob = pack_traces(_sample_traces()).to_bytes()
        with pytest.raises(ValueError):
            FlatTraces.from_bytes(b"XXXX" + blob[4:])  # bad magic
        with pytest.raises(ValueError):
            FlatTraces.from_bytes(blob[:7])  # shorter than the header
        with pytest.raises(ValueError):
            FlatTraces.from_bytes(blob[:-1])  # truncated column
        with pytest.raises(ValueError):
            FlatTraces.from_bytes(blob + b"\x00")  # trailing bytes
        doctored = bytearray(blob)
        doctored[4] = 9  # endianness tag out of range
        with pytest.raises(ValueError):
            FlatTraces.from_bytes(bytes(doctored))

    def test_out_of_range_fields_raise(self):
        with pytest.raises(FlatEncodeError):
            pack_traces([Trace("m", 2**32, (), 0)])
        with pytest.raises(FlatEncodeError):
            pack_traces([Trace("m", 1, (Hop(2**32, 1, 0.0),), 0)])
        with pytest.raises(FlatEncodeError):
            pack_traces([Trace("m", 1, (Hop(1, 2**63, 0.0),), 0)])
        with pytest.raises(FlatEncodeError):
            pack_traces([Trace("m", 1, (), 2**63)])


class TestFlatKernelOracle:
    """GraphFold == the oracle's fold."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_object_oracle(self, seed):
        rng = random.Random(1_000_003 * (seed + 1))
        traces = _random_traces(rng)
        special = {a for a in {t.dst for t in traces} if a % 5 == 0}
        special.update(
            hop.address
            for trace in traces
            for hop in trace.hops
            if hop.address is not None and hop.address % 5 == 0
        )
        is_special = special.__contains__

        oracle = oracle_fold(traces, is_special)

        fold = _fold(is_special)
        fold.fold_block(pack_traces(traces))

        assert (fold.retained, fold.discarded, fold.buggy) == (
            oracle.retained,
            oracle.discarded,
            oracle.buggy_hops_removed,
        )
        assert fold.forward == oracle.forward
        assert fold.backward == oracle.backward
        assert fold.seen == oracle.retained_addresses
        assert fold.universe == oracle.all_addresses

    @pytest.mark.parametrize("seed", range(4))
    def test_sharded_bundles_merge_to_serial(self, seed):
        """Per-shard bundles merged == one whole fold."""
        rng = random.Random(7_654_321 + seed)
        traces = _random_traces(rng, n_traces=60)
        is_special = (lambda a: a % 7 == 0)

        whole = _fold(is_special)
        whole.fold_block(pack_traces(traces))

        bundles = []
        for start in range(0, len(traces), 13):
            shard = _fold(is_special)
            shard.fold_block(pack_traces(traces[start:start + 13]))
            bundles.append(shard.bundle())

        merged = GraphFold.merged(bundles)
        counts = (merged.retained, merged.discarded, merged.buggy)
        assert counts == (whole.retained, whole.discarded, whole.buggy)
        assert merged.forward == whole.forward
        assert merged.backward == whole.backward
        assert merged.seen == whole.seen
        assert merged.universe == whole.universe
        graph = merged.finish(NULL_OBS, len(bundles), 0)
        assert list(graph.forward) == sorted(whole.forward)
        assert list(graph.backward) == sorted(whole.backward)

    @pytest.mark.parametrize("seed", range(6))
    def test_dirty_reports_exactly_the_grown_halves(self, seed):
        """``GraphFold.fold``'s ``dirty`` out-param names precisely the
        (address, forward) halves whose neighbor set gained a member —
        the serve layer's dirty-region invalidation depends on this
        being exact."""
        rng = random.Random(31_337 + seed)
        traces = _random_traces(rng, n_traces=80)
        is_special = (lambda a: a % 7 == 0)
        records = [trace_record(trace) for trace in traces]

        fold = _fold(is_special)
        split = len(records) // 2
        for record in records[:split]:
            fold.fold(record[3])
        before_forward = {a: set(m) for a, m in fold.forward.items()}
        before_backward = {a: set(m) for a, m in fold.backward.items()}

        dirty = set()
        for record in records[split:]:
            fold.fold(record[3], dirty)

        expected = set()
        for address, members in fold.forward.items():
            if members != before_forward.get(address, set()):
                expected.add((address, True))
        for address, members in fold.backward.items():
            if members != before_backward.get(address, set()):
                expected.add((address, False))
        assert dirty == expected

    def test_dirty_empty_on_refold(self):
        """Re-folding the same records grows nothing: dirty stays empty."""
        records = [trace_record(trace) for trace in _sample_traces()]
        fold = _fold(lambda a: False)
        for record in records:
            fold.fold(record[3])
        dirty = set()
        for record in records:
            fold.fold(record[3], dirty)
        assert dirty == set()


#: traces whose ends fall on flush edges at small flush bounds: an
#: address repeated only adjacently (a self-loop member, no cycle),
#: gaps and special addresses (20, 25) first and last, a cycle through
#: a gap, a buggy hop, a single hop, no hops
_EDGE_TRACES = [
    Trace("m", 1, (Hop(11), Hop(12), Hop(12), Hop(13))),
    Trace("m", 1, (Hop(None), Hop(11), Hop(15))),
    Trace("m", 1, (Hop(15), Hop(11), Hop(None))),
    Trace("m", 1, (Hop(20), Hop(11), Hop(12))),
    Trace("m", 1, (Hop(12), Hop(13), Hop(25))),
    Trace("m", 1, (Hop(13), Hop(None), Hop(13))),
    Trace("m", 1, (Hop(14), Hop(16, 0), Hop(17))),
    Trace("m", 1, (Hop(17),)),
    Trace("m", 1, ()),
    Trace("m", 1, (Hop(18), Hop(18), Hop(18), Hop(25), Hop(25))),
]

_EDGE_SPECIAL = {20, 25}.__contains__


def _oracle_tables(traces, is_special):
    """The oracle's fold: tables, retained addresses, all addresses and
    the three counts."""
    oracle = oracle_fold(traces, is_special)
    counts = (oracle.retained, oracle.discarded, oracle.buggy_hops_removed)
    return (
        oracle.forward,
        oracle.backward,
        oracle.retained_addresses,
        oracle.all_addresses,
        counts,
    )


def _fold_tables(fold):
    counts = (fold.retained, fold.discarded, fold.buggy)
    return fold.forward, fold.backward, fold.seen, fold.universe, counts


class TestFlushBoundaries:
    """The chunked kernel folds each distinct adjacency of a buffer of
    up to ``FLUSH_SLOTS`` hop slots once; with the bound cut to a few
    slots every trace end is a flush edge, and the folds must still
    equal the oracle's."""

    @pytest.mark.parametrize("slots", [1, 2, 3, 4, 5, 7, 11])
    @pytest.mark.parametrize("seed", range(3))
    def test_fold_block_and_fold_all(self, slots, seed, monkeypatch):
        monkeypatch.setattr(perf_flat, "FLUSH_SLOTS", slots)
        rng = random.Random(90_210 + seed)
        traces = _EDGE_TRACES * 2 + _random_traces(rng, n_traces=30, address_pool=12)
        rng.shuffle(traces)
        is_special = lambda a: a in (20, 25) or a % 9 == 0  # noqa: E731
        want = _oracle_tables(traces, is_special)
        assert want[4][1] > 0 and want[4][2] > 0  # cycles and buggy hops

        blocks = _fold(is_special)
        cuts = sorted(rng.sample(range(1, len(traces)), 3))
        bounds = [0, *cuts, len(traces)]
        for start, end in zip(bounds, bounds[1:]):
            blocks.fold_block(pack_traces(traces[start:end]))
        assert _fold_tables(blocks) == want

        one_block = _fold(is_special)
        one_block.fold_block(pack_traces(traces))
        assert _fold_tables(one_block) == want

        records = _fold(is_special)
        records.fold_all(trace_record(trace) for trace in traces)
        assert _fold_tables(records) == want

    def test_edge_traces(self, monkeypatch):
        """The hand-built edge cases alone, at every small bound."""
        want = _oracle_tables(_EDGE_TRACES, _EDGE_SPECIAL)
        assert 12 in want[0][12] and 18 in want[0][18]  # self-loop members
        for slots in range(1, 12):
            monkeypatch.setattr(perf_flat, "FLUSH_SLOTS", slots)
            fold = _fold(_EDGE_SPECIAL)
            fold.fold_all(trace_record(trace) for trace in _EDGE_TRACES)
            assert _fold_tables(fold) == want, slots

    @pytest.mark.parametrize("slots", [1, 3, 6])
    @pytest.mark.parametrize("seed", range(3))
    def test_fold_after_flushed_fold_all_reports_exact_dirty_halves(
        self, slots, seed, monkeypatch
    ):
        """Records folded by the chunked kernel, then one at a time with
        ``dirty``: the dirty set names exactly the grown halves, and the
        tables end equal to the oracle's over every record."""
        monkeypatch.setattr(perf_flat, "FLUSH_SLOTS", slots)
        rng = random.Random(4_242 + seed)
        traces = _EDGE_TRACES + _random_traces(rng, n_traces=60, address_pool=16)
        rng.shuffle(traces)
        is_special = lambda a: a in (20, 25) or a % 7 == 0  # noqa: E731
        split = len(traces) // 2
        fold = _fold(is_special)
        fold.fold_all(trace_record(trace) for trace in traces[:split])
        before = {
            True: {a: set(m) for a, m in fold.forward.items()},
            False: {a: set(m) for a, m in fold.backward.items()},
        }
        dirty = set()
        retained = [fold.fold(trace_record(trace)[3], dirty) for trace in traces[split:]]
        expected = {
            (address, direction)
            for direction, table in ((True, fold.forward), (False, fold.backward))
            for address, members in table.items()
            if members != before[direction].get(address, set())
        }
        assert dirty == expected
        want = _oracle_tables(traces, is_special)
        assert _fold_tables(fold) == want
        assert retained.count(True) == oracle_fold(traces[split:], is_special).retained


class TestBundleCodec:
    def test_table_blob_round_trip(self):
        table = {5: {1, 9, 3}, 2: {2}, 0xFFFFFFFF: {0}}
        merged = {}
        merge_table_blob(encode_table(table), merged)
        assert merged == table
        # fail closed: a run that overruns the buffer, a key with no count
        for malformed in ([5, 100], [5]):
            with pytest.raises(ValueError):
                merge_table_blob(array(U32, malformed).tobytes(), {})

    def test_table_blob_union(self):
        merged = {}
        merge_table_blob(encode_table({1: {2}, 3: {4}}), merged)
        merge_table_blob(encode_table({1: {5}, 6: {7}}), merged)
        assert merged == {1: {2, 5}, 3: {4}, 6: {7}}

    def test_address_blob_round_trip(self):
        addresses = {0, 1, 0xFFFFFFFF, 42}
        merged = set()
        merge_address_blob(encode_addresses(addresses), merged)
        assert merged == addresses

    def test_encode_table_is_content_deterministic(self):
        a = {2: {9, 1}, 1: {3}}
        b = {1: {3}, 2: {1, 9}}
        assert encode_table(a) == encode_table(b)


def _graph_bundle():
    rng = random.Random(8_675_309)
    fold = _fold(lambda a: a % 7 == 0)
    fold.fold_block(pack_traces(_random_traces(rng, n_traces=50)))
    return fold.bundle()


#: FlatGraphBundle.to_bytes header: magic, byte-order tag, three pad
#: bytes, four u64 buffer lengths, three u64 counts (little-endian)
_HEADER = struct.Struct("<4sBxxx4Q3Q")


class TestGraphBundleCodec:
    def test_round_trip(self):
        bundle = _graph_bundle()
        assert bundle.retained > 0 and bundle.discarded > 0
        assert FlatGraphBundle.from_bytes(bundle.to_bytes()) == bundle
        empty = GraphFold().bundle()
        assert FlatGraphBundle.from_bytes(empty.to_bytes()) == empty

    def test_malformed_blobs_raise(self):
        blob = _graph_bundle().to_bytes()
        overrun = bytearray(blob)
        (forward_len,) = struct.unpack_from("<Q", overrun, 8)
        struct.pack_into("<Q", overrun, 8, forward_len + 4)
        not_u32 = FlatGraphBundle(b"\x00" * 3, b"", b"", b"\x00").to_bytes()
        for malformed in (
            blob[:10],  # shorter than the header
            blob[:-4],  # truncated buffer
            blob + b"\x00" * 4,  # trailing bytes
            bytes(overrun),  # a length that runs past the blob
            b"XXXX" + blob[4:],  # bad magic
            blob[:4] + b"\x09" + blob[5:],  # bad byte-order tag
            not_u32,  # a buffer that is not whole u32s
        ):
            with pytest.raises(ValueError):
                FlatGraphBundle.from_bytes(malformed)

    def test_other_byte_order_decodes(self):
        bundle = _graph_bundle()
        buffers = (bundle.forward, bundle.backward, bundle.seen, bundle.universe)
        swapped = []
        for buffer in buffers:
            column = array(U32)
            column.frombytes(buffer)
            column.byteswap()
            swapped.append(column.tobytes())
        foreign_tag = 2 if sys.byteorder == "little" else 1
        header = _HEADER.pack(
            b"FGB1",
            foreign_tag,
            *(len(buffer) for buffer in swapped),
            bundle.retained,
            bundle.discarded,
            bundle.buggy_hops_removed,
        )
        assert bundle.to_bytes() != header + b"".join(swapped)
        assert FlatGraphBundle.from_bytes(header + b"".join(swapped)) == bundle
