"""Flat int-keyed hot-path structures (the ``repro.perf.flat`` layer).

The expensive objects in a MAP-IT run are the *per-hop* Python objects:
a dense dataset holds hundreds of thousands of :class:`Hop` /
:class:`Trace` instances whose creation, refcount traffic, and pickling
dominate the parallel layer's cost.  Addresses are already integers
(``repro.net``), and every pipeline stage downstream of parsing only
needs integer adjacency — so this module provides the flat twins the
sharded execution layer moves around instead:

* :class:`FlatTraces` — a columnar, ``array``/``bytes``-backed encoding
  of a parsed trace list (one buffer per column, no per-hop objects),
  built by :func:`pack_traces`.  It serializes to a self-describing
  binary block and supports O(1) slicing into trace index ranges — the
  stress tier's generated shards (:mod:`repro.sim.stress`).
* :class:`GraphFold` — the fold state every graph source holds, the
  one §4.1 sanitize + §4.3 neighbor-set kernel in production: over
  parsed records, in-memory traces (whose hops are records' hop
  tuples already) or column blocks, each distinct adjacency of a
  buffer of traces folded once (:data:`FLUSH_SLOTS`), and the one step
  that finishes the interface graph.  The paper-literal fold in
  :mod:`repro.oracle.fold` holds it to §4.1–§4.3: the property tests
  of ``tests/test_perf_flat.py`` and the differential harness on every
  world (:func:`repro.diff.harness.compare_world`).
* :func:`encode_table` / :func:`merge_table_blob` /
  :func:`encode_addresses` / :func:`merge_address_blob` — the counter
  bundle codec: neighbor tables and address sets as packed ``uint32``
  runs.  A worker's entire result pickles as a handful of ``bytes``
  objects (near-memcpy) instead of an object graph.
* :class:`FlatGraphBundle` — a :class:`GraphFold` packed: what one
  worker returns across the fork boundary.  A bundle of the merged
  tables is also the one on-disk encoding of the folded graph:
  :meth:`FlatGraphBundle.to_bytes` is the ``.mapitc`` cache payload
  and the serve checkpoint blob.
* :func:`graph_address_universe` — every address a pass can query,
  which :meth:`repro.core.engine.Engine.prime_origins` resolves once
  per run instead of letting the engine fault them in one neighbor at
  a time mid-pass.

Everything here is an optimization, never a semantic change: the
golden-bundle, oracle-differential, and chaos harnesses hold every
consumer to the oracle's results and to byte-identity across paths.
"""

from __future__ import annotations

import struct
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import islice
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.graph.neighbors import InterfaceGraph, finish_interface_graph
from repro.net.special import default_special_registry
from repro.obs.observer import Observability
from repro.traceroute.model import Trace
from repro.traceroute.parse import HopTuple, RecordTuple, trace_record
from repro.traceroute.sanitize import first_cycle

#: array typecode with a 4-byte unsigned item (u32 addresses)
U32 = "I" if array("I").itemsize == 4 else "L"
if array(U32).itemsize != 4:  # pragma: no cover - no such CPython platform
    raise ImportError("repro.perf.flat requires a 4-byte unsigned array type")
#: signed 8-byte items (quoted TTLs and flow ids are unbounded ints)
I64 = "q"
#: IEEE double items (RTTs round-trip exactly)
F64 = "d"
#: single-byte flag items
U8 = "B"

_U32_MAX = 0xFFFFFFFF
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1

#: hop flag bit: the hop responded (address column is meaningful)
_RESPONDED = 0x01

_BLOCK_MAGIC = b"FTC1"
_LITTLE, _BIG = 1, 2
_NATIVE_ENDIAN = _LITTLE if sys.byteorder == "little" else _BIG
_BLOCK_HEADER = struct.Struct("<4sBxxxIII")

_GRAPH_MAGIC = b"FGB1"
#: magic, byte-order tag, the four buffer lengths, the three counts
_GRAPH_HEADER = struct.Struct("<4sBxxx4Q3Q")


class FlatEncodeError(ValueError):
    """A trace field does not fit the flat encoding's integer ranges.

    Raised by :func:`pack_traces` for out-of-range fields (an address
    outside u32, a quoted TTL or flow id outside i64, a monitor string
    over 4 GiB).
    """


@dataclass
class FlatTraces:
    """A parsed trace list as parallel columns.

    Per trace: ``monitor_off`` (n+1 cumulative byte offsets into
    ``monitors``), ``dst``, ``flow``, and ``hop_start`` (n+1 cumulative
    hop indices).  Per hop: ``hop_flags`` (bit 0 = responded),
    ``hop_addr`` (0 when unresponsive), ``hop_quoted``, ``hop_rtt``.
    Memory is a handful of flat buffers regardless of trace count —
    folds read them without the per-object refcount writes that make
    large object heaps slow to walk.
    """

    monitor_off: array
    monitors: bytes
    dst: array
    flow: array
    hop_start: array
    hop_flags: array
    hop_addr: array
    hop_quoted: array
    hop_rtt: array

    def __len__(self) -> int:
        return len(self.dst)

    @property
    def hop_count(self) -> int:
        return len(self.hop_flags)

    @property
    def nbytes(self) -> int:
        """Total buffer size in bytes (the ``perf.flat.*`` accounting)."""
        return (
            len(self.monitors)
            + sum(
                column.itemsize * len(column)
                for column in (
                    self.monitor_off,
                    self.dst,
                    self.flow,
                    self.hop_start,
                    self.hop_flags,
                    self.hop_addr,
                    self.hop_quoted,
                    self.hop_rtt,
                )
            )
        )

    # -- binary block -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to a self-describing binary block.

        Layout: a 16-byte header (magic, endianness tag, trace count,
        hop count, monitor-blob length) followed by the columns in
        declaration order, each a raw native-endian array dump.  O(total
        bytes); the block format of the stress tier's shard files.
        """
        header = _BLOCK_HEADER.pack(
            _BLOCK_MAGIC,
            _NATIVE_ENDIAN,
            len(self.dst),
            len(self.hop_flags),
            len(self.monitors),
        )
        parts = [header, self.monitor_off.tobytes(), self.monitors]
        parts.extend(
            column.tobytes()
            for column in (
                self.dst,
                self.flow,
                self.hop_start,
                self.hop_flags,
                self.hop_addr,
                self.hop_quoted,
                self.hop_rtt,
            )
        )
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "FlatTraces":
        """Decode a :meth:`to_bytes` block (O(total bytes), C-speed
        ``array.frombytes`` per column; byte-swapped when the block was
        written on an opposite-endian host).

        Raises :class:`ValueError` on a malformed or truncated block.
        """
        if len(blob) < _BLOCK_HEADER.size:
            raise ValueError("flat trace block shorter than its header")
        magic, endian, n_traces, n_hops, monitors_len = _BLOCK_HEADER.unpack_from(blob)
        if magic != _BLOCK_MAGIC:
            raise ValueError("flat trace block has a bad magic")
        if endian not in (_LITTLE, _BIG):
            raise ValueError("flat trace block has a bad endianness tag")
        swap = endian != _NATIVE_ENDIAN
        offset = _BLOCK_HEADER.size

        def take(typecode: str, count: int, itemsize: int) -> array:
            nonlocal offset
            column = array(typecode)
            end = offset + count * itemsize
            if end > len(blob):
                raise ValueError("flat trace block truncated")
            column.frombytes(blob[offset:end])
            if swap and itemsize > 1:
                column.byteswap()
            offset = end
            return column

        monitor_off = take(U32, n_traces + 1, 4)
        monitors_end = offset + monitors_len
        if monitors_end > len(blob):
            raise ValueError("flat trace block truncated")
        monitors = bytes(blob[offset:monitors_end])
        offset = monitors_end
        flat = cls(
            monitor_off=monitor_off,
            monitors=monitors,
            dst=take(U32, n_traces, 4),
            flow=take(I64, n_traces, 8),
            hop_start=take(U32, n_traces + 1, 4),
            hop_flags=take(U8, n_hops, 1),
            hop_addr=take(U32, n_hops, 4),
            hop_quoted=take(I64, n_hops, 8),
            hop_rtt=take(F64, n_hops, 8),
        )
        if offset != len(blob):
            raise ValueError("flat trace block has trailing bytes")
        return flat


def _check_u32(value: int, what: str) -> int:
    if not 0 <= value <= _U32_MAX:
        raise FlatEncodeError(f"{what} {value!r} does not fit in u32")
    return value


def _check_i64(value: int, what: str) -> int:
    if not _I64_MIN <= value <= _I64_MAX:
        raise FlatEncodeError(f"{what} {value!r} does not fit in i64")
    return value


def pack_traces(traces: Sequence[Trace]) -> FlatTraces:
    """Encode parsed traces into columns.

    O(total hops); one pass, no intermediate objects beyond the column
    arrays and one tuple per hop.  Raises :class:`FlatEncodeError` when
    a field falls outside the binary ranges (u32 addresses, i64
    TTL/flow).
    """
    monitor_off = array(U32, [0])
    monitor_parts: List[bytes] = []
    monitors_len = 0
    dst, flow = array(U32), array(I64)
    hop_start = array(U32, [0])
    hop_flags, hop_addr = array(U8), array(U32)
    hop_quoted, hop_rtt = array(I64), array(F64)
    for trace in traces:
        monitor, destination, flow_id, hops = trace_record(trace)
        encoded = monitor.encode("utf-8")
        monitors_len += len(encoded)
        _check_u32(monitors_len, "monitor offset")
        monitor_parts.append(encoded)
        monitor_off.append(monitors_len)
        dst.append(_check_u32(destination, "destination address"))
        flow.append(_check_i64(flow_id, "flow id"))
        for address, quoted, rtt in hops:
            if address is None:
                hop_flags.append(0)
                hop_addr.append(0)
            else:
                hop_flags.append(_RESPONDED)
                hop_addr.append(_check_u32(address, "hop address"))
            hop_quoted.append(_check_i64(quoted, "quoted TTL"))
            hop_rtt.append(float(rtt))
        hop_start.append(_check_u32(len(hop_flags), "hop count"))
    return FlatTraces(
        monitor_off=monitor_off,
        monitors=b"".join(monitor_parts),
        dst=dst,
        flow=flow,
        hop_start=hop_start,
        hop_flags=hop_flags,
        hop_addr=hop_addr,
        hop_quoted=hop_quoted,
        hop_rtt=hop_rtt,
    )


# ----------------------------------------------------------------------
# the sanitize + neighbor-set kernel

#: hop slots (gaps and one separator per trace included) a fold
#: buffers before it folds their distinct adjacencies; neighbor sets
#: are sets, so an adjacency repeated inside one buffer is folded once
FLUSH_SLOTS = 1 << 16

_hop_address = itemgetter(0)
_hop_quoted = itemgetter(1)
_ZERO = frozenset((0,))


# ----------------------------------------------------------------------
# counter-bundle codec


def encode_table(table: Dict[int, Set[int]]) -> bytes:
    """Pack a neighbor table as ``[address, count, members...]*`` u32 runs.

    Keys and members are emitted sorted, so the blob is a pure function
    of the table's *contents*.  O(entries + members log members).
    """
    packed = array(U32)
    for address in sorted(table):
        members = table[address]
        packed.append(address)
        packed.append(len(members))
        packed.extend(sorted(members))
    return packed.tobytes()


def merge_table_blob(blob: bytes, into: Dict[int, Set[int]]) -> None:
    """Union an :func:`encode_table` blob into *into* (O(members)).

    Set union is commutative and associative, so merging shard blobs in
    any order produces the members a serial fold would.  A blob that
    is not whole u32 runs raises :class:`ValueError`; *into* may then
    hold part of it, so decode into a fresh table when the blob was
    read from disk.
    """
    packed = array(U32)
    packed.frombytes(blob)
    index, length = 0, len(packed)
    while index < length - 1:
        address, count = packed[index], packed[index + 1]
        index += 2
        members = into.get(address)
        chunk = packed[index:index + count]
        if members is None:
            into[address] = set(chunk)
        else:
            members.update(chunk)
        index += count
    if index != length:
        raise ValueError("table blob ends inside a run")


def encode_addresses(addresses: Set[int]) -> bytes:
    """Pack an address set as a sorted u32 array (O(n log n))."""
    return array(U32, sorted(addresses)).tobytes()


def merge_address_blob(blob: bytes, into: Set[int]) -> None:
    """Union an :func:`encode_addresses` blob into *into* (O(n))."""
    packed = array(U32)
    packed.frombytes(blob)
    into.update(packed)


@dataclass
class FlatGraphBundle:
    """Folded graph state as packed buffers.

    Four packed buffers (forward table, backward table, the addresses
    of retained traces, pre-sanitize address universe) plus the three
    sanitize counts.  What one graph worker sends back across the fork
    boundary — the whole bundle pickles as plain ``bytes``
    (near-memcpy), so parsed traces never cross it, only integer
    tallies do — and, through :meth:`to_bytes`, the one on-disk
    encoding of a folded graph: the ``.mapitc`` cache payload and the
    serve checkpoint blob.
    """

    forward: bytes
    backward: bytes
    seen: bytes
    universe: bytes
    retained: int = 0
    discarded: int = 0
    buggy_hops_removed: int = 0

    @property
    def nbytes(self) -> int:
        """Payload size crossing the fork boundary, in bytes."""
        return (
            len(self.forward)
            + len(self.backward)
            + len(self.seen)
            + len(self.universe)
        )

    def to_bytes(self) -> bytes:
        """Serialize to one self-describing blob.

        Layout: a 64-byte little-endian header — magic ``FGB1``, the
        buffers' byte-order tag, three pad bytes, the four buffer
        lengths in bytes and the retained, discarded and buggy-hop
        counts, each a u64 — then the four buffers back to back in
        field order.  :meth:`GraphFold.bundle` sorts keys and members,
        so equal fold states give equal bytes.  O(total bytes).
        """
        buffers = (self.forward, self.backward, self.seen, self.universe)
        header = _GRAPH_HEADER.pack(
            _GRAPH_MAGIC,
            _NATIVE_ENDIAN,
            *(len(buffer) for buffer in buffers),
            self.retained,
            self.discarded,
            self.buggy_hops_removed,
        )
        return b"".join((header, *buffers))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "FlatGraphBundle":
        """Decode a :meth:`to_bytes` blob (O(total bytes)).

        Raises :class:`ValueError` on a bad magic or byte-order tag, a
        blob shorter or longer than its header says, or a buffer that
        is not whole u32s.  A blob written on a host of the other byte
        order is byte-swapped.  The runs inside a table buffer are
        checked where it is merged (:func:`merge_table_blob`).
        """
        if len(blob) < _GRAPH_HEADER.size:
            raise ValueError("graph bundle shorter than its header")
        magic, endian, *lengths, retained, discarded, buggy = (
            _GRAPH_HEADER.unpack_from(blob)
        )
        if magic != _GRAPH_MAGIC:
            raise ValueError("graph bundle has a bad magic")
        if endian not in (_LITTLE, _BIG):
            raise ValueError("graph bundle has a bad byte-order tag")
        if _GRAPH_HEADER.size + sum(lengths) != len(blob):
            raise ValueError("graph bundle length does not match its header")
        buffers = []
        offset = _GRAPH_HEADER.size
        for length in lengths:
            if length % 4:
                raise ValueError("graph bundle buffer is not whole u32s")
            buffer = bytes(blob[offset : offset + length])
            if endian != _NATIVE_ENDIAN:
                column = array(U32)
                column.frombytes(buffer)
                column.byteswap()
                buffer = column.tobytes()
            buffers.append(buffer)
            offset += length
        return cls(*buffers, retained, discarded, buggy)


def _sorted_keys(table: Dict[int, Set[int]]) -> Dict[int, Set[int]]:
    return {address: table[address] for address in sorted(table)}


class GraphFold:
    """What §4.1 sanitizing and the §4.3 neighbor fold leave behind,
    plus every observed address for the §4.2 rule.

    ``forward``/``backward`` are the neighbor tables, ``seen`` every
    address of a retained trace (``SanitizeReport.retained_addresses``,
    special ones too), ``universe`` every responsive hop address before
    any stripping (discarded traces included), and ``retained``,
    ``discarded`` and ``buggy`` the sanitize counts.  Fused-loader
    shards and in-memory trace lists
    (:func:`repro.graph.neighbors.build_interface_graph`) fold record
    streams into one (:meth:`fold_all`), the serve index one record at
    a time (:meth:`fold`), the stress tier column blocks
    (:meth:`fold_block`); a cache hit or a serve checkpoint
    restores one from its packed form (:meth:`bundle`, :meth:`merged`).
    """

    def __init__(self) -> None:
        self.forward: Dict[int, Set[int]] = {}
        self.backward: Dict[int, Set[int]] = {}
        self.seen: Set[int] = set()
        self.universe: Set[int] = set()
        self.retained = 0
        self.discarded = 0
        self.buggy = 0
        # Per-fold memo of the RFC 6890 test, shared with the other-side
        # filter: one special-prefix lookup per distinct address.
        self.is_special: Callable[[int], bool] = cache(
            default_special_registry().is_special
        )

    def fold(
        self,
        hops: Sequence[HopTuple],
        dirty: Optional[Set[Tuple[int, bool]]] = None,
    ) -> bool:
        """Sanitize and fold one parsed record's hops (§4.1 + §4.3);
        returns whether the trace was retained.

        Responsive hops land in ``universe``, quoted-TTL-0 hops become
        gaps (counted in ``buggy`` even when the trace is then
        discarded, as the serial sanitizer counts them), a trace with
        an interface cycle is discarded, and a retained trace's
        addresses land in ``seen`` and its adjacencies in the tables;
        gaps and special addresses break adjacency.  The one-record
        step serve takes per line, walking the trace's own adjacencies
        (:meth:`fold_all` folds a record stream).  O(hops).

        *dirty*, when given, collects the interface halves whose
        neighbor set actually gained a member — ``(address, FORWARD)``
        when a forward set grew, ``(address, BACKWARD)`` when a
        backward set grew — which is exactly the structural-dirtiness
        input :meth:`repro.core.mapit.MapIt.run_incremental` needs (the
        serve daemon's dirty-region tracking, docs/SERVE.md).
        """
        addresses = self._stripped(hops)
        if not self._admit(addresses):
            return False
        forward, backward, is_special = self.forward, self.backward, self.is_special
        previous: Optional[int] = None
        for address in addresses:
            if address is None or is_special(address):
                previous = None
                continue
            if previous is not None:
                members = forward.get(previous)
                if members is None:
                    members = forward[previous] = set()
                if address not in members:
                    members.add(address)
                    if dirty is not None:
                        dirty.add((previous, True))
                members = backward.get(address)
                if members is None:
                    members = backward[address] = set()
                if previous not in members:
                    members.add(previous)
                    if dirty is not None:
                        dirty.add((address, False))
            previous = address
        return True

    def fold_all(self, records: Iterable[RecordTuple]) -> None:
        """Sanitize and fold every parsed record of *records*, as
        :meth:`fold` would one at a time (the fused loader's shard).
        The chunked kernel: per record only C-level steps, and per
        :data:`FLUSH_SLOTS` buffered hop slots one Python step per
        distinct adjacency.  O(hops)."""
        self._fold_traces(self._stripped(record[3]) for record in records)

    def fold_block(self, flat: FlatTraces) -> None:
        """Sanitize and fold every trace of a column block.

        :meth:`fold_all` read straight off the hop columns, with no hop
        tuple built (the stress tier's streamed fold): the columns
        become lists a run of traces at a time and are sliced per
        trace.  O(hops in the block); equality with the oracle's fold
        (:func:`repro.oracle.fold.oracle_fold`) is property-tested in
        ``tests/test_perf_flat.py``.
        """
        self._fold_traces(self._block_traces(flat))

    # -- the kernel ----------------------------------------------------------

    def _stripped(self, hops: Sequence[HopTuple]) -> List[Optional[int]]:
        """A record's hop addresses after §4.1's TTL-0 strip."""
        addresses = [*map(_hop_address, hops)]
        if _ZERO.isdisjoint(map(_hop_quoted, hops)):
            return addresses
        return self._strip(addresses, [*map(_hop_quoted, hops)])

    def _block_traces(self, flat: FlatTraces) -> Iterator[List[Optional[int]]]:
        """Each trace's hop addresses in a column block, after §4.1's
        TTL-0 strip.  The columns become lists one run of traces at a
        time, at most :data:`FLUSH_SLOTS` hops unless a single trace is
        longer, so the lists stay within the fold's buffer bound
        whatever the block size."""
        hop_start = flat.hop_start
        traces = len(flat)
        index = 0
        while index < traces:
            base = hop_start[index]
            stop = bisect_right(hop_start, base + FLUSH_SLOTS, index + 1, traces + 1)
            stop = max(stop - 1, index + 1)
            end = hop_start[stop]
            addresses = flat.hop_addr[base:end].tolist()
            flags = flat.hop_flags[base:end]
            if flags.count(_RESPONDED) != len(flags):
                addresses = [
                    address if flag & _RESPONDED else None
                    for address, flag in zip(addresses, flags)
                ]
            quoted = flat.hop_quoted[base:end]
            quoted = quoted.tolist() if 0 in quoted else None
            bounds = [start - base for start in hop_start[index : stop + 1]]
            for first, last in zip(bounds, islice(bounds, 1, None)):
                if quoted is None or _ZERO.isdisjoint(quoted[first:last]):
                    yield addresses[first:last]
                else:
                    yield self._strip(addresses[first:last], quoted[first:last])
            index = stop

    def _strip(
        self, addresses: List[Optional[int]], quoted: Sequence[int]
    ) -> List[Optional[int]]:
        """§4.1's TTL-0 strip: a responsive hop quoting TTL 0 becomes a
        gap, counted in ``buggy``; its address still joins ``universe``."""
        stripped: List[Optional[int]] = []
        for address, ttl in zip(addresses, quoted):
            if address is not None and ttl == 0:
                self.universe.add(address)
                self.buggy += 1
                address = None
            stripped.append(address)
        return stripped

    def _admit(self, addresses: List[Optional[int]]) -> bool:
        """§4.1 for one stripped trace: its addresses join ``universe``;
        a trace with an interface cycle counts as discarded, any other
        as retained, its addresses joining ``seen``.  The positional
        cycle check runs only for a trace that repeats an address."""
        distinct = {*addresses}
        distinct.discard(None)
        self.universe |= distinct
        repeats = len(distinct) != len(addresses) - addresses.count(None)
        if repeats and first_cycle(addresses) is not None:
            self.discarded += 1
            return False
        self.retained += 1
        self.seen |= distinct
        return True

    def _fold_traces(self, traces: Iterable[List[Optional[int]]]) -> None:
        """Admit each stripped trace and buffer the retained ones, a
        ``None`` after each so that no adjacency spans two traces;
        fold the buffer's adjacencies whenever it reaches
        :data:`FLUSH_SLOTS` slots, and at the end."""
        admit = self._admit
        pending: List[Optional[int]] = []
        for addresses in traces:
            if admit(addresses):
                pending += addresses
                pending.append(None)
                if len(pending) >= FLUSH_SLOTS:
                    self._fold_adjacencies(pending)
                    pending = []
        self._fold_adjacencies(pending)

    def _fold_adjacencies(self, pending: List[Optional[int]]) -> None:
        """§4.3 over a buffer of traces: each distinct adjacency once,
        in order of first appearance, skipping those with a gap or a
        special address."""
        forward, backward, is_special = self.forward, self.backward, self.is_special
        for previous, address in dict.fromkeys(zip(pending, islice(pending, 1, None))):
            if (
                previous is None
                or address is None
                or is_special(previous)
                or is_special(address)
            ):
                continue
            forward.setdefault(previous, set()).add(address)
            backward.setdefault(address, set()).add(previous)

    def bundle(self) -> FlatGraphBundle:
        """Pack the fold state (O(members log members))."""
        return FlatGraphBundle(
            forward=encode_table(self.forward),
            backward=encode_table(self.backward),
            seen=encode_addresses(self.seen),
            universe=encode_addresses(self.universe),
            retained=self.retained,
            discarded=self.discarded,
            buggy_hops_removed=self.buggy,
        )

    @classmethod
    def merged(cls, bundles: Iterable[FlatGraphBundle]) -> "GraphFold":
        """A new fold holding the union of packed *bundles*.

        Set union is commutative and associative, so shard bundles
        merged in any order hold what one serial fold would.  A
        malformed bundle raises :class:`ValueError` before anything
        outside the new fold changes.  O(total members).
        """
        fold = cls()
        for bundle in bundles:
            merge_table_blob(bundle.forward, fold.forward)
            merge_table_blob(bundle.backward, fold.backward)
            merge_address_blob(bundle.seen, fold.seen)
            merge_address_blob(bundle.universe, fold.universe)
            fold.retained += bundle.retained
            fold.discarded += bundle.discarded
            fold.buggy += bundle.buggy_hops_removed
        return fold

    def finish(self, obs: Observability, shards: int, nbytes: int) -> InterfaceGraph:
        """The interface graph over this fold's tables.

        Both tables are rebound to sorted-key copies — the canonical
        form, so no shard or arrival order leaks into results — and
        ``seen`` joins ``universe``.  Sets the sanitize gauges and the
        ``perf.flat.*`` accounting (*shards* folded, *nbytes* of packed
        or columnar input), then runs the shared
        :func:`finish_interface_graph` (same ``graph.built`` event as
        the serial builder).  O(total members).
        """
        self.forward = _sorted_keys(self.forward)
        self.backward = _sorted_keys(self.backward)
        self.universe.update(self.seen)
        if obs.enabled:
            obs.gauge("sanitize.retained", self.retained)
            obs.gauge("sanitize.discarded", self.discarded)
            obs.gauge("sanitize.buggy_hops_removed", self.buggy)
            obs.gauge("perf.flat.shards", shards)
            obs.inc("perf.flat.bundle_bytes", nbytes)
        return finish_interface_graph(
            InterfaceGraph(forward=self.forward, backward=self.backward),
            self.seen,
            self.universe,
            self.is_special,
            obs,
        )


# ----------------------------------------------------------------------
# batched LPM resolution


def graph_address_universe(graph) -> Set[int]:
    """Every address an inference pass can ask the IP2AS mapper about:
    neighbor-table keys plus every neighbor-set member (O(edges))."""
    addresses: Set[int] = set()
    for table in (graph.forward, graph.backward):
        addresses.update(table)
        for members in table.values():
            addresses.update(members)
    return addresses
