"""Sharded sanitize + neighbor-set construction.

Trace shards are independent under both pipeline stages: sanitization
(section 4.1) is per-trace, and the neighbor-set fold (section 4.3)
records *membership*, not multiplicity — so a worker can fuse both
stages over its shard and return partial N_F/N_B tables, and the parent
merges them by set union.  Fusing matters: returning sanitized traces
from workers would pickle the whole dataset back through the pool; the
partial tables are far smaller — and they cross the boundary as packed
``uint32`` buffers (:class:`repro.perf.flat.FlatGraphBundle`), so the
result pickle is a handful of ``bytes`` objects, near-memcpy, instead
of an object graph of dicts-of-sets.

Determinism: set-union is commutative and associative, so the merged
tables contain exactly the serial members for every address regardless
of shard count; the merged dicts are rebuilt with sorted keys so even
their iteration order is a pure function of the input.  (The inference
engine is insensitive to neighbor-table iteration order — every
result-affecting traversal sorts — but canonical order makes the
parallel graph reproducible byte-for-byte on its own terms.)  The
shared tail :func:`repro.graph.neighbors.finish_interface_graph`
computes other-sides and emits the same ``graph.built`` observability
as the serial builder.

Two worker kernels share the bundle shape:

* :func:`_graph_shard` sanitizes a shard of parsed :class:`Trace`
  objects with the object kernel (the cold path, where objects exist
  anyway because parsing just produced them);
* :func:`_flat_graph_shard` folds a trace-index range of a columnar
  :class:`~repro.perf.flat.FlatTraces` block with
  :func:`~repro.perf.flat.accumulate_flat` (the warm-cache path, which
  never materializes a ``Hop``).
"""

from __future__ import annotations

from functools import cache
from typing import List, Optional, Sequence

from repro.graph.neighbors import (
    InterfaceGraph,
    accumulate_neighbors,
    finish_interface_graph,
)
from repro.net.special import default_special_registry
from repro.obs.observer import NULL_OBS, Observability
from repro.perf.flat import (
    FlatGraphBundle,
    FlatTraces,
    accumulate_flat,
    bundle_tables,
    merge_graph_bundles,
)
from repro.perf.pool import Shard, fork_map, shared_payload
from repro.traceroute.model import Trace
from repro.traceroute.sanitize import sanitize_traces


def _graph_shard(shard: Shard) -> FlatGraphBundle:
    """Sanitize one shard of parsed traces and fold it into a packed
    partial-table bundle (runs in a worker process).

    O(hops in shard); pickles back only the bundle's packed buffers.
    """
    traces: Sequence[Trace] = shared_payload()
    start, end = shard
    report = sanitize_traces(traces[start:end])
    is_special = default_special_registry().is_special
    forward = {}
    backward = {}
    seen = set()
    accumulate_neighbors(report.traces, forward, backward, seen, is_special)
    counts = (len(report.traces), report.discarded, report.buggy_hops_removed)
    return bundle_tables(forward, backward, seen, report.all_addresses, counts)


def _flat_graph_shard(shard: Shard) -> FlatGraphBundle:
    """Fold one trace-index range of a columnar block into a packed
    partial-table bundle (runs in a worker process).

    The copy-on-write payload is a :class:`FlatTraces` — a handful of
    flat buffers, so the fork inherits it without touching per-object
    refcounts.  O(hops in range); pickles back only packed buffers.
    """
    flat: FlatTraces = shared_payload()
    start, end = shard
    # Per-shard memo, as in the fused text loader: one special-prefix
    # lookup per distinct address instead of one per hop; freed with
    # the shard.
    is_special = cache(default_special_registry().is_special)
    forward = {}
    backward = {}
    seen = set()
    universe = set()
    counts = accumulate_flat(
        flat, start, end, forward, backward, seen, universe, is_special
    )
    return bundle_tables(forward, backward, seen, universe, counts)


def finish_graph_from_bundles(
    bundles: List[FlatGraphBundle], obs: Observability = NULL_OBS
) -> InterfaceGraph:
    """Merge worker bundles and finish the interface graph.

    Deterministic parent-side tail shared by every sharded builder:
    set-union merge with sorted-key rebuild, the serial sanitize
    gauges, ``perf.flat.*`` transfer accounting, and the shared
    :func:`finish_interface_graph` (same ``graph.built`` event as the
    serial builder).  O(total members) in the merged tables.
    """
    forward, backward, seen, universe, counts = merge_graph_bundles(bundles)
    retained, discarded, buggy = counts
    universe.update(seen)
    if obs.enabled:
        obs.gauge("sanitize.retained", retained)
        obs.gauge("sanitize.discarded", discarded)
        obs.gauge("sanitize.buggy_hops_removed", buggy)
        obs.gauge("perf.flat.shards", len(bundles))
        obs.inc(
            "perf.flat.bundle_bytes", sum(bundle.nbytes for bundle in bundles)
        )
    return finish_interface_graph(
        InterfaceGraph(forward=forward, backward=backward),
        seen,
        universe,
        default_special_registry().is_special,
        obs,
    )


def build_graph_parallel(
    traces: Sequence[Trace],
    jobs: int,
    obs: Observability = NULL_OBS,
    shard_timeout: Optional[float] = None,
) -> InterfaceGraph:
    """Sanitize *traces* and build the interface graph across *jobs*
    workers.

    Equivalent to ``sanitize_traces`` + ``build_interface_graph`` with
    ``all_addresses=report.all_addresses``: same neighbor sets, same
    other-side table, same ``graph.built`` event — the sharding is
    invisible downstream.  The trace list crosses into workers via the
    copy-on-write fork payload (nothing pickled in); only packed
    counter bundles are pickled out.  *shard_timeout* is the
    supervisor's per-shard deadline (docs/ROBUSTNESS.md).
    """
    traces = traces if isinstance(traces, (list, tuple)) else list(traces)
    with obs.span("sanitize+neighbor_sets"):
        results = fork_map(
            _graph_shard, traces, len(traces), jobs, timeout=shard_timeout, obs=obs
        )
    return finish_graph_from_bundles(results, obs)


def build_graph_flat(
    flat: FlatTraces,
    jobs: int,
    obs: Observability = NULL_OBS,
    shard_timeout: Optional[float] = None,
) -> InterfaceGraph:
    """Build the interface graph straight from a columnar block.

    The warm-cache fast path: shards the trace-index space across
    *jobs* workers, each folding its range with the flat kernel — no
    :class:`Trace`/:class:`Hop` objects are ever created on either side
    of the fork.  Byte-identical downstream to the serial builder over
    the decoded traces (``tests/test_perf_flat.py`` and the golden
    suites hold the kernels equal).  *shard_timeout* as above.
    """
    with obs.span("sanitize+neighbor_sets"):
        results = fork_map(
            _flat_graph_shard, flat, len(flat), jobs, timeout=shard_timeout, obs=obs
        )
    return finish_graph_from_bundles(results, obs)
