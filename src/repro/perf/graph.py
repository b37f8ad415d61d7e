"""Sharded neighbor-set construction over a columnar trace block.

Trace shards are independent under both pipeline stages: sanitization
(section 4.1) is per-trace, and the neighbor-set fold (section 4.3)
records *membership*, not multiplicity — so a worker can fuse both
stages over its shard and return partial N_F/N_B tables, and the parent
merges them by set union.  The partial tables cross the boundary as
packed ``uint32`` buffers (:class:`repro.perf.flat.FlatGraphBundle`),
so the result pickle is a handful of ``bytes`` objects, near-memcpy,
instead of an object graph of dicts-of-sets.

Determinism: set-union is commutative and associative, so the merged
tables contain exactly the serial members for every address regardless
of shard count; the merged dicts are rebuilt with sorted keys so even
their iteration order is a pure function of the input.  (The inference
engine is insensitive to neighbor-table iteration order — every
result-affecting traversal sorts — but canonical order makes the
sharded graph reproducible byte-for-byte on its own terms.)  The
shared tail :func:`repro.graph.neighbors.finish_interface_graph`
computes other-sides and emits the same ``graph.built`` observability
as the serial builder.

:func:`build_graph_flat` folds a warm ``.mapitc`` hit's
:class:`~repro.perf.flat.FlatTraces` block with
:func:`~repro.perf.flat.accumulate_flat`, never materializing a
``Hop``; :func:`finish_graph_from_bundles` is the merge it shares with
the fused text loader (:func:`repro.perf.ingest.stream_graph_from_file`).
"""

from __future__ import annotations

from functools import cache
from typing import List, Optional

from repro.graph.neighbors import InterfaceGraph, finish_interface_graph
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

    Deterministic parent-side tail shared by both sharded builders:
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
    suites hold the kernels equal).  *shard_timeout* is the
    supervisor's per-shard deadline (docs/ROBUSTNESS.md).
    """
    with obs.span("sanitize+neighbor_sets"):
        results = fork_map(
            _flat_graph_shard, flat, len(flat), jobs, timeout=shard_timeout, obs=obs
        )
    return finish_graph_from_bundles(results, obs)
