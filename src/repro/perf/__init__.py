"""Parallel/sharded execution layer and the parsed-bundle cache.

Everything in this package is an *optimization*, never a semantic
change: the sharded ingester and graph builder produce byte-identical
results to their serial twins (``tests/test_parallel_equivalence.py``
holds them to it), and the cache only short-circuits parses it can
prove — by checksum — would reproduce what is stored.  The object
loaders at ``jobs=1`` with no cache (``evaluate``/``explain``/``report``,
journaled runs) never import this package; every other ``mapit run``
loads through its fused loader, ``jobs=1`` as one inline shard.

Entry points:

* :func:`repro.perf.pool.fork_map` / :func:`~repro.perf.pool.default_jobs`
  — the fork-pool substrate (``MAPIT_JOBS`` sets the default);
* :func:`repro.perf.ingest.ingest_trace_file_parallel` — sharded trace
  parsing under the strict/lenient/quarantine policies;
* :func:`repro.perf.ingest.stream_graph_from_file` — the fused
  streaming loader (parse + sanitize + neighbor fold in one pass per
  shard, with no trace objects; only counter bundles cross the
  process boundary);
* :func:`repro.perf.graph.build_graph_parallel` /
  :func:`~repro.perf.graph.build_graph_flat` — sharded sanitize +
  neighbor-set construction over trace objects or columnar blocks;
* :mod:`repro.perf.flat` — the flat-array data layer: columnar trace
  blocks, packed counter bundles, batched LPM resolution;
* :class:`repro.perf.cache.BundleCache` — the checksummed on-disk
  parsed-trace cache (binary v2 entries, transparent v1 fallback).
"""

from repro.perf.cache import BundleCache, cache_key
from repro.perf.flat import FlatTraces, pack_traces, unpack_traces
from repro.perf.graph import build_graph_flat, build_graph_parallel
from repro.perf.ingest import (
    ingest_trace_file_parallel,
    ingest_traces_parallel,
    stream_graph_from_file,
)
from repro.perf.pool import default_jobs, fork_map, shard_ranges

__all__ = [
    "BundleCache",
    "cache_key",
    "FlatTraces",
    "pack_traces",
    "unpack_traces",
    "build_graph_flat",
    "build_graph_parallel",
    "ingest_trace_file_parallel",
    "ingest_traces_parallel",
    "stream_graph_from_file",
    "default_jobs",
    "fork_map",
    "shard_ranges",
]
