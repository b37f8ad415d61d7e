"""Parallel/sharded execution layer and the parsed-bundle cache.

Everything in this package is an *optimization*, never a semantic
change: the sharded loaders produce byte-identical results to the
serial object pipeline (``tests/test_fused_kernel.py`` and
``tests/test_parallel_equivalence.py`` hold them to it), and the cache
only short-circuits parses it can prove — by checksum — would
reproduce what is stored.  Every command that needs only the interface
graph (``run``, journaled or not, ``explain``, ``report``) loads
through its fused loader, ``jobs=1`` as one inline shard; callers
that read trace objects (``evaluate``) parse them in-process.

Entry points:

* :func:`repro.perf.pool.fork_map` / :func:`~repro.perf.pool.default_jobs`
  — the fork-pool substrate (``MAPIT_JOBS`` sets the default);
* :func:`repro.perf.ingest.stream_graph_from_file` — the fused
  streaming loader (parse + sanitize + neighbor fold in one pass per
  shard, with no trace objects; only counter bundles cross the
  process boundary);
* :func:`repro.perf.graph.build_graph_flat` — sharded sanitize +
  neighbor-set construction over a warm cache hit's columnar block;
* :mod:`repro.perf.flat` — the flat-array data layer: columnar trace
  blocks, packed counter bundles, batched LPM resolution;
* :class:`repro.perf.cache.BundleCache` — the checksummed on-disk
  parsed-trace cache (binary v2 entries; decoding executes no code).

The package re-exports nothing: the serve index and the stress
generator import :mod:`repro.perf.flat` and load no other submodule.
"""
