"""Parallel/sharded execution layer and the folded-graph cache.

Everything in this package is an *optimization*, never a semantic
change: the sharded loaders produce byte-identical results to the
serial object pipeline (``tests/test_fused_kernel.py`` and
``tests/test_parallel_equivalence.py`` hold them to it), and the cache
only short-circuits parses it can prove — by checksum — would
reproduce what is stored.  Every command that loads a dataset's graph
(``run``, journaled or not, ``evaluate``, ``explain``, ``report``)
loads through its fused loader, ``jobs=1`` as one inline shard.

Entry points:

* :func:`repro.perf.pool.fork_map` / :func:`~repro.perf.pool.default_jobs`
  — the fork-pool substrate (``MAPIT_JOBS`` sets the default);
* :func:`repro.perf.ingest.stream_graph_from_file` — the fused
  streaming loader (parse + sanitize + neighbor fold in one pass per
  shard, with no trace objects; only counter bundles cross the
  process boundary);
* :mod:`repro.perf.flat` — the flat-array data layer: columnar trace
  blocks, :class:`~repro.perf.flat.GraphFold` (the fold state every
  graph source holds, and the one finishing step, which a warm cache
  hit runs too), packed counter bundles and their one on-disk codec,
  batched LPM resolution;
* :class:`repro.perf.cache.BundleCache` — the checksummed on-disk
  folded-graph cache (binary v3 entries; decoding executes no code).

The package re-exports nothing: the serve index and the stress
generator import :mod:`repro.perf.flat` and load no other submodule.
"""
