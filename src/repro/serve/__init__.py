"""``repro.serve``: the incremental inference daemon (``mapit serve``).

The batch pipeline re-parses everything and re-runs the full multipass
on every invocation.  This package turns that into a long-running
service (docs/SERVE.md):

* :class:`~repro.serve.incremental.IncrementalIndex` — persistent fold
  state (neighbor tables, address universe, other-side table) plus a
  :class:`~repro.core.mapit.MapIt` whose cached tallies survive
  quiesces, so a re-inference recounts only what changed, byte-identical
  to batch;
* :class:`~repro.serve.daemon.ServeDaemon` — bounded ingest queue with
  deterministic shedding, quiesce/checkpoint cadences, and atomically
  swapped immutable snapshots for readers;
* :mod:`~repro.serve.sources` — file-follow tailing and unix-socket
  line ingestion;
* :mod:`~repro.serve.api` — the snapshot-isolated query API (health,
  links by address/AS, explain, metrics) and its stdlib HTTP transport;
* :mod:`~repro.serve.smoke` — the end-to-end kill/resume smoke the CI
  serve job runs.

Serve ≡ batch at every prefix of seeded worlds is checked by the
differential harness, ``python -m repro.diff --check-every N``
(:func:`repro.diff.harness.compare_world`).
"""

from repro.serve.daemon import ServeDaemon, ServeSnapshot
from repro.serve.incremental import IncrementalIndex

__all__ = ["IncrementalIndex", "ServeDaemon", "ServeSnapshot"]
