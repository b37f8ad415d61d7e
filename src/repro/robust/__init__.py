"""Fault tolerance: resilient ingestion, fault injection, bundle health.

MAP-IT exists because traceroute data is dirty (section 4.1); this
package makes the *pipeline* honor the same premise.  It provides

- :mod:`repro.robust.ingest` — strict / lenient / quarantine parsing
  policies over every trace format, with structured
  :class:`~repro.robust.errors.IngestError` records and an
  :class:`~repro.robust.errors.ErrorBudget` that refuses to let mass
  corruption masquerade as a clean load;
- :mod:`repro.robust.faults` — a deterministic, seedable corruptor
  covering the fault taxonomy (garbled lines, invalid addresses, null
  fields, byte flips, truncated and empty files) plus crash simulation,
  so degradation is measurable rather than anecdotal.  The package
  does not re-export it: production code reads only the chaos switch
  in :mod:`repro.robust.hooks`, so running and serving never load it;
- :mod:`repro.robust.health` — the :class:`~repro.robust.health.BundleHealth`
  report ``load_bundle`` now returns alongside its data.

See ``docs/ROBUSTNESS.md`` for the error-mode contract.
"""

from repro.robust.errors import (
    ErrorBudget,
    ErrorBudgetExceeded,
    IngestError,
    IngestReport,
)
from repro.robust.health import BundleHealth, DatasetStatus
from repro.robust.ingest import ingest_trace_file, ingest_traces

__all__ = [
    "BundleHealth",
    "DatasetStatus",
    "ErrorBudget",
    "ErrorBudgetExceeded",
    "IngestError",
    "IngestReport",
    "ingest_trace_file",
    "ingest_traces",
]
