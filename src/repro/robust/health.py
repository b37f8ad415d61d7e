"""Bundle health: what loaded, what degraded, what was rejected.

:func:`repro.io.bundle.load_bundle` used to be all-or-nothing — one
corrupt optional file aborted the load.  It now produces a
:class:`BundleHealth` report instead: every dataset file gets a
:class:`DatasetStatus` (``ok`` / ``missing`` / ``degraded`` /
``corrupt``), optional datasets degrade to empty with a warning, and
the trace ingest report (parsed / malformed / quarantined counts) is
attached so callers — the CLI prints this — can see exactly how clean
their inputs were.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.robust.errors import IngestReport


@dataclass(frozen=True)
class DatasetStatus:
    """Load outcome for one dataset file."""

    name: str
    status: str  # "ok" | "missing" | "degraded" | "corrupt"
    detail: str = ""

    def __str__(self) -> str:
        tail = f" ({self.detail})" if self.detail else ""
        return f"{self.name}: {self.status}{tail}"


@dataclass
class BundleHealth:
    """Aggregate health of one :func:`load_bundle` call."""

    statuses: List[DatasetStatus] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    checksum_failures: List[str] = field(default_factory=list)
    ingest: Optional[IngestReport] = None
    #: entry format version ("v3") when the graph came from a verified
    #: bundle-cache hit; None on a cold parse or uncached load
    cache_format: Optional[str] = None
    #: sha256 of every file this load hashed, by path (:meth:`digest`)
    digests: Dict[Path, str] = field(default_factory=dict)

    def record(self, name: str, status: str, detail: str = "") -> None:
        self.statuses.append(DatasetStatus(name, status, detail))
        if status in ("degraded", "corrupt"):
            self.warnings.append(f"{name} {status}: {detail}" if detail else f"{name} {status}")

    def record_ingest(self, name: str, report: IngestReport) -> None:
        """Attach the traces file *name*'s ingest *report* and record its
        status ahead of the mapping files', as a dataset load does (a
        serve session records its warm base after the mappings)."""
        self.ingest = report
        detail = "" if report.ok else f"{report.malformed} malformed record(s) rejected"
        self.record(name, "ok" if report.ok else "degraded", detail)
        self.statuses.insert(0, self.statuses.pop())

    @property
    def ok(self) -> bool:
        """True when nothing degraded, failed a checksum, or was rejected."""
        return (
            not self.warnings
            and not self.checksum_failures
            and (self.ingest is None or self.ingest.ok)
        )

    def digest(self, path: Path) -> str:
        """*path*'s sha256, hashed at most once per load: the manifest
        check, the cache key and a journaled run's id share it."""
        if path not in self.digests:
            # deferred: importing repro.io loads this module
            from repro.io.atomic import file_sha256

            self.digests[path] = file_sha256(path)
        return self.digests[path]

    def status_of(self, name: str) -> Optional[str]:
        for status in self.statuses:
            if status.name == name:
                return status.status
        return None

    def summary_lines(self) -> Iterator[str]:
        """Human-readable health summary (the CLI prints these)."""
        if self.ingest is not None:
            yield from self.ingest.summary_lines()
        if self.cache_format is not None:
            yield f"cache: hit (entry format {self.cache_format})"
        degraded = [s for s in self.statuses if s.status in ("degraded", "corrupt")]
        for status in degraded:
            yield f"warning: {status}"
        for failure in self.checksum_failures:
            yield f"warning: checksum mismatch: {failure}"
        if self.ok:
            yield "bundle health: ok"
        else:
            yield (
                f"bundle health: degraded "
                f"({len(degraded)} dataset(s) degraded, "
                f"{len(self.checksum_failures)} checksum failure(s), "
                f"{self.ingest.malformed if self.ingest else 0} record(s) rejected)"
            )
