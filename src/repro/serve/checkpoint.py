"""Serve checkpoints: durable fold state via the run journal.

A serve checkpoint is one blob appended with the same
:class:`~repro.robust.journal.RunJournal` machinery batch runs use
(``<dir>/<run-id>.serve<NNNNNN>.blob`` + a checksummed journal line).
The blob is the daemon's fold state in the one encoding of a folded
graph, :meth:`~repro.perf.flat.FlatGraphBundle.to_bytes` — the same
self-describing codec a ``.mapitc`` cache entry's payload uses: a
header with the buffer lengths and the three fold counts, then the
forward table, backward table, retained addresses and address
universe.  The journal line's checksummed JSON payload carries the
rest: the byte offset and line count reached in each followed source
file, the counters and the fingerprint.  Nothing in a checkpoint is
executed on load.

Inference state is *not* checkpointed: it is a pure function of the
graph and is recomputed on the first quiesce after a restore, which is
exactly the batch trajectory, so recovery is byte-identical (the
``serve`` chaos schedule of :mod:`repro.diff.chaos` enforces this).

The serve run id is keyed on the *mapping* datasets plus the config and
stream format — the inputs that determine results for a given stream —
so a journal can never be resumed against a different dataset or
configuration by accident.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from repro.perf.flat import FlatGraphBundle
from repro.robust.health import BundleHealth
from repro.robust.journal import RunJournal, run_identity

#: bump when the checkpoint layout changes; it keys the serve run id,
#: so checkpoints of another layout are never decoded
CHECKPOINT_VERSION = 3

#: journal unit name for serve checkpoints
CHECKPOINT_UNIT = "serve-checkpoint"

#: mapping files that contribute to the serve run identity
_IDENTITY_FILES = (
    "cymru.txt",
    "ixp.txt",
    "as2org.txt",
    "relationships.txt",
)


def serve_run_identity(
    dataset: Union[str, Path], config: Any, format: str, health: BundleHealth
) -> str:
    """The run id for a serve session over *dataset*'s mappings.

    Hashes the content of every mapping file present (BGP dumps,
    cymru, IXP, org, relationships) so a resumed session provably runs
    against the same IP2AS world; the config and stream format
    contribute through :func:`~repro.robust.journal.run_identity`.
    The digests come from *health*, the dataset load's, which hashed
    every file the manifest lists already.
    """
    root = Path(dataset)
    digests = [f"serve:{CHECKPOINT_VERSION}"]
    bgp_dir = root / "bgp"
    if bgp_dir.is_dir():
        for path in sorted(bgp_dir.glob("*.txt")):
            digests.append(f"bgp/{path.name}:{health.digest(path)}")
    for name in _IDENTITY_FILES:
        path = root / name
        if path.exists():
            digests.append(f"{name}:{health.digest(path)}")
    material = hashlib.sha256("\n".join(digests).encode()).hexdigest()
    return run_identity(material, config, "serve", format)


def write_checkpoint(
    journal: RunJournal,
    seq: int,
    fold: FlatGraphBundle,
    offsets: Dict[str, int],
    lines: Dict[str, int],
    stats: Dict[str, int],
    fingerprint: str,
) -> bool:
    """Append checkpoint *seq* to *journal*; returns whether it stuck.

    A failed write (ENOSPC) disables the journal and costs only
    durability — the daemon keeps serving, exactly like batch
    journaling (docs/ROBUSTNESS.md).
    """
    return journal.append_with_blob(
        CHECKPOINT_UNIT,
        f"serve{seq:06d}",
        fold.to_bytes(),
        extra={
            "checkpoint": seq,
            "offsets": dict(offsets),
            "lines": dict(lines),
            "stats": dict(stats),
            "fingerprint": fingerprint,
        },
    )


def _well_formed(payload: Any) -> bool:
    """Every payload field a restore reads is present and typed."""
    if not isinstance(payload, dict):
        return False
    return all(
        isinstance(payload.get(key), str) for key in ("blob", "sha256", "fingerprint")
    ) and all(
        isinstance(payload.get(key), dict)
        and all(type(value) is int and value >= 0 for value in payload[key].values())
        for key in ("offsets", "lines", "stats")
    )


def restore_latest_checkpoint(
    journal: RunJournal, restore: Callable[[FlatGraphBundle], None]
) -> Optional[Dict[str, Any]]:
    """Restore the newest intact checkpoint in *journal* through
    *restore*; returns its payload, or None when none is intact.

    Walks the verified journal records newest-first.  A checkpoint
    whose payload is malformed, whose blob fails its sha256 or does
    not decode (:meth:`FlatGraphBundle.from_bytes`), or whose buffers
    *restore* rejects with :class:`ValueError` counts as
    ``robust.journal.blob_corrupt`` and degrades to the previous
    checkpoint — never to a crash.  *restore* must decode before it
    adopts anything, so a rejected checkpoint changes no state.
    """
    records = [
        record for record in journal.read() if record.get("unit") == CHECKPOINT_UNIT
    ]
    for record in reversed(records):
        payload = record.get("payload")
        if not _well_formed(payload):
            journal.obs.inc("robust.journal.blob_corrupt")
            continue
        data = journal.load_blob(payload["blob"], payload["sha256"])
        if data is None:
            continue
        try:
            restore(FlatGraphBundle.from_bytes(data))
        except ValueError:
            journal.obs.inc("robust.journal.blob_corrupt")
            continue
        return payload
    return None
