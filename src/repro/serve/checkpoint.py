"""Serve checkpoints: durable fold state via the run journal.

A serve checkpoint is one :data:`CHECKPOINT_UNIT` record appended to
the same :class:`~repro.robust.journal.RunJournal` batch runs use,
with a blob the journal names by the record's seq
(``<dir>/<run-id>.seq<NNNNNN>.blob`` beside a checksummed journal
line; :meth:`~repro.serve.daemon.ServeDaemon.checkpoint` writes it).
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

from repro.io.bundle import mapping_paths
from repro.perf.flat import FlatGraphBundle, GraphFold
from repro.robust.health import BundleHealth
from repro.robust.journal import RunJournal, run_identity

#: bump when the checkpoint layout changes; it keys the serve run id,
#: so checkpoints of another layout are never decoded
CHECKPOINT_VERSION = 3

#: journal unit name for serve checkpoints
CHECKPOINT_UNIT = "serve-checkpoint"


def serve_run_identity(
    dataset: Union[str, Path], config: Any, format: str, health: BundleHealth
) -> str:
    """The run id for a serve session over *dataset*'s mappings.

    Hashes the content of every mapping file present
    (:func:`repro.io.bundle.mapping_paths`, each as ``<path relative
    to the dataset>:<sha256>``) so a resumed session provably runs
    against the same IP2AS world; the config and stream format
    contribute through :func:`~repro.robust.journal.run_identity`.
    The digests come from *health*, the dataset load's, which hashed
    every file the manifest lists already.
    """
    root = Path(dataset)
    digests = [f"serve:{CHECKPOINT_VERSION}"]
    for path in mapping_paths(root):
        digests.append(f"{path.relative_to(root).as_posix()}:{health.digest(path)}")
    material = hashlib.sha256("\n".join(digests).encode()).hexdigest()
    return run_identity(material, config, "serve", format)


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
    journal: RunJournal, restore: Callable[[GraphFold], None]
) -> Optional[Dict[str, Any]]:
    """Restore the newest intact checkpoint in *journal* through
    *restore*, which adopts its decoded fold; returns its payload, or
    None when none is intact.

    Walks the verified journal records newest-first.  A checkpoint
    whose payload is malformed, whose blob fails its sha256 or does
    not decode (:meth:`FlatGraphBundle.from_bytes`, then
    :meth:`GraphFold.merged` over its buffers) counts as
    ``robust.journal.blob_corrupt`` and degrades to the previous
    checkpoint — never to a crash.  Decoding finishes before *restore*
    runs, so a rejected checkpoint changes no state.
    """
    for payload in reversed(journal.units(CHECKPOINT_UNIT)):
        if not _well_formed(payload):
            journal.obs.inc("robust.journal.blob_corrupt")
            continue
        data = journal.load_blob(payload)
        if data is None:
            continue
        try:
            fold = GraphFold.merged([FlatGraphBundle.from_bytes(data)])
        except ValueError:
            journal.obs.inc("robust.journal.blob_corrupt")
            continue
        restore(fold)
        return payload
    return None
