"""On-disk folded-graph cache keyed by source-file checksums.

Parsing and folding dominate bundle load time, yet the traces file
rarely changes between runs over the same dataset.  :class:`BundleCache`
memoizes the *folded graph* on disk — what §4.1–4.3 leave behind and
the passes read — keyed by the sha256 of the source file: the same
digest :func:`repro.io.atomic.file_sha256` produces and the dataset
manifest records as ``sha256:`` checksums.  A warm load skips parsing
and folding entirely, and any edit to the traces file changes the key
and misses.

Entries are written in the **v3 binary format**: a fixed
struct-packed header followed by the fused loader's merged
:class:`repro.perf.flat.FlatGraphBundle` — forward and backward
neighbor tables, the addresses of retained traces, the address
universe and the three sanitize counts — in the codec serve
checkpoints use too::

    offset size  field
    0      8     magic  b"MAPITC2\\n"
    8      2     entry version (little-endian u16, currently 3)
    10     1     trace format code (1=text 2=jsonl 3=atlas)
    11     1     reserved (zero)
    12     4     parsed record count (u32)
    16     4     skipped record count (u32)
    20     8     payload length in bytes (u64)
    28     32    source file sha256 (raw digest)
    60     32    payload sha256 (raw digest)
    92     ...   payload: FlatGraphBundle.to_bytes()

The payload is plain struct/array data — decoding it executes no
code — and a hit finishes the graph from it the way the fused loader
finishes its shards (:meth:`repro.perf.flat.GraphFold.merged`), so a
warm load forks nothing and folds no hop.  The entry *filename* is
keyed by the source alone, not the layout, so an entry in any other
layout — the v2 column blocks and v1 pickles of earlier releases
included — simply fails verification once and is overwritten in place
by the re-parse's store.

Every load verifies magic, version, format, source checksum, payload
length, and the payload's own sha256 before decoding, then that the
bundle's retained and discarded counts add up to the header's parsed
count; any failure is counted as ``perf.cache.invalid``, treated as a
miss, and the entry is atomically rewritten after the re-parse —
corruption is detected, never served.  Only *clean* parses (zero
malformed records) are stored: a dirty source must re-parse every
load so its policy side effects (error reports, quarantine files,
budget checks) still happen.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Set, Union

from repro.io.atomic import atomic_write_bytes
from repro.obs.observer import NULL_OBS, Observability
from repro.perf.flat import FlatGraphBundle
from repro.robust.errors import IngestReport
from repro.robust.hooks import active_chaos

MAGIC = "mapit-bundle-cache"

#: the on-disk layout this release writes and reads
CACHE_VERSION = 3

#: key-material version — deliberately frozen at 1 so an entry in an
#: older layout is found, fails verification, and is overwritten in
#: place rather than orphaned under a new name
KEY_VERSION = 1

#: leading bytes of a binary entry (every layout since v2)
BINARY_MAGIC = b"MAPITC2\n"

_HEADER = struct.Struct("<8sHBxIIQ32s32s")

_FORMAT_CODES = {"text": 1, "jsonl": 2, "atlas": 3}
_FORMAT_NAMES = {code: name for name, code in _FORMAT_CODES.items()}


def cache_key(source_sha256: str, format: str) -> str:
    """The entry digest for a source file's content hash and format.

    Key material is versioned independently of the entry layout
    (``KEY_VERSION``): bumping the *entry* format must not orphan old
    entries, because the next store overwrites them in place.
    """
    material = f"{MAGIC}\n{KEY_VERSION}\n{format}\n{source_sha256}"
    return hashlib.sha256(material.encode()).hexdigest()


@dataclass
class CacheHit:
    """A verified cache entry: ``bundle`` is its folded graph, ready
    for :meth:`repro.perf.flat.GraphFold.merged`."""

    parsed: int
    skipped: int
    entry_version: int
    bundle: FlatGraphBundle

    @property
    def format_label(self) -> str:
        """Human-readable entry format (``v3``), surfaced in bundle
        health output."""
        return f"v{self.entry_version}"


class BundleCache:
    """A directory of checksummed folded-graph entries.

    All methods are process-safe: entries are written atomically and
    re-verified on every read, so concurrent runs over the same dataset
    at worst duplicate work, never corrupt each other.
    """

    def __init__(
        self, directory: Union[str, Path], obs: Observability = NULL_OBS
    ) -> None:
        self.directory = Path(directory)
        self.obs = obs
        #: entries this cache found invalid: rewriting one is no race
        self._rejected: Set[Path] = set()

    def entry_path(self, source_sha256: str, format: str) -> Path:
        return self.directory / f"{cache_key(source_sha256, format)}.mapitc"

    def load_entry(self, source_sha256: str, format: str) -> Optional[CacheHit]:
        """Return a verified :class:`CacheHit`, or ``None``.

        Verifies every header field and the payload digest, and counts
        the hit under ``perf.cache.format.v3``.  ``None`` covers both a
        miss and a failed verification — the caller re-parses either
        way, and a corrupt or old-layout entry is overwritten by the
        subsequent store.  O(entry bytes); nothing is decoded before
        the checksums pass.
        """
        path = self.entry_path(source_sha256, format)
        try:
            data = path.read_bytes()
        except OSError:
            self.obs.inc("perf.cache.misses")
            return None
        try:
            hit = self._decode(data, source_sha256, format)
        except Exception:  # noqa: BLE001 - any damage is just a miss
            self.obs.inc("perf.cache.invalid")
            self._rejected.add(path)
            return None
        self.obs.inc("perf.cache.hits")
        self.obs.inc(f"perf.cache.format.{hit.format_label}")
        return hit

    def _decode(self, data: bytes, source_sha256: str, format: str) -> CacheHit:
        if len(data) < _HEADER.size:
            raise ValueError("cache entry shorter than its header")
        (
            magic,
            version,
            format_code,
            parsed,
            skipped,
            payload_len,
            source_digest,
            payload_digest,
        ) = _HEADER.unpack_from(data)
        payload = data[_HEADER.size :]
        if (
            magic != BINARY_MAGIC
            or version != CACHE_VERSION
            or _FORMAT_NAMES.get(format_code) != format
            or source_digest != bytes.fromhex(source_sha256)
            or payload_len != len(payload)
            or payload_digest != hashlib.sha256(payload).digest()
        ):
            raise ValueError("cache entry failed verification")
        bundle = FlatGraphBundle.from_bytes(payload)
        if bundle.retained + bundle.discarded != parsed:
            raise ValueError("cache payload does not match its header")
        return CacheHit(
            parsed=parsed, skipped=skipped, entry_version=CACHE_VERSION, bundle=bundle
        )

    def store_payload(
        self,
        source_sha256: str,
        format: str,
        payload: bytes,
        report: IngestReport,
    ) -> bool:
        """Write an encoded folded graph (:meth:`FlatGraphBundle.to_bytes`)
        as a v3 entry for a *clean* parse; returns whether stored.

        The graph loader calls this with the fused loader's merged
        tables, so a cold run populates the cache without ever building
        trace objects.  Atomic, clean-parses-only, chaos-injectable;
        O(payload bytes).
        """
        if not report.ok:
            return False
        format_code = _FORMAT_CODES.get(format)
        if format_code is None:
            return False
        header = _HEADER.pack(
            BINARY_MAGIC,
            CACHE_VERSION,
            format_code,
            report.parsed,
            report.skipped,
            len(payload),
            bytes.fromhex(source_sha256),
            hashlib.sha256(payload).digest(),
        )
        path = self.entry_path(source_sha256, format)
        # Another run racing over the same dataset may have stored this
        # entry between our miss and now; the overwrite is harmless
        # (same key -> same content) but worth counting.  Rewriting an
        # entry this cache found invalid is no race.
        contended = path.exists() and path not in self._rejected
        try:
            chaos = active_chaos()
            if chaos is not None:
                chaos.maybe_fail_write("cache")
            self._ensure_directory()
            atomic_write_bytes(path, header + payload)
        except OSError:
            # A full or read-only disk costs the next run a re-parse,
            # never this run its result.
            self.obs.inc("perf.cache.store_failed")
            return False
        if contended:
            self.obs.inc("perf.cache.contended")
        self.obs.inc("perf.cache.stores")
        return True

    def _ensure_directory(self) -> None:
        """Create the cache directory, tolerating a concurrent creator.

        ``exist_ok=True`` still races on some filesystems when another
        run creates the directory (or replaces a dangling symlink)
        between the existence check and the mkdir — retry once before
        giving up.
        """
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except FileExistsError:
            self.obs.inc("perf.cache.contended")
            self.directory.mkdir(parents=True, exist_ok=True)
