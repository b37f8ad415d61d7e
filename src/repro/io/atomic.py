"""Crash-safe file writes: temp file + rename, plus content checksums.

Every file a dataset directory contains is written through these
helpers.  The contract: a reader never observes a partially-written
file.  Content goes to a ``<name>.tmp.<pid>`` sibling first and is
moved into place with :func:`os.replace` (atomic on POSIX and Windows
within one filesystem) only after the write completed and was flushed;
a crash mid-write leaves the destination untouched (either absent or
the previous complete version) and the temp file is removed on error.

Writers return the SHA-256 of what they wrote so
:func:`repro.io.save.save_scenario` can record per-file checksums in
the manifest and :func:`repro.io.bundle.load_bundle` can detect
corruption that parsing alone would miss.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterable, Union


def _atomic_write(path: Union[str, Path], mode: str, chunks: Iterable) -> None:
    """Write *chunks* to a temp sibling of *path* in *mode*, flush,
    fsync, and move it into place; on any error (a chunk iterator that
    raises included) the temp file is removed and *path* is untouched."""
    path = Path(path)
    temp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(temp, mode) as handle:
            handle.writelines(chunks)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: Union[str, Path], text: str) -> str:
    """Atomically write *text* to *path*; returns the content's sha256."""
    _atomic_write(path, "w", (text,))
    return hashlib.sha256(text.encode()).hexdigest()


def atomic_write_lines(path: Union[str, Path], lines: Iterable[str]) -> str:
    """Atomically write *lines* (newline-terminated) to *path*.

    The line iterable is fully consumed before the destination is
    touched — if it raises partway (a crash mid-serialization), the
    destination keeps its previous state.  Returns the sha256.
    """
    digest = hashlib.sha256()

    def terminated():
        for line in lines:
            data = line + "\n"
            digest.update(data.encode())
            yield data

    _atomic_write(path, "w", terminated())
    return digest.hexdigest()


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> str:
    """Atomically write raw *data* to *path*; returns the content's sha256.

    Used by the bundle cache (:mod:`repro.perf.cache`) whose entries
    carry a binary payload: a reader either sees a complete entry or no
    entry, never a torn one, so a crash mid-store can only cost a cache
    miss, not serve corrupt traces.  Run-journal blobs are written the
    same way.
    """
    _atomic_write(path, "wb", (data,))
    return hashlib.sha256(data).hexdigest()


def atomic_write_json(path: Union[str, Path], obj, indent: int = 2) -> str:
    """Atomically write *obj* as JSON; returns the content's sha256."""
    return atomic_write_text(path, json.dumps(obj, indent=indent) + "\n")


def file_sha256(path: Union[str, Path]) -> str:
    """SHA-256 of a file's bytes (streaming; no whole-file buffer)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
