"""Streaming line sources for the serve daemon.

Two transports feed :meth:`~repro.serve.daemon.ServeDaemon.offer`:

* :class:`FollowSource` — tail a growing file from a byte offset.  The
  offset yielded with each line is the position *after* it, which is
  exactly what a checkpoint must record: resuming from that offset
  re-reads nothing before the line and everything after it
  (at-least-once delivery; folds are idempotent set unions, so
  re-folding a replayed line is a no-op).
* :class:`SocketSource` — accept newline-delimited records on a unix
  domain socket.  Socket lines are at-most-once: they carry no offset
  and are not replayed after a crash, so the durable path is always a
  followed file (docs/SERVE.md spells out the consistency model).

Polling uses ``threading.Event.wait`` so a stop request interrupts a
sleeping tail immediately, and no wall-clock reads are needed
(tools/mapitlint's DET002 stays clean).
"""

from __future__ import annotations

import socket
import threading
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

from repro.serve.daemon import ServeDaemon


class FollowSource:
    """Tail *path* from *offset*, yielding ``(line, end_offset)`` pairs.

    Only complete lines are yielded: a partial final line (a writer
    mid-append, or a crash mid-write) stays buffered until its newline
    arrives, so the daemon never parses half a record.  With
    ``once=True`` the tail stops at end-of-file — the ``--once`` batch
    replay and drain-at-shutdown path; a trailing unterminated line is
    then flushed, matching how batch ingest reads a file that does not
    end in a newline.
    """

    def __init__(
        self,
        path: Union[str, Path],
        offset: int = 0,
        poll_interval: float = 0.1,
    ) -> None:
        self.path = Path(path)
        self.offset = offset
        self.poll_interval = poll_interval
        # the offsets-dict key: the full path as given, never the
        # basename — two followed files named alike (or a follow file
        # named like the dataset's traces.txt) must not share offsets.
        # Resuming with a differently-spelled path misses the stored
        # offset and re-reads from zero, which folds idempotently.
        self.name = str(self.path)

    def lines(
        self, stop: Optional[threading.Event] = None, once: bool = False
    ) -> Iterator[Tuple[str, int]]:
        stop = stop or threading.Event()
        buffer = b""
        # position tracks bytes *read*; offset tracks bytes *consumed*
        # (complete lines yielded).  They differ only by a buffered
        # partial line, which is re-read after a crash — harmless,
        # since folds are idempotent.
        position = self.offset
        while not stop.is_set():
            chunk = self._read_chunk(position)
            if chunk:
                position += len(chunk)
                buffer += chunk
                while True:
                    newline = buffer.find(b"\n")
                    if newline < 0:
                        break
                    line = buffer[: newline + 1]
                    buffer = buffer[newline + 1 :]
                    self.offset += len(line)
                    yield line.decode("utf-8", errors="replace"), self.offset
            elif once:
                break
            else:
                stop.wait(self.poll_interval)
        if once and buffer:
            self.offset += len(buffer)
            yield buffer.decode("utf-8", errors="replace"), self.offset

    def _read_chunk(self, position: int, size: int = 65536) -> bytes:
        try:
            with open(self.path, "rb") as handle:
                handle.seek(position)
                return handle.read(size)
        except FileNotFoundError:
            return b""

    def feed(
        self,
        daemon: ServeDaemon,
        stop: Optional[threading.Event] = None,
        once: bool = False,
    ) -> int:
        """Pump this source into *daemon*'s queue; returns lines offered.

        This is the follow-thread entry point, and the only daemon
        method it touches is the locked :meth:`ServeDaemon.offer` —
        parsing, folding, and cadence all stay on the pump thread
        (the thread-role contract RACE001/RACE002 enforce).
        """
        delivered = 0
        for line, offset in self.lines(stop=stop, once=once):
            daemon.offer(line, self.name, offset)
            delivered += 1
        return delivered

    def replay(self, daemon: ServeDaemon, stop: Optional[threading.Event] = None) -> None:
        """Synchronously fold the file into *daemon* (the ``--once``
        path, and a resumed session's dataset traces file): no queue,
        no shedding, arrival order.

        Must run on the pump thread — it calls straight into
        :meth:`ServeDaemon.ingest_entry`, which folds.
        """
        for line, offset in self.lines(stop=stop, once=True):
            daemon.ingest_entry(line, self.name, offset)


class SocketSource:
    """Accept newline-delimited records on a unix domain socket.

    Each accepted connection gets a reader thread that splits the byte
    stream on newlines and offers every complete line to the daemon
    (no offset — socket delivery is at-most-once).  A half-line at
    connection close is flushed, mirroring :class:`FollowSource`'s
    end-of-file behaviour.
    """

    def __init__(self, path: Union[str, Path], daemon: ServeDaemon) -> None:
        self.path = Path(path)
        self.daemon = daemon
        self.name = f"socket:{self.path.name}"
        if self.path.exists():
            self.path.unlink()
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(str(self.path))
        self._listener.listen(8)
        self._stop = threading.Event()
        # appended from the accept thread, joined from the closing
        # thread — every touch goes through the lock
        self._threads: list = []
        self._threads_lock = threading.Lock()

    def start(self) -> None:
        thread = threading.Thread(target=self._accept_loop, daemon=True)
        thread.start()
        with self._threads_lock:
            self._threads.append(thread)

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return  # listener closed during shutdown
            thread = threading.Thread(
                target=self._read_connection, args=(connection,), daemon=True
            )
            thread.start()
            with self._threads_lock:
                self._threads.append(thread)

    def _read_connection(self, connection: socket.socket) -> None:
        buffer = b""
        try:
            while True:
                chunk = connection.recv(65536)
                if not chunk:
                    break
                buffer += chunk
                while True:
                    newline = buffer.find(b"\n")
                    if newline < 0:
                        break
                    line = buffer[:newline]
                    buffer = buffer[newline + 1 :]
                    self.daemon.offer(
                        line.decode("utf-8", errors="replace"), self.name
                    )
            if buffer:
                self.daemon.offer(buffer.decode("utf-8", errors="replace"), self.name)
        finally:
            connection.close()

    def close(self) -> None:
        self._stop.set()
        self._listener.close()
        with self._threads_lock:
            pending = list(self._threads)
        for thread in pending:
            thread.join(timeout=1.0)
        if self.path.exists():
            try:
                self.path.unlink()
            except OSError:  # noqa: BLE001 - stale socket file is cosmetic
                pass


def file_extent(path: Union[str, Path]) -> Tuple[int, int]:
    """``(bytes, lines)`` of *path* as a :class:`FollowSource` replay to
    end-of-file consumes them — every newline ends a line, and an
    unterminated last line counts; ``(0, 0)`` when absent.  The offset
    and line count a serve warm base records for the file."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return 0, 0
    lines = data.count(b"\n")
    if data and not data.endswith(b"\n"):
        lines += 1
    return len(data), lines
