"""Snapshot-isolated query API for the serve daemon.

:class:`QueryAPI` answers every question from ONE read of the daemon's
published :class:`~repro.serve.daemon.ServeSnapshot` reference: the
snapshot is grabbed once at the top of each handler and all response
fields — records, counts, the fingerprint stamped on the payload —
derive from that single object.  Concurrent quiesces therefore cannot
tear a response: a reader sees either the world before a swap or the
world after it, never a mixture (the concurrency test holds every
response fingerprint to the set of published quiesce fingerprints).

:class:`ServeHTTPServer` is the stdlib transport: a threading HTTP
server with GET routes mapping one-to-one onto the API methods.  Port 0
binds an ephemeral port; ``server.port`` reports what the OS granted.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.net.ipv4 import parse_address
from repro.serve.daemon import ServeDaemon


class QueryAPI:
    """The daemon's read side; every payload is snapshot-derived."""

    def __init__(self, daemon: ServeDaemon) -> None:
        self.daemon = daemon

    def health(self) -> Dict[str, object]:
        """Liveness + headline state: seq, fingerprint, counters."""
        daemon = self.daemon
        daemon.note_query()
        snapshot = daemon.snapshot
        payload: Dict[str, object] = {
            "status": "ok" if snapshot.seq > 0 else "warming",
            "queue_depth": daemon.queue_depth,
        }
        payload.update(snapshot.summary())
        payload["stats"] = dict(snapshot.stats)
        return payload

    def fingerprint(self) -> Dict[str, object]:
        """The §4.6 state fingerprint of the published snapshot."""
        self.daemon.note_query()
        snapshot = self.daemon.snapshot
        return {"seq": snapshot.seq, "fingerprint": snapshot.fingerprint}

    def links_by_address(self, address: str) -> Dict[str, object]:
        """Inference records for one interface address (dotted quad)."""
        self.daemon.note_query()
        snapshot = self.daemon.snapshot
        packed = parse_address(address)
        return {
            "address": address,
            "links": snapshot.links(snapshot.by_address.get(packed, ())),
            "seq": snapshot.seq,
            "fingerprint": snapshot.fingerprint,
        }

    def links_by_as(self, asn: int) -> Dict[str, object]:
        """Inference records with *asn* as either endpoint."""
        self.daemon.note_query()
        snapshot = self.daemon.snapshot
        return {
            "asn": asn,
            "links": snapshot.links(snapshot.by_as.get(asn, ())),
            "seq": snapshot.seq,
            "fingerprint": snapshot.fingerprint,
        }

    def explain(self, address: str) -> Dict[str, object]:
        """Why (or why not) *address* carries an inference: its
        records plus the graph's other-side judgement."""
        self.daemon.note_query()
        return self.daemon.explain_records(parse_address(address))

    def metrics(self) -> Dict[str, object]:
        """The live metrics registry (empty when none is attached)."""
        self.daemon.note_query()
        registry = self.daemon.obs.metrics
        return registry.to_dict() if registry is not None else {}


class _Handler(BaseHTTPRequestHandler):
    """GET routes onto :class:`QueryAPI`; one snapshot per response."""

    api: QueryAPI  # set on the subclass built by ServeHTTPServer

    # the stdlib logs every request to stderr by default; a daemon
    # polled by health checks must stay quiet
    def log_message(self, format: str, *args: object) -> None:
        pass

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler contract
        parts = urlsplit(self.path)
        query = parse_qs(parts.query)
        try:
            status, payload = self._route(parts.path, query)
        except ValueError as error:
            status, payload = 400, {"error": str(error)}
        body = json.dumps(payload, indent=2).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _route(self, path: str, query: Dict[str, list]) -> Tuple[int, Dict[str, object]]:
        api = self.api
        if path == "/health":
            return 200, api.health()
        if path == "/fingerprint":
            return 200, api.fingerprint()
        if path == "/metrics":
            return 200, api.metrics()
        if path == "/links":
            if "address" in query:
                return 200, api.links_by_address(query["address"][0])
            if "asn" in query:
                return 200, api.links_by_as(int(query["asn"][0]))
            return 400, {"error": "links requires ?address= or ?asn="}
        if path == "/explain":
            if "address" in query:
                return 200, api.explain(query["address"][0])
            return 400, {"error": "explain requires ?address="}
        return 404, {"error": f"no such endpoint {path}"}


class ServeHTTPServer:
    """Threaded HTTP transport wrapping one :class:`QueryAPI`."""

    def __init__(self, api: QueryAPI, port: int = 0, host: str = "127.0.0.1") -> None:
        handler = type("BoundHandler", (_Handler,), {"api": api})
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        self.host = host
        self.port = self._server.server_address[1]
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.1},
            daemon=True,
        )
        self._thread.start()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
