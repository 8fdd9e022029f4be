"""Stdlib HTTP endpoint for a live sweep (``repro sweep --serve-status``).

Serves three read-only views of a campaign, all backed by artifacts the
sweep already maintains (so the server holds no state of its own and can
be pointed at a store directory owned by *another* process):

* ``/status`` — the heartbeat ``status.json``
  (:mod:`repro.obs.status`), as JSON; 503 with
  ``{"state": "unknown"}`` until the first heartbeat lands.
* ``/metrics`` — Prometheus text exposition of the attached
  :class:`~repro.obs.metrics.MetricsRegistry` (the process-wide default
  unless one is passed in).
* ``/journal?n=N`` — the last N (default 50, capped at 1000) store
  journal events (puts, quarantines, sweep summaries) as a JSON array.

Built on :class:`http.server.ThreadingHTTPServer` — no third-party
dependencies — and run on a daemon thread so it never blocks sweep
shutdown.  Binding port 0 picks an ephemeral port (tests do this);
``server.port`` reports the bound port either way.
"""

from __future__ import annotations

import errno
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.status import read_status

PathLike = Union[str, Path]

#: Hard cap on journal events returned by one ``/journal`` request.
JOURNAL_LIMIT = 1000


def journal_view(store_dir: PathLike, query: Dict[str, List[str]]) -> Tuple[int, object]:
    """The ``/journal`` response for a parsed query string: the last
    ``n`` (default 50, clamped to ``[0, JOURNAL_LIMIT]``) events of the
    journal in ``store_dir``, or a 400 when ``n`` is not an integer.  The
    status server and the fabric coordinator both serve it; it reads the
    journal file only, so it creates nothing in ``store_dir``."""
    from repro.store.disk import read_journal

    try:
        count = int(query.get("n", ["50"])[0])
    except ValueError:
        return 400, {"error": "n must be an integer"}
    count = max(0, min(count, JOURNAL_LIMIT))
    # [-0:] would be the whole journal, not none of it.
    return 200, read_journal(store_dir)[-count:] if count else []


class PortInUseError(OSError):
    """A requested status port is already bound (or not bindable).

    Subclasses :class:`OSError` so existing ``except OSError`` callers
    keep working, but carries a message that names the port and the
    obvious fixes — the CLI shows this instead of a raw traceback.
    """

    def __init__(self, host: str, port: int, cause: OSError) -> None:
        super().__init__(
            cause.errno,
            f"cannot serve status on {host}:{port} — port {port} is "
            f"already in use or not bindable ({cause.strerror or cause}); "
            "pick another port, or use port 0 for an ephemeral one",
        )
        self.host = host
        self.port = port


class _StatusHandler(BaseHTTPRequestHandler):
    server_version = "repro-status/1"

    # The handler class is shared; per-server state lives on the server
    # instance (`self.server`), set up by StatusServer below.

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Silence per-request stderr logging (the sweep owns the console)."""

    def _send(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, payload) -> None:
        self._send(code, json.dumps(payload).encode(), "application/json")

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        parsed = urlparse(self.path)
        if parsed.path == "/status":
            document = read_status(self.server.store_dir)
            if document is None:
                self._send_json(503, {"state": "unknown"})
            else:
                self._send_json(200, document)
        elif parsed.path == "/metrics":
            body = self.server.registry.render_prometheus().encode()
            self._send(200, body, "text/plain; version=0.0.4; charset=utf-8")
        elif parsed.path == "/journal":
            self._send_json(*journal_view(self.server.store_dir, parse_qs(parsed.query)))
        else:
            self._send_json(404, {"error": f"unknown path {parsed.path!r}"})


class StatusServer:
    """Background HTTP server over a store directory's campaign views."""

    def __init__(
        self,
        store_dir: PathLike,
        port: int = 0,
        host: str = "127.0.0.1",
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.store_dir = Path(store_dir)
        try:
            self._httpd = ThreadingHTTPServer((host, port), _StatusHandler)
        except OSError as exc:
            if exc.errno in (errno.EADDRINUSE, errno.EACCES):
                raise PortInUseError(host, port, exc) from exc
            raise
        self._httpd.daemon_threads = True
        self._httpd.store_dir = self.store_dir
        self._httpd.registry = registry if registry is not None else get_registry()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-status", daemon=True
        )
        self._thread.start()

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "StatusServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
