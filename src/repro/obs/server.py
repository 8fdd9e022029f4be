"""The repository's one HTTP server and the read-only campaign views.

:class:`HttpServer` is a small HTTP/1.1 reader over ``asyncio.start_server``
(stdlib only, connection-per-request) that hands each request to a
``dispatch(method, target, body, headers)`` callable.  It binds in its
constructor, so a busy port raises :class:`PortInUseError` before its
caller has written anything.  The fabric coordinator serves its lease
protocol through it; :class:`StatusServer` (``repro sweep
--serve-status``) runs it on an event loop in a daemon thread.

Both answer :func:`campaign_view`'s three read-only views, backed by
artifacts the campaign already keeps (so the status server holds no state
and can watch a store directory owned by *another* process):
``/status`` (the heartbeat document of :mod:`repro.obs.status`; 503
``{"state": "unknown"}`` before the first one), ``/metrics`` (Prometheus
text of a :class:`~repro.obs.metrics.MetricsRegistry`) and
``/journal?n=N`` (the last N, default 50, at most 1000, store journal
events).  Port 0 binds an ephemeral port; ``port`` reports the bound one.
"""

from __future__ import annotations

import asyncio
import contextlib
import errno
import json
import os
import socket
import threading
from functools import partial
from http import HTTPStatus
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple, Union
from urllib.parse import parse_qs, urlparse

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.status import read_status

PathLike = Union[str, Path]

#: ``(status, payload, content type)``: a str payload is sent as is,
#: anything else as JSON.
Response = Tuple[int, object, str]

JSON = "application/json"
PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

#: Hard cap on journal events returned by one ``/journal`` request.
JOURNAL_LIMIT = 1000

#: Seconds a client may take to send each request line.
READ_TIMEOUT = 30


def journal_view(store_dir: PathLike, query: Dict[str, List[str]]) -> Tuple[int, object]:
    """The ``/journal`` response for a parsed query string: the last
    ``n`` (default 50, clamped to ``[0, JOURNAL_LIMIT]``) events of the
    journal in ``store_dir``, or a 400 when ``n`` is not an integer.  It
    reads the journal file only, so it creates nothing in ``store_dir``."""
    from repro.store.disk import read_journal

    try:
        count = int(query.get("n", ["50"])[0])
    except ValueError:
        return 400, {"error": "n must be an integer"}
    count = max(0, min(count, JOURNAL_LIMIT))
    # [-0:] would be the whole journal, not none of it.
    return 200, read_journal(store_dir)[-count:] if count else []


def campaign_view(
    method: str,
    target: str,
    status: Callable[[], Optional[Dict]],
    registry: MetricsRegistry,
    store_dir: PathLike,
) -> Response:
    """``GET /status``, ``/metrics`` and ``/journal?n=`` for both servers;
    404 for anything else.  ``status()`` returns the heartbeat document,
    or ``None`` before the first one."""
    parsed = urlparse(target)
    if method == "GET":
        if parsed.path == "/status":
            document = status()
            if document is None:
                return 503, {"state": "unknown"}, JSON
            return 200, document, JSON
        if parsed.path == "/metrics":
            return 200, registry.render_prometheus(), PROMETHEUS
        if parsed.path == "/journal":
            return (*journal_view(store_dir, parse_qs(parsed.query)), JSON)
    return 404, {"error": f"unknown endpoint {method} {parsed.path!r}"}, JSON


class PortInUseError(OSError):
    """A requested port is already bound (or not bindable): an
    :class:`OSError` whose one-line message names the port and the fixes,
    which the CLI prints instead of a traceback."""

    def __init__(self, host: str, port: int, cause: OSError) -> None:
        super().__init__(
            cause.errno,
            f"cannot serve on {host}:{port} — port {port} is "
            f"already in use or not bindable ({os.strerror(cause.errno)}); "
            "pick another port, or use port 0 for an ephemeral one",
        )
        self.host = host
        self.port = port


class HttpServer:
    """One listening socket, served connection-per-request by ``dispatch``.

    The constructor binds (raising :class:`PortInUseError` on a busy
    port); :meth:`start` and :meth:`close` run on the event loop that
    serves it.
    """

    def __init__(self, host: str, port: int, dispatch: Callable[..., Response]) -> None:
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        try:
            self._sock = socket.create_server((host, port), family=family)
        except OSError as exc:
            if exc.errno in (errno.EADDRINUSE, errno.EACCES):
                raise PortInUseError(host, port, exc) from exc
            raise
        self.host, self.port = self._sock.getsockname()[:2]
        self.dispatch = dispatch
        self._server: Optional[asyncio.AbstractServer] = None
        self._clients: Set[asyncio.Task] = set()  # running _serve tasks

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._serve, sock=self._sock)

    async def close(self) -> None:
        """Stop listening and end open connections.

        ``Server.wait_closed()`` does not wait for connection handlers on
        Python 3.11, so the ones still running are cancelled and awaited
        here; left alone they would be destroyed after the loop closes.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._sock.close()
        clients = list(self._clients)
        for task in clients:
            task.cancel()
        await asyncio.gather(*clients, return_exceptions=True)

    async def _serve(self, reader: asyncio.StreamReader, writer) -> None:
        """Read one request (line, headers, ``Content-Length`` body),
        dispatch it and answer with ``Connection: close``."""
        task = asyncio.current_task()
        self._clients.add(task)
        try:
            request = await asyncio.wait_for(reader.readline(), timeout=READ_TIMEOUT)
            parts = request.decode("latin-1").split()
            if len(parts) < 2:
                return
            method, target = parts[0].upper(), parts[1]
            headers: Dict[str, str] = {}
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=READ_TIMEOUT)
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            try:
                length = int(headers.get("content-length", 0))
                raw = await reader.readexactly(length) if length else b""
                body = json.loads(raw) if raw else {}
                if not isinstance(body, dict):
                    raise ValueError("body must be a JSON object")
            except ValueError as exc:  # a bad length; JSONDecodeError is one too
                status, payload, ctype = 400, {"error": f"bad request body: {exc}"}, JSON
            else:
                status, payload, ctype = self.dispatch(method, target, body, headers)
            blob = payload.encode() if isinstance(payload, str) else json.dumps(payload).encode()
            head = (
                f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\nContent-Type: {ctype}\r\n"
                f"Content-Length: {len(blob)}\r\nConnection: close\r\n\r\n"
            )
            writer.write(head.encode() + blob)
            await writer.drain()
        except (asyncio.IncompleteReadError, asyncio.TimeoutError, ConnectionError,
                UnicodeDecodeError):
            pass
        finally:
            self._clients.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()


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
        registry = registry if registry is not None else get_registry()
        # One read per request: a retry's sleep would hold up every other
        # request on this loop, and a missing heartbeat is a 503 at once.
        status = partial(read_status, self.store_dir, attempts=1)
        self._http = HttpServer(
            host,
            port,
            lambda method, target, *_: campaign_view(method, target, status, registry, store_dir),
        )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-status", daemon=True
        )
        self._thread.start()
        self._call(self._http.start())

    def _call(self, coroutine) -> None:
        asyncio.run_coroutine_threadsafe(coroutine, self._loop).result(timeout=5)

    @property
    def port(self) -> int:
        return self._http.port

    @property
    def url(self) -> str:
        return f"http://{self._http.host}:{self.port}"

    def close(self) -> None:
        if self._loop.is_closed():
            return
        self._call(self._http.close())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5)
        self._loop.close()

    def __enter__(self) -> "StatusServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
