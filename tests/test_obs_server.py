"""`repro.obs.server` under load and at the edges.

Thread-safety smoke (concurrent /status + /metrics + /journal readers
against a registry being mutated by a live publisher), the read-only
views and /journal bounds on the status server and on a fabric
coordinator, and the friendly port-in-use failure (``PortInUseError``)
at the server layer, in a fabric coordinator (which then writes
nothing) and through ``repro sweep --serve-status`` and ``repro fabric
serve``.
"""

import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.fabric import protocol
from repro.obs import MetricsRegistry, StatusPublisher, validate_status
from repro.obs.server import JOURNAL_LIMIT, PortInUseError, StatusServer
from repro.store import ResultStore
from tests.fabric_harness import CoordinatorThread, journal
from tests.test_store_resume import TINY, tiny_tasks


def _get(url):
    """``(status, body)`` of a GET, error statuses included."""
    try:
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.read().decode()


class TestConcurrentReads:
    def test_readers_race_a_mutating_registry(self, tmp_path):
        """3 reader threads × all endpoints while a publisher mutates the
        registry and rewrites status.json: every response parses, every
        status document validates, nothing 500s."""
        registry = MetricsRegistry()
        store = ResultStore(tmp_path)
        publisher = StatusPublisher(
            store, total_cells=10_000, interval=0.0, registry=registry
        )
        for i in range(5):
            store.log_event("put", key=f"k{i}", label=f"cell-{i}")

        stop = threading.Event()
        mutator_error = []

        def mutate():
            try:
                while not stop.is_set():
                    publisher.record_completion(hit=False)
                    publisher.record_in_flight(
                        [{"label": "cell-x", "attempts": 1, "seconds": 0.1}]
                    )
            except Exception as exc:  # pragma: no cover - the assertion
                mutator_error.append(exc)

        errors = []

        def read(server_url):
            try:
                for _ in range(30):
                    status, body = _get(server_url + "/status")
                    assert status == 200
                    assert validate_status(json.loads(body)) == []
                    status, body = _get(server_url + "/metrics")
                    assert status == 200 and "sweep_cells_completed" in body
                    status, body = _get(server_url + "/journal?n=3")
                    assert status == 200 and len(json.loads(body)) == 3
            except Exception as exc:
                errors.append(exc)

        with StatusServer(tmp_path, port=0, registry=registry) as server:
            mutator = threading.Thread(target=mutate, daemon=True)
            readers = [
                threading.Thread(target=read, args=(server.url,), daemon=True)
                for _ in range(3)
            ]
            mutator.start()
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=30)
                assert not reader.is_alive()
            stop.set()
            mutator.join(timeout=5)
        assert errors == []
        assert mutator_error == []


def _log_puts(store_dir):
    store = ResultStore(store_dir)
    for i in range(4):
        store.log_event("put", key=f"k{i}")


class TestJournalBounds:
    """``/journal?n=`` bounds on the status server; the subclass below runs
    the same cases against a fabric coordinator, which serves the same
    view (``journal_view``)."""

    @pytest.fixture()
    def url(self, tmp_path):
        _log_puts(tmp_path)
        with StatusServer(tmp_path, port=0) as server:
            yield server.url

    def test_n_zero_returns_empty_list(self, url):
        status, body = _get(url + "/journal?n=0")
        assert status == 200 and json.loads(body) == []

    def test_n_past_journal_length_returns_everything(self, url, tmp_path):
        status, body = _get(url + f"/journal?n={JOURNAL_LIMIT + 999}")
        assert status == 200
        events = json.loads(body)
        assert events == ResultStore(tmp_path).journal_entries()
        puts = [e["key"] for e in events if e["event"] == "put"]
        assert puts == ["k0", "k1", "k2", "k3"]

    def test_negative_n_clamps_to_empty(self, url):
        status, body = _get(url + "/journal?n=-7")
        assert status == 200 and json.loads(body) == []

    def test_non_integer_n_is_400(self, url):
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(url + "/journal?n=loads", timeout=5)
        assert info.value.code == 400
        assert "integer" in json.loads(info.value.read().decode())["error"]


class TestCoordinatorJournalBounds(TestJournalBounds):
    @pytest.fixture()
    def url(self, tmp_path):
        _log_puts(tmp_path)
        with CoordinatorThread(TINY, tiny_tasks(), tmp_path) as coord:
            yield f"http://{coord.address}"


class TestReadOnlyViews:
    """The views both servers answer through ``campaign_view``."""

    @pytest.fixture(params=["status-server", "coordinator"])
    def served(self, request, tmp_path):
        registry = MetricsRegistry()
        registry.counter("probe_total", "a counter the test set").inc(3)
        if request.param == "status-server":
            with StatusServer(tmp_path, port=0, registry=registry) as server:
                yield request.param, server.url
        else:
            with CoordinatorThread(TINY, tiny_tasks(), tmp_path, registry=registry) as coord:
                yield request.param, f"http://{coord.address}"

    def test_status_metrics_and_errors(self, served):
        kind, url = served
        status, body = _get(url + "/status")
        if kind == "status-server":
            # No sweep has published a heartbeat into this store yet.
            assert (status, json.loads(body)) == (503, {"state": "unknown"})
        else:
            assert status == 200 and validate_status(json.loads(body)) == []
        with urllib.request.urlopen(url + "/metrics", timeout=5) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain; version=0.0.4")
            assert "probe_total 3" in resp.read().decode()
        for path, code in (("/nope", 404), ("/journal?n=loads", 400)):
            status, body = _get(url + path)
            assert status == code and "error" in json.loads(body)

    @pytest.mark.parametrize(
        "length,body",
        [("nope", b""), ("-1", b""), ("3", b"[1]"), ("1", b"{")],
    )
    def test_bad_request_body_is_400(self, served, length, body):
        """A body that is not a JSON object, or a bad ``Content-Length``,
        is answered 400 by the one request reader both servers share."""
        _, url = served
        host, port = url[len("http://"):].rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=5) as conn:
            conn.sendall(
                f"POST /lease HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode() + body
            )
            reply = b""
            while chunk := conn.recv(4096):
                reply += chunk
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 Bad Request")
        assert "bad request body" in json.loads(payload)["error"]


class TestStatusDoesNotBlock:
    def test_missing_heartbeat_answers_503_at_once(self, tmp_path):
        """Before a sweep's first heartbeat, ``/status`` reads ``status.json``
        once and answers 503: no retry sleeps on the loop that serves every
        other request.  The retry sleeps alone cost 60 ms per GET, so a
        median of 5 GETs under 30 ms shows they are gone and leaves
        headroom for a loaded host."""
        with StatusServer(tmp_path, port=0) as server:
            seconds = []
            for _ in range(5):
                start = time.perf_counter()
                status, _ = _get(server.url + "/status")
                seconds.append(time.perf_counter() - start)
                assert status == 503
        assert statistics.median(seconds) < 0.030, seconds


class TestReadOnlyJournal:
    def test_missing_store_is_left_missing(self, tmp_path):
        """``/journal`` only reads: on a directory that does not exist it
        answers ``[]`` and creates nothing (no store, no ``objects/``)."""
        missing = tmp_path / "no-store"
        with StatusServer(missing, port=0) as server:
            status, body = _get(server.url + "/journal?n=3")
        assert status == 200 and json.loads(body) == []
        assert not missing.exists()


class TestPortInUse:
    def test_port_in_use_raises_named_error(self, tmp_path):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            with pytest.raises(PortInUseError) as info:
                StatusServer(tmp_path, port=port)
            message = str(info.value)
            assert str(port) in message and "already in use" in message
            assert info.value.port == port
            # Still an OSError, so pre-existing handlers keep working.
            assert isinstance(info.value, OSError)
        finally:
            blocker.close()

    def test_coordinator_binds_before_writing(self, tmp_path):
        """A busy port stops a coordinator before it writes its ledger or
        ``status.json``, so the next start is a first session, not a
        recovery."""
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            refused = CoordinatorThread(TINY, tiny_tasks(), tmp_path, port=port)
            before = sorted(tmp_path.rglob("*"))
            with pytest.raises(PortInUseError):
                refused.start()
            assert sorted(tmp_path.rglob("*")) == before
        finally:
            blocker.close()
        with CoordinatorThread(TINY, tiny_tasks(), tmp_path) as coord:
            assert coord.coordinator.recoveries == 0
            assert coord.coordinator.epoch == 1
        assert not any(e["event"] == protocol.EV_RECOVER for e in journal(tmp_path))

    def test_free_port_still_binds(self, tmp_path):
        with StatusServer(tmp_path, port=0) as server:
            assert server.port > 0  # happy path unchanged by the guard

    def test_sweep_cli_reports_port_not_traceback(self, tmp_path):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            with pytest.raises(SystemExit) as info:
                cli_main(
                    [
                        "sweep",
                        "--gpus", "G17", "--pims", "P1",
                        "--policies", "FR-FCFS", "--vcs", "1",
                        "--cache-dir", str(tmp_path / "store"),
                        "--serve-status", str(port),
                    ]
                )
            assert str(port) in str(info.value)
        finally:
            blocker.close()

    def test_fabric_cli_reports_port_not_traceback(self, tmp_path):
        """``repro fabric serve`` refuses a busy port with the one line
        ``repro sweep --serve-status`` prints, and leaves no ledger and no
        ``status.json`` behind."""
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        grid = ["--gpus", "G17", "--pims", "P1", "--policies", "FR-FCFS", "--vcs", "1"]
        store = tmp_path / "store"
        try:
            with pytest.raises(SystemExit) as sweep:
                cli_main(["sweep", *grid, "--cache-dir", str(store), "--serve-status", str(port)])
            with pytest.raises(SystemExit) as fabric:
                cli_main(
                    ["fabric", "serve", *grid, "--cache-dir", str(store), "--port", str(port)]
                )
        finally:
            blocker.close()
        message = fabric.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message == sweep.value.code and f"port {port} is already in use" in message
        assert not (store / "fabric_ledger.jsonl").exists()
        assert not (store / "status.json").exists()

    def test_sweep_cli_serves_on_free_port(self, tmp_path, capsys):
        argv = [
            "sweep",
            "--gpus", "G17", "--pims", "P2",
            "--policies", "FR-FCFS", "--vcs", "1",
            "--scale", "0.05", "--channels", "4",
            "--cache-dir", str(tmp_path / "store"),
            "--serve-status", "0",
        ]
        assert cli_main(argv) == 0
        assert "status endpoint: http://" in capsys.readouterr().err
