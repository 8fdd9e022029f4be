"""Fabric worker: lease cells, run them, stream the documents home.

A worker is a stateless loop around the existing single-process cell
path — the same :class:`~repro.experiments.runner.Runner`, the same
content-addressed documents — with the shared store replaced by a
*recording* scratch store.  Every document the runner writes locally
(the cell's outcome plus any standalone baselines it had to
compute) is captured byte-exactly and shipped to the coordinator inside
``POST /complete``; the coordinator re-puts them into the shared store,
which reproduces the identical bytes (same canonical JSON, same
checksum, same ``code`` stamp) a single-process sweep would have
written.

Delivery is **ack-based**: a document stays in the unacknowledged set
until a ``/complete`` reply lists its key as ``stored``.  That is what
makes crash recovery byte-lossless — if a completion is rejected (our
lease expired while we were simulating) the baselines it carried are
not dropped; they ride along with the next accepted completion.  And it
makes re-leases cheap: a cell this worker already simulated under a
lost lease is a local cache hit the second time, and its documents are
still pending, so the retry costs one HTTP round-trip.

A worker never retries a cell.  Any exception from the runner is
classified (``error``/``config``/``stall``) and reported once via
``POST /fail``; the coordinator owns the cell's one retry budget and
decides — through the same :class:`~repro.resilience.cells.CellTable` a
local sweep uses — whether it is re-leased after backoff or
quarantined.  A cell therefore runs at most ``retries + 1`` times,
fabric or local.

**Coordinator loss is survivable.**  A worker does not die on
disconnect: every coordinator call (``/grid``, ``/lease``,
``/complete``, ``/fail``) goes through one method, :meth:`FabricWorker._call`,
which backs off through connection failures (capped exponential,
bounded by ``max_connect_failures``).  A restarted coordinator answers a
held lease's ``/complete`` or ``/fail`` ``stale-epoch``; the worker then
re-presents the lease via ``POST /resume`` — the coordinator either
re-adopts it at the recovered fencing epoch and the call is sent once
more at that epoch (the cell completes or fails normally, no work lost),
or instructs abandonment (the cell was re-leased or finished elsewhere;
our documents stay pending and ride along later).  The heartbeat thread
treats send failures as transient — it retries at ``ttl/12`` instead of
silently letting the lease expire while the simulation keeps running —
and a ``lost`` verdict on a held lease triggers the same resume.

Test hooks: ``lease_hook`` lets the harness abandon a lease mid-flight
(raise :class:`WorkerAbandoned` — the worker goes silent on that cell
and the coordinator's TTL machinery takes over), ``crash_after_lease``
hard-kills the process while holding a lease (``os._exit``, same exit
code as an injected crash fault), and ``runner_factory`` substitutes
the cell executor (anything with :meth:`Runner.run`) entirely.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.experiments.runner import ExperimentScale, GridTask, Runner
from repro.fabric.protocol import (
    FABRIC_SCHEMA,
    REJECT_STALE_EPOCH,
    TOKEN_HEADER,
    FabricConnectionError,
    FabricProtocolError,
    task_from_fields,
)
from repro.resilience.faults import CRASH_EXIT_CODE
from repro.resilience.cells import classify_failure
from repro.resilience.watchdog import Watchdog
from repro.store import ResultStore, code_version


class WorkerAbandoned(Exception):
    """Raised by a ``lease_hook`` to silently drop the current lease.

    The worker neither completes nor fails the cell — exactly what a
    crashed or partitioned worker looks like from the coordinator, which
    is the point: the harness uses it to force lease expiries without
    killing real processes.
    """


class FabricClient:
    """Minimal JSON-over-HTTP client for the coordinator.

    One connection per request (the coordinator closes after each reply
    anyway); socket-level failures raise
    :class:`~repro.fabric.protocol.FabricConnectionError`, HTTP or JSON
    failures raise :class:`~repro.fabric.protocol.FabricProtocolError`.
    """

    def __init__(
        self, address: str, timeout: float = 10.0, token: Optional[str] = None
    ) -> None:
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"fabric address must be HOST:PORT (got {address!r})")
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.token = token

    def request(self, method: str, path: str, body: Optional[Dict] = None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            if self.token:
                headers[TOKEN_HEADER] = self.token
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except (OSError, http.client.HTTPException) as exc:
                raise FabricConnectionError(
                    f"coordinator {self.host}:{self.port} unreachable: {exc}"
                ) from exc
            if response.status == 401:
                try:
                    detail = json.loads(raw).get("error", "")
                except (json.JSONDecodeError, AttributeError):
                    detail = raw[:200].decode(errors="replace")
                raise FabricProtocolError(f"{method} {path} -> 401: {detail}")
            if response.status >= 400:
                raise FabricProtocolError(
                    f"{method} {path} -> {response.status}: {raw[:200].decode(errors='replace')}"
                )
            try:
                return json.loads(raw)
            except json.JSONDecodeError as exc:
                raise FabricProtocolError(
                    f"{method} {path} returned non-JSON body"
                ) from exc
        finally:
            conn.close()

    def get(self, path: str):
        return self.request("GET", path)

    def post(self, path: str, body: Dict):
        return self.request("POST", path, body)


class _RecordingStore(ResultStore):
    """A scratch ResultStore that captures every written document.

    ``documents`` maps key → the exact on-disk object document (read
    back after the atomic write, so checksum/meta/value are precisely
    what a single-process sweep would have put in the shared store).
    """

    def __init__(self, root) -> None:
        super().__init__(root)
        self.documents: Dict[str, Dict] = {}

    def put(self, key: str, value, meta: Optional[Dict] = None) -> Path:
        path = super().put(key, value, meta=meta)
        self.documents[key] = json.loads(path.read_text())
        return path

    def pend(self, key: str) -> None:
        """Queue ``key``'s on-disk document for delivery: a cell this worker
        already shipped (as another cell's baseline) writes nothing anew,
        yet its own completion must carry its document."""
        if key not in self.documents:
            self.documents[key] = json.loads(self.object_path(key).read_text())


class FabricWorker:
    """One worker process's lease/execute/complete loop (module docstring)."""

    def __init__(
        self,
        worker_id: str,
        address: str,
        scratch_dir,
        *,
        poll: float = 0.2,
        max_connect_failures: int = 25,
        heartbeat: bool = True,
        token: Optional[str] = None,
        crash_after_lease: Optional[int] = None,
        lease_hook: Optional[Callable] = None,
        runner_factory: Optional[Callable] = None,
        watchdog_window: Optional[int] = None,
        sleep=time.sleep,
    ) -> None:
        if watchdog_window is not None:
            Watchdog(watchdog_window)  # the watchdog's own check, before any lease
        self.worker_id = worker_id
        self.client = FabricClient(address, token=token)
        self.scratch_dir = Path(scratch_dir)
        self.poll = poll
        self.max_connect_failures = max_connect_failures
        self.heartbeat_enabled = heartbeat
        self.crash_after_lease = crash_after_lease
        self.lease_hook = lease_hook
        self.runner_factory = runner_factory
        self.watchdog_window = watchdog_window
        self._sleep = sleep

        self.store: Optional[_RecordingStore] = None
        self.runner = None
        self.ttl = 10.0
        self.epoch = 1  # coordinator fencing epoch we last observed
        self.leases_granted = 0
        self.completes_accepted = 0
        self.completes_rejected = 0
        self.fails_reported = 0
        self.abandoned = 0
        self.reconnects = 0  # coordinator outages survived
        self.readopted = 0  # leases re-adopted via /resume
        self.heartbeat_retries = 0  # transient heartbeat send failures retried
        self._lease_lock = threading.Lock()
        self._current_lease_id: Optional[str] = None
        self._current_key: Optional[str] = None
        self._stop_heartbeat = threading.Event()
        self._heartbeat_thread: Optional[threading.Thread] = None

    # -- setup -------------------------------------------------------------

    def handshake(self) -> Dict:
        """``GET /grid``: verify protocol schema and code version match.

        A worker running different code would compute fingerprints that
        never match the coordinator's store — silently duplicating work
        and splitting the cache — so a mismatched fleet is refused here,
        loudly, before any cell runs.
        """
        grid = self._call("GET", "/grid")
        if grid.get("schema") != FABRIC_SCHEMA:
            raise FabricProtocolError(
                f"fabric schema mismatch: coordinator speaks "
                f"{grid.get('schema')!r}, this worker speaks {FABRIC_SCHEMA}"
            )
        ours = code_version()
        if grid.get("code") != ours:
            raise FabricProtocolError(
                f"code version mismatch: coordinator runs {grid.get('code')!r}, "
                f"this worker runs {ours!r} — refusing to join a mixed-code fleet"
            )
        self.ttl = float(grid.get("ttl", self.ttl))
        self.epoch = int(grid.get("epoch", self.epoch))
        scale = ExperimentScale(**grid["scale"])
        self.store = _RecordingStore(self.scratch_dir)
        if self.runner_factory is not None:
            self.runner = self.runner_factory(scale, self.store)
        else:
            self.runner = Runner(
                scale, store=self.store, watchdog_window=self.watchdog_window
            )
        return grid

    # -- heartbeat ---------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        interval = max(self.ttl / 3.0, 0.02)
        # A send failure is retried at ttl/12 — four more chances inside
        # one TTL — instead of waiting out a full interval and silently
        # letting the lease expire while the simulation keeps running.
        retry_interval = max(self.ttl / 12.0, 0.01)
        wait = interval
        while not self._stop_heartbeat.wait(wait):
            wait = interval
            with self._lease_lock:
                lease_id = self._current_lease_id
            if lease_id is None:
                continue
            try:
                reply = self.client.post(
                    "/heartbeat",
                    {
                        "worker": self.worker_id,
                        "epoch": self.epoch,
                        "lease_ids": [lease_id],
                    },
                )
            except (FabricConnectionError, FabricProtocolError):
                self.heartbeat_retries += 1
                wait = retry_interval
                continue
            self.epoch = int(reply.get("epoch", self.epoch))
            if lease_id in reply.get("lost", []):
                # Fenced behind a coordinator restart (or genuinely
                # expired): re-present the lease; a re-adoption makes the
                # next renewal succeed at the recovered epoch.
                try:
                    self._resync()
                except (FabricConnectionError, FabricProtocolError):
                    wait = retry_interval

    def _set_lease(self, lease_id: Optional[str], key: Optional[str] = None) -> None:
        with self._lease_lock:
            self._current_lease_id = lease_id
            self._current_key = key

    def _resync(self) -> bool:
        """``POST /resume``: re-present the held lease, if any.

        Updates our view of the coordinator's fencing epoch and counts
        re-adoptions; returns whether the held lease was re-adopted.  A
        lease the coordinator tells us to abandon needs no local action —
        its completion is rejected as stale, and its documents stay
        pending to ride along with the next accepted completion.
        """
        with self._lease_lock:
            lease_id, key = self._current_lease_id, self._current_key
        held = [{"lease_id": lease_id, "key": key}] if lease_id else []
        reply = self.client.post("/resume", {"worker": self.worker_id, "held": held})
        self.epoch = int(reply.get("epoch", self.epoch))
        readopted = reply.get("readopted", [])
        self.readopted += len(readopted)
        return any(item.get("lease_id") == lease_id for item in readopted)

    def _call(self, method: str, path: str, lease: Optional[Dict] = None, **fields) -> Dict:
        """One coordinator call: a ``GET`` carries no body; a ``POST`` sends
        ``{"worker", **fields}`` — plus the lease's id, key and our current
        epoch when it reports on ``lease``.

        Connection failures back off (capped exponential) and raise once
        ``max_connect_failures`` attempts in a row fail.  A ``stale-epoch``
        reply means the coordinator restarted under the lease: it is
        re-presented via ``/resume``, and the call is sent once more at
        the new epoch if the lease was re-adopted.
        """
        failures = 0
        resynced = False
        while True:
            try:
                body = None
                if method == "POST":
                    body = {"worker": self.worker_id, **fields}
                    if lease is not None:
                        body.update(lease_id=lease["lease_id"], key=lease["key"], epoch=self.epoch)
                reply = self.client.request(method, path, body)
                if resynced or reply.get("reason") != REJECT_STALE_EPOCH:
                    break
                resynced = True
                if not self._resync():
                    break
            except FabricConnectionError:
                failures += 1
                if failures > self.max_connect_failures:
                    raise
                self._sleep(
                    min(self.poll * 2 ** min(failures - 1, 6), max(self.ttl / 4.0, self.poll))
                )
        if failures:
            self.reconnects += 1
        return reply

    # -- cell execution ----------------------------------------------------

    def _execute(self, task: GridTask, lease: Dict) -> None:
        """Run one leased cell once, then complete it or report the failure."""
        try:
            self.runner.run(task)
            self.store.pend(lease["key"])
        except Exception as exc:  # noqa: BLE001 - the coordinator decides
            self.fails_reported += 1
            self._call("POST", "/fail", lease, kind=classify_failure(exc), message=str(exc))
            return
        reply = self._call("POST", "/complete", lease, documents=list(self.store.documents.values()))
        if not reply.get("accepted"):
            # Stale or duplicate lease: the shared store already has (or
            # will get) this cell from whoever holds the live lease.  Our
            # unacked documents stay pending for the next completion.
            self.completes_rejected += 1
            return
        self.completes_accepted += 1
        for key in reply.get("stored", []):
            self.store.documents.pop(key, None)

    # -- main loop ---------------------------------------------------------

    def run(self) -> Dict:
        """Work the campaign to completion; returns a summary dict."""
        self.handshake()
        if self.heartbeat_enabled:
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop,
                name=f"fabric-heartbeat-{self.worker_id}",
                daemon=True,
            )
            self._heartbeat_thread.start()
        try:
            while True:
                reply = self._call("POST", "/lease")
                if reply.get("done"):
                    break
                if reply.get("empty") or reply.get("draining"):
                    self._sleep(float(reply.get("retry_after", self.poll)))
                    continue
                lease = reply["lease"]
                self.epoch = int(lease.get("epoch", self.epoch))
                self.leases_granted += 1
                if (
                    self.crash_after_lease is not None
                    and self.leases_granted > self.crash_after_lease
                ):
                    # Die *holding* the lease — the canonical dead-worker
                    # scenario the TTL + re-lease machinery exists for.
                    os._exit(CRASH_EXIT_CODE)
                self._set_lease(lease["lease_id"], lease["key"])
                try:
                    if self.lease_hook is not None:
                        self.lease_hook(self, lease)
                    self._execute(task_from_fields(lease["task"]), lease)
                except WorkerAbandoned:
                    self.abandoned += 1
                finally:
                    self._set_lease(None)
        finally:
            self._stop_heartbeat.set()
            if self._heartbeat_thread is not None:
                self._heartbeat_thread.join(timeout=2.0)
        return {
            "worker": self.worker_id,
            "leases": self.leases_granted,
            "completed": self.completes_accepted,
            "rejected": self.completes_rejected,
            "failed": self.fails_reported,
            "abandoned": self.abandoned,
            "reconnects": self.reconnects,
            "readopted": self.readopted,
            "heartbeat_retries": self.heartbeat_retries,
        }
