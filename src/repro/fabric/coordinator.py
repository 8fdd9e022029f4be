"""Asyncio cell-lease coordinator: sweeps as a horizontally scaled service.

The coordinator owns one campaign — a grid of
:class:`~repro.experiments.runner.GridTask` cells against one shared
:class:`~repro.store.ResultStore` — and leases cells to worker processes
over HTTP (:mod:`repro.fabric.protocol`).  It is the network-layer
analogue of :func:`repro.experiments.parallel.run_sweep`: the
same store, the same journal, and the same
:class:`~repro.obs.status.StatusPublisher` to count the campaign, journal
its quarantines and closing ``sweep_summary`` and keep ``status.json``,
so a fabric sweep and a single-process sweep against the same grid leave
byte-identical ``objects/`` trees behind (the property
``tests/test_fabric.py`` and the CI ``fabric-canary`` assert).

Each cell's state, failure count, backoff, lease and lease deadline
live in a :class:`~repro.resilience.cells.CellTable` (the lifecycle the
local sweep shares; see ``docs/resilience.md``) whose records are written
ahead to the :mod:`~repro.fabric.ledger` — each with its journal line,
by one function — before they apply, and which a restart rebuilds by
replaying that ledger.  What is the coordinator's own:

* **Dedupe by fingerprint.**  Cells are grouped by their content address
  (:func:`~repro.experiments.runner.cell_key`); duplicate tasks
  collapse into one unit of work, and a fingerprint is never leased to
  two workers at once.  Cells whose fingerprint is already in the store
  complete instantly as hits (warm resume), exactly like ``--resume``.
* **Lease TTL + heartbeats.**  Every lease carries a deadline; workers
  renew via ``POST /heartbeat``.  A dead or partitioned worker simply
  stops renewing, the lease expires, and the cell re-enters the queue
  with one failure attempt charged.
* **One retry budget.**  Expiries, rejected payloads and worker ``/fail``
  reports all blame the lease through the cell table: a re-lease after
  backoff, or quarantine once the kind is deterministic or the leases
  run out.  Workers never retry on their own, so a cell runs at most
  ``retries + 1`` times, as it does in a local sweep.
* **Exactly-once accounting.**  Completions are accepted only for the
  currently live lease of a cell: stale (expired/re-leased) and
  duplicate completions are rejected and journaled, never stored twice.
  Rejection is harmless to correctness — cells are idempotent and
  content-addressed — but the journal proves each cell's result was
  accepted exactly once.
* **Checksum-verified streaming.**  A completion carries the exact store
  documents the worker produced (cell outcome + any standalone baselines
  it computed); each is checksum-verified before the coordinator's
  atomic, journaled :meth:`~repro.store.ResultStore.put`.

Everything mutates inside one event loop — handlers never await between
reading and writing campaign state, so there are no locks and no
interleaving hazards.  The HTTP layer is the repository's one server,
:class:`~repro.obs.server.HttpServer`: the coordinator answers the token
check, ``GET /grid`` and the POST lease protocol, and hands every other
request to :func:`~repro.obs.server.campaign_view` (``/status``,
``/metrics``, ``/journal``), the views ``repro sweep --serve-status``
serves too.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
import time
from dataclasses import asdict
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlparse

from repro.experiments.runner import ExperimentScale, GridTask, cell_key
from repro.fabric import ledger as wal
from repro.fabric import protocol
from repro.fabric.ledger import LEDGER_FILENAME, FabricLedger
from repro.fabric.protocol import (
    DEFAULT_TTL,
    FABRIC_SCHEMA,
    TOKEN_HEADER,
    lease_task_fields,
    validate_documents,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.server import JSON, HttpServer, campaign_view
from repro.obs.status import StatusPublisher
from repro.resilience.cells import (
    DONE,
    FAILED,
    LEASED,
    PENDING,
    Cell,
    CellTable,
    RetryPolicy,
)
from repro.store import ResultStore, code_version

#: How long a worker should wait before re-polling /lease when everything
#: runnable is currently leased or backing off.
EMPTY_RETRY_AFTER = 0.2

#: The journal event of each ledger op that is also journaled.
_JOURNALED = {
    wal.OP_LEASE: protocol.EV_LEASE,
    wal.OP_COMPLETE: protocol.EV_COMPLETE,
    wal.OP_READOPT: protocol.EV_READOPT,
    wal.OP_REJECT: protocol.EV_REJECT,
    wal.OP_DRAIN: protocol.EV_DRAIN,
}


class FabricCoordinator:
    """One campaign's lease service (see module docstring).

    Lifecycle: :meth:`start` binds the port and scans the store for warm
    cells, :meth:`wait_complete` resolves when every cell is done or
    quarantined, :meth:`stop` tears the server down (journaling an
    ``aborted`` summary if the campaign was still running).  The
    ``completed_event`` threading event mirrors completion for callers on
    other threads (the test harness, ``repro status``-style pollers).
    """

    def __init__(
        self,
        scale: ExperimentScale,
        tasks: Sequence[GridTask],
        store_dir,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        ttl: float = DEFAULT_TTL,
        retry: Optional[RetryPolicy] = None,
        tick: float = 0.05,
        status_interval: float = 1.0,
        registry: Optional[MetricsRegistry] = None,
        token: Optional[str] = None,
        resume_grace: Optional[float] = None,
        clock=time.monotonic,
        wall_clock=time.time,
    ) -> None:
        if not ttl > 0:  # also refuses nan
            raise ValueError(f"lease ttl must be positive (got {ttl})")
        if resume_grace is not None and not resume_grace >= 0:
            raise ValueError(f"resume grace must be >= 0 (got {resume_grace})")
        self.scale = scale
        self.tasks = list(tasks)
        self.store = ResultStore(store_dir)
        self.host = host
        self._requested_port = port
        self.ttl = ttl
        self.retry = retry or RetryPolicy()
        self.tick = tick
        self.status_interval = status_interval
        self.registry = registry if registry is not None else MetricsRegistry()
        self.token = token
        #: How long a recovered in-flight lease waits for its worker to
        #: re-present it via /resume before it expires like a dead one.
        self.resume_grace = ttl if resume_grace is None else resume_grace
        self._clock = clock
        self._wall = wall_clock
        self.code = code_version()
        self.ledger = FabricLedger(self.store.root / LEDGER_FILENAME)

        #: The campaign's cells: each record is written ahead to the ledger.
        self.table = CellTable(
            self.retry,
            clock=clock,
            wall=wall_clock,
            write_ahead=self._write,
            on_retry=lambda event: self.publisher.record_retry(event),
            on_quarantine=lambda failure: self.publisher.record_quarantine(failure.to_dict()),
        )
        # One cell per fingerprint: duplicate tasks are one unit of work.
        for index, task in enumerate(self.tasks):
            key = cell_key(scale, task)
            if key not in self.table.cells:
                self.table.add(key, task.label, index, task)
        self.cells = list(self.table.cells.values())
        self.workers: Dict[str, float] = {}  # worker id -> last seen (clock)
        self.state = "running"
        self.epoch = 1
        self.recoveries = 0
        self.draining = False
        self.drained = False
        self._lease_seq = 0
        self._http: Optional[HttpServer] = None
        #: The lease protocol; any other request is a read-only campaign
        #: view (``/status``, ``/metrics``, ``/journal``).
        self._routes = {
            ("GET", "/grid"): lambda body: self._handle_grid(),
            ("POST", "/lease"): self._handle_lease,
            ("POST", "/heartbeat"): self._handle_heartbeat,
            ("POST", "/complete"): self._handle_complete,
            ("POST", "/fail"): self._handle_fail,
            ("POST", "/resume"): self._handle_resume,
            ("POST", "/drain"): lambda body: self._handle_drain(),
        }
        self._ticker: Optional[asyncio.Task] = None
        self._done_async: Optional[asyncio.Event] = None
        self.completed_event = threading.Event()
        #: The campaign's tally (counts, status.json, quarantine and
        #: sweep_summary journal lines), built once the ledger is replayed.
        self.publisher: Optional[StatusPublisher] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the port, replay the ledger, absorb warm store hits, start
        the expiry ticker.

        The port is bound first, so a busy one raises
        :class:`~repro.obs.server.PortInUseError` before the ledger or
        ``status.json`` is written.  A first run opens epoch 1 on a fresh
        ledger; a restart replays the write-ahead ledger (raising
        :class:`~repro.fabric.ledger.LedgerCorrupt` on damage — never a
        silent wrong state), bumps the fencing epoch, and restores retry
        counts, backoff deadlines, the quarantine roster, and in-flight
        leases (which get ``resume_grace`` to be re-presented by their
        surviving workers before expiring like dead ones).
        """
        self._http = HttpServer(self.host, self._requested_port, self._dispatch)
        try:
            self._open_campaign()
        except BaseException:
            await self._http.close()
            self._http = None
            raise
        await self._http.start()
        self._ticker = asyncio.get_running_loop().create_task(self._tick_loop())
        self._check_complete()

    def _open_campaign(self) -> None:
        self._done_async = asyncio.Event()
        replayed = self.ledger.replay(self.table)
        self.epoch = replayed.epoch + 1
        self.recoveries = replayed.opens
        self._lease_seq = replayed.lease_seq
        recovered = {
            "unknown": self.table.retain(cell.key for cell in self.cells),
            "leased": self.table.counts[LEASED],
            "pending": sum(1 for cell in self.cells if cell.state == PENDING and cell.failures),
            "quarantined": len(self.table.failures),
        }
        self.publisher = StatusPublisher(
            self.store,
            total_cells=len(self.cells),
            max_workers=0,
            interval=self.status_interval,
            registry=self.registry,
            recoveries=self.recoveries,
            epoch=self.epoch,
        )
        self._write({"op": wal.OP_OPEN, "code": self.code, "cells": len(self.cells)})
        for failure in self.table.failures:
            self.publisher.record_quarantine(failure.to_dict(), journal=False)
        for cell in self.cells:
            if cell.state == FAILED:
                continue
            # The store, not the ledger, says which cells are done: a
            # ``complete`` record lands only after its puts, and a warm
            # hit writes no record.
            if self.store.get(cell.key, kind=cell.task.kind) is not None:
                self.table.apply({"op": "complete", "key": cell.key})
                self.publisher.record_completion(hit=True)
            elif cell.state == DONE:
                self.table.apply({"op": "release", "key": cell.key})
            elif cell.state == LEASED:
                self.table.renew(cell.key, self.resume_grace)
        if self.recoveries:
            self._journal(
                protocol.EV_RECOVER,
                epoch=self.epoch,
                torn_tail=replayed.torn_tail,
                **recovered,
            )

    @property
    def port(self) -> int:
        assert self._http is not None, "coordinator not started"
        return self._http.port

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    async def wait_complete(self) -> None:
        assert self._done_async is not None, "coordinator not started"
        await self._done_async.wait()

    async def _shutdown(self) -> None:
        """Stop the ticker, close the server, and end open connections."""
        if self._ticker is not None:
            self._ticker.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._ticker
            self._ticker = None
        if self._http is not None:
            await self._http.close()
            self._http = None

    async def stop(self) -> None:
        """Tear the server down; an unfinished campaign journals ``aborted``."""
        await self._shutdown()
        if self.state == "running":
            self._finalize("aborted")
        self.ledger.close()

    async def abandon(self) -> None:
        """Tear down *without* finalizing — the test harness's SIGKILL
        stand-in.  No ``close`` ledger record, no ``aborted`` journal
        line: exactly the state a killed coordinator leaves behind, so
        recovery tests exercise the real replay path."""
        await self._shutdown()
        self.ledger.close()

    def begin_drain(self, source: str = "request") -> None:
        """Graceful shutdown: stop granting, let in-flight leases finish.

        Idempotent.  New ``/lease`` calls get ``{"draining": true}``;
        heartbeats and completions keep working.  Once nothing is leased
        the campaign finalizes (``complete`` if everything landed,
        ``aborted`` otherwise — the ledger lets a later coordinator
        resume the remainder) and ``completed_event`` fires so
        :func:`run_campaign` exits 0.
        """
        if self.draining or self.state != "running":
            return
        self._write({"op": wal.OP_DRAIN, "source": source, "leased": self.table.counts[LEASED]})
        self.draining = True
        self._check_complete()

    def summary(self) -> Dict:
        """Campaign roll-up (cells are fingerprint-unique units of work),
        counted by the publisher."""
        tally = self.publisher
        return {
            "state": self.state,
            "total": tally.total,
            "completed": tally.completed,
            "hits": tally.hits,
            "misses": tally.misses,
            "failed": len(tally.quarantined),
            "workers": sorted(self.workers),
            "epoch": self.epoch,
            "recoveries": self.recoveries,
            "drained": self.drained,
        }

    # -- campaign state machine --------------------------------------------

    def _journal(self, event: str, **fields) -> None:
        self.store.log_event(event, **fields)

    def _write(self, record: Dict) -> Dict:
        """Write one campaign transition: its ledger record, stamped with
        the epoch, then — for the ops in :data:`_JOURNALED` — its journal
        line with the same fields.  It is the cell table's ``write_ahead``
        hook, so every ledger record takes this one path."""
        record = self.ledger.append(epoch=self.epoch, **record)
        event = _JOURNALED.get(record["op"])
        if event is not None:
            self._journal(
                event, **{k: v for k, v in record.items() if k not in ("seq", "op", "check")}
            )
        return record

    @property
    def failures(self) -> List[Dict]:
        """The quarantine roster, in order."""
        return [failure.to_dict() for failure in self.table.failures]

    def _blame(self, cell: Cell, kind: str, message: str) -> None:
        """One failed attempt (the current lease): re-lease with backoff
        or quarantine."""
        self.table.fail(cell.key, kind, message)
        self._check_complete()

    def _finalize(self, state: str) -> None:
        self._write({"op": wal.OP_CLOSE, "state": state})
        self.state = state
        self.publisher.finish(state)
        if self._done_async is not None:
            self._done_async.set()
        self.completed_event.set()

    def _check_complete(self) -> None:
        if self.state != "running":
            return
        if self.table.settled():
            self.drained = self.drained or self.draining
            self._finalize("complete")
            return
        if self.draining and not self.table.counts[LEASED]:
            # Drain finished with work left over: the ledger keeps the
            # retry/quarantine history, a restart resumes the remainder.
            self.drained = True
            self._finalize("aborted")

    async def _tick_loop(self) -> None:
        """Expire overdue leases and refresh the in-flight heartbeat view."""
        while True:
            await asyncio.sleep(self.tick)
            for cell in self.table.overdue():
                self._journal(
                    protocol.EV_EXPIRE,
                    key=cell.key,
                    label=cell.label,
                    worker=cell.worker,
                    lease_id=cell.lease_id,
                )
                if cell.lease_epoch != self.epoch:
                    message = (
                        f"lease {cell.lease_id} from epoch {cell.lease_epoch} was "
                        f"not re-presented within {self.resume_grace:g}s of "
                        f"coordinator recovery (worker {cell.worker})"
                    )
                else:
                    message = (
                        f"lease {cell.lease_id} expired after {self.ttl:g}s "
                        f"(worker {cell.worker} stopped heartbeating)"
                    )
                self._blame(cell, "expired", message)
            self._publish_in_flight()
            self._check_complete()

    def _publish_in_flight(self) -> None:
        self.publisher.max_workers = max(len(self.workers), 1)
        self.publisher.record_in_flight(self.table.in_flight())

    # -- request handlers ---------------------------------------------------

    def _handle_grid(self) -> Tuple[int, Dict]:
        return 200, {
            "schema": FABRIC_SCHEMA,
            "code": self.code,
            "scale": asdict(self.scale),
            "ttl": self.ttl,
            "epoch": self.epoch,
            "draining": self.draining,
            "cells": {"total": len(self.cells), "tasks": len(self.tasks)},
        }

    def _handle_lease(self, body: Dict) -> Tuple[int, Dict]:
        worker = body.get("worker")
        if not isinstance(worker, str) or not worker:
            return 400, {"error": "lease request must name a worker"}
        self.workers[worker] = self._clock()
        if self.state != "running":
            return 200, {"done": True, "summary": self.summary()}
        if self.draining:
            return 200, {"draining": True, "retry_after": EMPTY_RETRY_AFTER}
        cell = self.table.next_ready()
        if cell is None:
            if self.table.settled():
                return 200, {"done": True, "summary": self.summary()}
            return 200, {"empty": True, "retry_after": EMPTY_RETRY_AFTER}
        lease_seq = self._lease_seq + 1
        lease_id = f"L{lease_seq:05d}-{cell.key[:8]}"
        self.table.lease(cell.key, self.ttl, lease_seq=lease_seq, lease_id=lease_id, worker=worker)
        self._lease_seq = lease_seq
        self._publish_in_flight()
        return 200, {
            "lease": {
                "lease_id": lease_id,
                "key": cell.key,
                "label": cell.label,
                "ttl": self.ttl,
                "attempt": cell.attempts,
                "epoch": self.epoch,
                "task": lease_task_fields(cell.task),
            }
        }

    def _handle_heartbeat(self, body: Dict) -> Tuple[int, Dict]:
        worker = body.get("worker")
        lease_ids = body.get("lease_ids")
        if not isinstance(worker, str) or not isinstance(lease_ids, list):
            return 400, {"error": "heartbeat must carry worker and lease_ids"}
        self.workers[worker] = self._clock()
        renewed, lost = [], []
        live = {cell.lease_id: cell for cell in self.table.leased.values()}
        body_epoch = body.get("epoch")
        for lease_id in lease_ids:
            cell = live.get(lease_id)
            if (
                cell is not None
                and cell.worker == worker
                and cell.lease_epoch == self.epoch
                and body_epoch == self.epoch
            ):
                self.table.renew(cell.key, self.ttl)
                renewed.append(lease_id)
            else:
                # Pre-restart-epoch leases renew only after /resume
                # re-adopts them; reporting them lost is what sends the
                # surviving worker down the resume path.
                lost.append(lease_id)
        return 200, {"renewed": renewed, "lost": lost, "epoch": self.epoch}

    def _resolve_lease(self, body: Dict):
        """Common /complete + /fail lease validation.

        Returns ``(cell, None)`` for a live, matching lease *at the
        current fencing epoch* or ``(cell_or_None, reject_reason)``
        otherwise — journaling (and write-ahead-logging) the rejection,
        which is how stale/duplicate/fenced replies show up in the
        exactly-once accounting.
        """
        key = body.get("key")
        lease_id = body.get("lease_id")
        worker = body.get("worker")
        cell = self.table.cells.get(key) if isinstance(key, str) else None
        if cell is None:
            reason = protocol.REJECT_UNKNOWN_CELL
        elif cell.state == DONE:
            reason = protocol.REJECT_DONE
        elif body.get("epoch") != self.epoch:
            # The worker's view of the coordinator predates a restart:
            # fence it out deterministically, whatever lease it names.
            reason = protocol.REJECT_STALE_EPOCH
        elif cell.state != LEASED or cell.lease_id != lease_id or cell.worker != worker:
            reason = protocol.REJECT_STALE
        elif cell.lease_epoch != self.epoch:
            # The lease itself was granted pre-restart and never
            # re-presented via /resume — a zombie cannot double-complete.
            reason = protocol.REJECT_STALE_EPOCH
        else:
            return cell, None
        self._reject(key, lease_id, worker, reason)
        return cell, reason

    def _reject(self, key, lease_id, worker, reason: str, **extra) -> None:
        """Record a refused /complete or /fail (fields that are not
        strings are written ``"?"``)."""
        named = {"key": key, "lease_id": lease_id, "worker": worker}
        named = {name: v if isinstance(v, str) else "?" for name, v in named.items()}
        self._write({"op": wal.OP_REJECT, **named, "reason": reason, **extra})

    def _handle_complete(self, body: Dict) -> Tuple[int, Dict]:
        cell, reason = self._resolve_lease(body)
        if reason is not None:
            return 200, {"accepted": False, "reason": reason}
        lease_id, worker = cell.lease_id, cell.worker
        documents = body.get("documents")
        errors = validate_documents(documents)
        reason = None
        if errors:
            reason = protocol.REJECT_CORRUPT
        elif not any(doc["key"] == cell.key for doc in documents):
            reason = protocol.REJECT_MISSING
        if reason is not None:
            # A structurally bad payload blames the lease like a failure:
            # re-leasing a cell to a worker that keeps shipping garbage
            # must converge to quarantine, not loop forever.
            self._reject(cell.key, lease_id, worker, reason, errors=errors[:3])
            self._blame(cell, "error", f"rejected completion: {reason}")
            return 200, {"accepted": False, "reason": reason, "errors": errors[:3]}
        stored = []
        for doc in documents:
            self.store.put(doc["key"], doc["value"], meta=doc["meta"])
            stored.append(doc["key"])
        # Puts land before the ledger record: a "complete" in the WAL is
        # always store-backed, and a crash in between is healed by the
        # warm-store scan on restart.
        self.table.complete(cell.key, label=cell.label, lease_id=lease_id, worker=worker)
        self.publisher.record_completion(hit=False)
        self._check_complete()
        return 200, {"accepted": True, "stored": stored, "done": self.state != "running"}

    def _handle_fail(self, body: Dict) -> Tuple[int, Dict]:
        cell, reason = self._resolve_lease(body)
        if reason is not None:
            return 200, {"accepted": False, "reason": reason}
        kind = body.get("kind") if isinstance(body.get("kind"), str) else "error"
        message = str(body.get("message", "worker reported failure"))
        self._journal(
            protocol.EV_FAIL,
            key=cell.key,
            label=cell.label,
            worker=cell.worker,
            lease_id=cell.lease_id,
            kind=kind,
            message=message,
        )
        self._blame(cell, kind, message)
        return 200, {"accepted": True}

    def _handle_resume(self, body: Dict) -> Tuple[int, Dict]:
        """Session resume: a reconnected worker re-presents held leases.

        Each live lease that still matches (same lease_id, same worker,
        cell still leased) is re-adopted at the *current* epoch with a
        fresh TTL — the only way a pre-restart grant becomes completable
        again.  Everything else the worker must abandon: the cell was
        re-leased, completed, or expired while it was away.
        """
        worker = body.get("worker")
        held = body.get("held")
        if not isinstance(worker, str) or not worker or not isinstance(held, list):
            return 400, {"error": "resume must carry worker and held leases"}
        self.workers[worker] = self._clock()
        readopted, abandon = [], []
        for item in held:
            lease_id = item.get("lease_id") if isinstance(item, dict) else None
            key = item.get("key") if isinstance(item, dict) else None
            cell = self.table.cells.get(key) if isinstance(key, str) else None
            if (
                cell is None
                or cell.state != LEASED
                or cell.lease_id != lease_id
                or cell.worker != worker
            ):
                abandon.append(lease_id if isinstance(lease_id, str) else "?")
                continue
            if cell.lease_epoch != self.epoch:
                self.table.commit(
                    {
                        "op": wal.OP_READOPT,
                        "key": cell.key,
                        "label": cell.label,
                        "lease_id": lease_id,
                        "worker": worker,
                    }
                )
            self.table.renew(cell.key, self.ttl)
            readopted.append(
                {
                    "lease_id": lease_id,
                    "key": cell.key,
                    "epoch": self.epoch,
                    "ttl": self.ttl,
                }
            )
        return 200, {"epoch": self.epoch, "readopted": readopted, "abandon": abandon}

    def _handle_drain(self) -> Tuple[int, Dict]:
        self.begin_drain("request")
        return 200, {"draining": True, "leased": self.table.counts[LEASED]}

    def _dispatch(
        self, method: str, target: str, body: Dict, headers: Dict[str, str]
    ) -> Tuple[int, object, str]:
        presented = headers.get(TOKEN_HEADER.lower())
        if self.token and presented != self.token:
            detail = "presented no token" if not presented else "presented a different token"
            error = (
                f"fabric token mismatch: coordinator requires a shared secret and the "
                f"client {detail} (set {protocol.TOKEN_ENV} or pass --token)"
            )
            return 401, {"error": error, "reason": protocol.REJECT_UNAUTHORIZED}, JSON
        handler = self._routes.get((method, urlparse(target).path))
        if handler is not None:
            return (*handler(body), JSON)
        return campaign_view(
            method, target, self.publisher.document, self.registry, self.store.root
        )


def run_campaign(
    coordinator: FabricCoordinator,
    *,
    linger: float = 5.0,
    announce=None,
) -> Dict:
    """Drive one coordinator to completion on this thread (CLI entry).

    After the campaign completes the server lingers ``linger`` seconds so
    polling workers observe the ``done`` reply and exit cleanly, then the
    server shuts down and the summary is returned.  ``SIGTERM`` begins a
    graceful drain (stop granting, finish in-flight, flush ledger +
    final status) and the drained summary exits 0; a Ctrl-C lands in the
    ``finally`` — the store keeps every accepted cell and the journal
    gets an ``aborted`` summary, exactly like an interrupted sweep.
    """

    async def _main() -> None:
        await coordinator.start()
        loop = asyncio.get_running_loop()
        with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
            loop.add_signal_handler(
                signal.SIGTERM, coordinator.begin_drain, "SIGTERM"
            )
        if announce is not None:
            announce(coordinator)
        try:
            await coordinator.wait_complete()
            if linger > 0:
                await asyncio.sleep(linger)
        finally:
            with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
                loop.remove_signal_handler(signal.SIGTERM)
            await coordinator.stop()

    asyncio.run(_main())
    return coordinator.summary()
