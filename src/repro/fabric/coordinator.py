"""Asyncio cell-lease coordinator: sweeps as a horizontally scaled service.

The coordinator owns one campaign — a grid of
:class:`~repro.experiments.parallel.GridTask` cells against one shared
:class:`~repro.store.ResultStore` — and leases cells to worker processes
over HTTP (:mod:`repro.fabric.protocol`).  It is the network-layer
analogue of :func:`repro.experiments.parallel.run_sweep`: the
same store, the same journal, the same ``status.json`` heartbeat schema,
so a fabric sweep and a single-process sweep against the same grid leave
byte-identical ``objects/`` trees behind (the property
``tests/test_fabric.py`` and the CI ``fabric-canary`` assert).

Cell lifecycle (the lease state machine; see ``docs/fabric.md``)::

    pending ──lease──▶ leased ──complete──▶ done
       ▲                 │
       │                 │ TTL expiry / bad payload / fail
       │                 ▼
       └─(attempts left)─┴─(fatal kind or attempts exhausted)─▶ quarantined

* **Dedupe by fingerprint.**  Cells are grouped by their content address
  (:func:`~repro.experiments.parallel.task_store_key`); duplicate tasks
  collapse into one unit of work, and a fingerprint is never leased to
  two workers at once.  Cells whose fingerprint is already in the store
  complete instantly as hits (warm resume), exactly like ``--resume``.
* **Lease TTL + heartbeats.**  Every lease carries a deadline; workers
  renew via ``POST /heartbeat``.  A dead or partitioned worker simply
  stops renewing, the lease expires, and the cell re-enters the queue
  with one failure attempt charged.
* **One retry budget.**  Expiries, rejected payloads and worker ``/fail``
  reports all go through :meth:`~repro.resilience.RetryPolicy.next_retry`,
  the rule the local sweep applies: a re-lease after backoff, or
  quarantine once the kind is deterministic or the leases run out.
  Workers never retry on their own, so a cell runs at most
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
interleaving hazards.  The HTTP layer is a deliberately small HTTP/1.1
reader over ``asyncio.start_server`` (stdlib only, connection-per-request).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlparse

from repro.experiments.parallel import GridTask, grid_store_keys
from repro.experiments.runner import ExperimentScale
from repro.fabric import ledger as wal
from repro.fabric import protocol
from repro.fabric.ledger import LEDGER_FILENAME, FabricLedger, LedgerState
from repro.fabric.protocol import (
    DEFAULT_TTL,
    FABRIC_SCHEMA,
    TOKEN_HEADER,
    lease_task_fields,
    validate_documents,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.status import StatusPublisher
from repro.resilience.supervisor import RetryPolicy
from repro.store import ResultStore, code_version

_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    503: "Service Unavailable",
}

#: How long a worker should wait before re-polling /lease when everything
#: runnable is currently leased or backing off.
EMPTY_RETRY_AFTER = 0.2


@dataclass
class _Lease:
    lease_id: str
    worker: str
    attempt: int
    granted: float  # coordinator clock (monotonic)
    deadline: float
    epoch: int = 1  # fencing epoch the grant (or last re-adoption) was made under


@dataclass
class _CellGroup:
    """One unit of leasable work: every task index sharing a fingerprint."""

    key: str
    indices: List[int]
    task: GridTask
    state: str = "pending"  # pending | leased | done | failed
    attempts: int = 0  # leases granted (expiries/bad payloads consume one)
    not_before: float = 0.0
    lease: Optional[_Lease] = None
    hit: bool = False


def group_tasks(scale: ExperimentScale, tasks: Sequence[GridTask]) -> List[_CellGroup]:
    """Collapse tasks into fingerprint-unique cell groups, in task order."""
    by_key: Dict[str, _CellGroup] = {}
    order: List[_CellGroup] = []
    for index, (task, key) in enumerate(zip(tasks, grid_store_keys(scale, tasks))):
        group = by_key.get(key)
        if group is None:
            group = by_key[key] = _CellGroup(key=key, indices=[], task=task)
            order.append(group)
        group.indices.append(index)
    return order


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
        if ttl <= 0:
            raise ValueError(f"lease ttl must be positive (got {ttl})")
        if resume_grace is not None and resume_grace < 0:
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

        self.cells = group_tasks(scale, self.tasks)
        self._by_key = {group.key: group for group in self.cells}
        self.hits = 0
        self.misses = 0
        self.failures: List[Dict] = []
        self.workers: Dict[str, float] = {}  # worker id -> last seen (clock)
        self.state = "running"
        self.epoch = 1
        self.recoveries = 0
        self.draining = False
        self.drained = False
        self._lease_seq = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._ticker: Optional[asyncio.Task] = None
        self._done_async: Optional[asyncio.Event] = None
        self.completed_event = threading.Event()
        self.publisher: Optional[StatusPublisher] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Replay the ledger, bind the port, absorb warm store hits,
        start the expiry ticker.

        A first run opens epoch 1 on a fresh ledger; a restart replays
        the write-ahead ledger (raising
        :class:`~repro.fabric.ledger.LedgerCorrupt` on damage — never a
        silent wrong state), bumps the fencing epoch, and restores retry
        counts, backoff deadlines, the quarantine roster, and in-flight
        leases (which get ``resume_grace`` to be re-presented by their
        surviving workers before expiring like dead ones).
        """
        self._done_async = asyncio.Event()
        replayed = self.ledger.replay()
        self.epoch = replayed.epoch + 1
        self.recoveries = replayed.opens
        self._lease_seq = replayed.lease_seq
        self.publisher = StatusPublisher(
            self.store.root,
            total_cells=len(self.cells),
            max_workers=0,
            interval=self.status_interval,
            registry=self.registry,
            recoveries=self.recoveries,
            epoch=self.epoch,
        )
        self.ledger.append(
            wal.OP_OPEN, epoch=self.epoch, code=self.code, cells=len(self.cells)
        )
        recovered = self._apply_replay(replayed)
        for group in self.cells:
            if group.state in ("done", "failed"):
                continue
            if self.store.get(group.key, kind="competitive") is not None:
                group.state = "done"
                group.lease = None
                group.hit = True
                self.hits += 1
                self.publisher.record_completion(hit=True)
        if self.recoveries:
            self._journal(
                protocol.EV_RECOVER,
                epoch=self.epoch,
                torn_tail=replayed.torn_tail,
                **recovered,
            )
        self._server = await asyncio.start_server(
            self._handle_client, host=self.host, port=self._requested_port
        )
        self._ticker = asyncio.get_running_loop().create_task(self._tick_loop())
        self._check_complete()

    def _apply_replay(self, replayed: LedgerState) -> Dict[str, int]:
        """Restore campaign state from a replayed ledger (pre warm-scan).

        Completed cells are *not* marked here: a ``complete`` record is
        only ever appended after the store puts landed, so the ordinary
        warm-store scan right after this re-discovers them (and heals the
        put-then-crash window where the record itself never landed).
        """
        now = self._clock()
        wall = self._wall()
        counts = {"leased": 0, "pending": 0, "quarantined": 0, "unknown": 0}
        for failure in replayed.failures:
            group = self._by_key.get(failure.get("key"))
            if group is None:
                counts["unknown"] += 1
                continue
            group.state = "failed"
            restored = {
                "index": failure.get("index", group.indices[0]),
                "label": failure.get("label") or group.task.label,
                "kind": failure.get("kind", "error"),
                "message": failure.get("message", ""),
                "attempts": failure.get("attempts", 0),
            }
            self.failures.append(restored)
            self.publisher.record_quarantine(restored)
            counts["quarantined"] += 1
        for key, cell in replayed.cells.items():
            group = self._by_key.get(key)
            if group is None:
                if cell.state != "failed":  # failed ones counted above
                    counts["unknown"] += 1
                continue
            if group.state == "failed":
                continue
            group.attempts = max(group.attempts, cell.attempts)
            if cell.state == "leased":
                group.state = "leased"
                group.lease = _Lease(
                    lease_id=cell.lease_id or "?",
                    worker=cell.worker or "?",
                    attempt=cell.lease_attempt or cell.attempts,
                    granted=now,
                    deadline=now + self.resume_grace,
                    epoch=cell.lease_epoch,
                )
                counts["leased"] += 1
            elif cell.state == "pending" and cell.attempts:
                group.not_before = now + max(0.0, cell.not_before_wall - wall)
                counts["pending"] += 1
        return counts

    @property
    def port(self) -> int:
        assert self._server is not None, "coordinator not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    async def wait_complete(self) -> None:
        assert self._done_async is not None, "coordinator not started"
        await self._done_async.wait()

    async def stop(self) -> None:
        """Tear the server down; an unfinished campaign journals ``aborted``."""
        if self._ticker is not None:
            self._ticker.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._ticker
            self._ticker = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.state == "running":
            self._finalize("aborted")
        self.ledger.close()

    async def abandon(self) -> None:
        """Tear down *without* finalizing — the test harness's SIGKILL
        stand-in.  No ``close`` ledger record, no ``aborted`` journal
        line: exactly the state a killed coordinator leaves behind, so
        recovery tests exercise the real replay path."""
        if self._ticker is not None:
            self._ticker.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._ticker
            self._ticker = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
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
        self.ledger.append(wal.OP_DRAIN, epoch=self.epoch, source=source)
        self.draining = True
        self._journal(
            protocol.EV_DRAIN,
            epoch=self.epoch,
            source=source,
            leased=sum(1 for g in self.cells if g.state == "leased"),
        )
        self._check_complete()

    def summary(self) -> Dict:
        """Campaign roll-up (cells are fingerprint-unique units of work)."""
        completed = sum(1 for g in self.cells if g.state == "done")
        return {
            "state": self.state,
            "total": len(self.cells),
            "completed": completed,
            "hits": self.hits,
            "misses": self.misses,
            "failed": len(self.failures),
            "workers": sorted(self.workers),
            "epoch": self.epoch,
            "recoveries": self.recoveries,
            "drained": self.drained,
        }

    # -- campaign state machine --------------------------------------------

    def _journal(self, event: str, **fields) -> None:
        self.store.log_event(event, **fields)

    def _quarantine(self, group: _CellGroup, kind: str, message: str) -> None:
        failure = {
            "index": group.indices[0],
            "label": group.task.label,
            "kind": kind,
            "message": message,
            "attempts": group.attempts,
        }
        self.ledger.append(wal.OP_QUARANTINE, epoch=self.epoch, key=group.key, **failure)
        group.state = "failed"
        group.lease = None
        self.failures.append(failure)
        self._journal("quarantine", **failure)
        self.publisher.record_quarantine(failure)
        self._check_complete()

    def _blame(self, group: _CellGroup, kind: str, message: str) -> None:
        """One failure attempt (the current lease): re-lease with backoff
        or quarantine."""
        event = self.retry.next_retry(group.task.label, group.attempts, kind, message)
        if event is None:
            self._quarantine(group, kind, message)
            return
        delay = event["delay"]
        self.ledger.append(
            wal.OP_RETRY,
            epoch=self.epoch,
            key=group.key,
            kind=kind,
            attempts=group.attempts,
            not_before_wall=self._wall() + delay,
        )
        group.lease = None
        group.state = "pending"
        group.not_before = self._clock() + delay
        self.publisher.record_retry(event)
        self._check_complete()

    def _finalize(self, state: str) -> None:
        self.ledger.append(wal.OP_CLOSE, epoch=self.epoch, state=state)
        self.state = state
        self.publisher.finish("complete" if state == "complete" else "aborted")
        self._journal(
            "sweep_summary",
            state=state,
            total=len(self.cells),
            completed=sum(1 for g in self.cells if g.state == "done"),
            hits=self.hits,
            misses=self.misses,
            failed=len(self.failures),
            shard=None,
        )
        if self._done_async is not None:
            self._done_async.set()
        self.completed_event.set()

    def _check_complete(self) -> None:
        if self.state != "running":
            return
        if all(group.state in ("done", "failed") for group in self.cells):
            self.drained = self.drained or self.draining
            self._finalize("complete")
            return
        if self.draining and not any(g.state == "leased" for g in self.cells):
            # Drain finished with work left over: the ledger keeps the
            # retry/quarantine history, a restart resumes the remainder.
            self.drained = True
            self._finalize("aborted")

    async def _tick_loop(self) -> None:
        """Expire overdue leases and refresh the in-flight heartbeat view."""
        while True:
            await asyncio.sleep(self.tick)
            now = self._clock()
            for group in self.cells:
                if group.state != "leased" or group.lease.deadline > now:
                    continue
                lease = group.lease
                self._journal(
                    protocol.EV_EXPIRE,
                    key=group.key,
                    label=group.task.label,
                    worker=lease.worker,
                    lease_id=lease.lease_id,
                )
                if lease.epoch != self.epoch:
                    message = (
                        f"lease {lease.lease_id} from epoch {lease.epoch} was "
                        f"not re-presented within {self.resume_grace:g}s of "
                        f"coordinator recovery (worker {lease.worker})"
                    )
                else:
                    message = (
                        f"lease {lease.lease_id} expired after {self.ttl:g}s "
                        f"(worker {lease.worker} stopped heartbeating)"
                    )
                self._blame(group, "expired", message)
            self._publish_in_flight(now)
            self._check_complete()

    def _publish_in_flight(self, now: float) -> None:
        self.publisher.max_workers = max(len(self.workers), 1)
        self.publisher.record_in_flight(
            [
                {
                    "label": group.task.label,
                    "attempts": group.attempts,
                    "seconds": round(now - group.lease.granted, 3),
                    "worker": group.lease.worker,
                }
                for group in self.cells
                if group.state == "leased"
            ]
        )

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
        now = self._clock()
        self.workers[worker] = now
        if self.state != "running":
            return 200, {"done": True, "summary": self.summary()}
        if self.draining:
            return 200, {"draining": True, "retry_after": EMPTY_RETRY_AFTER}
        eligible = None
        for group in self.cells:
            if group.state == "pending" and group.not_before <= now:
                eligible = group
                break
        if eligible is None:
            if all(group.state in ("done", "failed") for group in self.cells):
                return 200, {"done": True, "summary": self.summary()}
            return 200, {"empty": True, "retry_after": EMPTY_RETRY_AFTER}
        lease_id = f"L{self._lease_seq + 1:05d}-{eligible.key[:8]}"
        self.ledger.append(
            wal.OP_LEASE,
            epoch=self.epoch,
            lease_seq=self._lease_seq + 1,
            key=eligible.key,
            label=eligible.task.label,
            lease_id=lease_id,
            worker=worker,
            attempt=eligible.attempts + 1,
        )
        eligible.attempts += 1
        self._lease_seq += 1
        lease = _Lease(
            lease_id=lease_id,
            worker=worker,
            attempt=eligible.attempts,
            granted=now,
            deadline=now + self.ttl,
            epoch=self.epoch,
        )
        eligible.state = "leased"
        eligible.lease = lease
        self._journal(
            protocol.EV_LEASE,
            key=eligible.key,
            label=eligible.task.label,
            worker=worker,
            lease_id=lease.lease_id,
            attempt=lease.attempt,
            epoch=self.epoch,
        )
        self._publish_in_flight(now)
        return 200, {
            "lease": {
                "lease_id": lease.lease_id,
                "key": eligible.key,
                "label": eligible.task.label,
                "ttl": self.ttl,
                "attempt": lease.attempt,
                "epoch": self.epoch,
                "task": lease_task_fields(eligible.task),
            }
        }

    def _handle_heartbeat(self, body: Dict) -> Tuple[int, Dict]:
        worker = body.get("worker")
        lease_ids = body.get("lease_ids")
        if not isinstance(worker, str) or not isinstance(lease_ids, list):
            return 400, {"error": "heartbeat must carry worker and lease_ids"}
        now = self._clock()
        self.workers[worker] = now
        renewed, lost = [], []
        live = {
            group.lease.lease_id: group
            for group in self.cells
            if group.state == "leased"
        }
        body_epoch = body.get("epoch")
        for lease_id in lease_ids:
            group = live.get(lease_id)
            if (
                group is not None
                and group.lease.worker == worker
                and group.lease.epoch == self.epoch
                and body_epoch == self.epoch
            ):
                group.lease.deadline = now + self.ttl
                renewed.append(lease_id)
            else:
                # Pre-restart-epoch leases renew only after /resume
                # re-adopts them; reporting them lost is what sends the
                # surviving worker down the resume path.
                lost.append(lease_id)
        return 200, {"renewed": renewed, "lost": lost, "epoch": self.epoch}

    def _resolve_lease(self, body: Dict):
        """Common /complete + /fail lease validation.

        Returns ``(group, None)`` for a live, matching lease *at the
        current fencing epoch* or ``(group_or_None, reject_reason)``
        otherwise — journaling (and write-ahead-logging) the rejection,
        which is how stale/duplicate/fenced replies show up in the
        exactly-once accounting.
        """
        key = body.get("key")
        lease_id = body.get("lease_id")
        worker = body.get("worker")
        group = self._by_key.get(key) if isinstance(key, str) else None
        if group is None:
            reason = protocol.REJECT_UNKNOWN_CELL
        elif group.state == "done":
            reason = protocol.REJECT_DONE
        elif body.get("epoch") != self.epoch:
            # The worker's view of the coordinator predates a restart:
            # fence it out deterministically, whatever lease it names.
            reason = protocol.REJECT_STALE_EPOCH
        elif (
            group.state != "leased"
            or group.lease.lease_id != lease_id
            or group.lease.worker != worker
        ):
            reason = protocol.REJECT_STALE
        elif group.lease.epoch != self.epoch:
            # The lease itself was granted pre-restart and never
            # re-presented via /resume — a zombie cannot double-complete.
            reason = protocol.REJECT_STALE_EPOCH
        else:
            return group, None
        self.ledger.append(
            wal.OP_REJECT,
            epoch=self.epoch,
            key=key if isinstance(key, str) else "?",
            lease_id=lease_id if isinstance(lease_id, str) else "?",
            reason=reason,
        )
        self._journal(
            protocol.EV_REJECT,
            key=key if isinstance(key, str) else "?",
            lease_id=lease_id if isinstance(lease_id, str) else "?",
            worker=worker if isinstance(worker, str) else "?",
            reason=reason,
        )
        return group, reason

    def _handle_complete(self, body: Dict) -> Tuple[int, Dict]:
        group, reason = self._resolve_lease(body)
        if reason is not None:
            return 200, {"accepted": False, "reason": reason}
        documents = body.get("documents")
        errors = validate_documents(documents)
        reason = None
        if errors:
            reason = protocol.REJECT_CORRUPT
        elif not any(doc["key"] == group.key for doc in documents):
            reason = protocol.REJECT_MISSING
        if reason is not None:
            # A structurally bad payload blames the lease like a failure:
            # re-leasing a cell to a worker that keeps shipping garbage
            # must converge to quarantine, not loop forever.
            self.ledger.append(
                wal.OP_REJECT,
                epoch=self.epoch,
                key=group.key,
                lease_id=group.lease.lease_id,
                reason=reason,
            )
            self._journal(
                protocol.EV_REJECT,
                key=group.key,
                lease_id=group.lease.lease_id,
                worker=group.lease.worker,
                reason=reason,
                errors=errors[:3],
            )
            self._blame(group, "error", f"rejected completion: {reason}")
            return 200, {"accepted": False, "reason": reason, "errors": errors[:3]}
        lease = group.lease
        stored = []
        for doc in documents:
            self.store.put(doc["key"], doc["value"], meta=doc["meta"])
            stored.append(doc["key"])
        # Puts land before the ledger record: a "complete" in the WAL is
        # always store-backed, and a crash in between is healed by the
        # warm-store scan on restart.
        self.ledger.append(
            wal.OP_COMPLETE,
            epoch=self.epoch,
            key=group.key,
            lease_id=lease.lease_id,
            worker=lease.worker,
        )
        group.state = "done"
        group.lease = None
        self.misses += 1
        self._journal(
            protocol.EV_COMPLETE,
            key=group.key,
            label=group.task.label,
            worker=lease.worker,
            lease_id=lease.lease_id,
        )
        self.publisher.record_completion(hit=False)
        self._check_complete()
        return 200, {"accepted": True, "stored": stored, "done": self.state != "running"}

    def _handle_fail(self, body: Dict) -> Tuple[int, Dict]:
        group, reason = self._resolve_lease(body)
        if reason is not None:
            return 200, {"accepted": False, "reason": reason}
        kind = body.get("kind") if isinstance(body.get("kind"), str) else "error"
        message = str(body.get("message", "worker reported failure"))
        attempts = body.get("attempts")
        lease = group.lease
        self._journal(
            protocol.EV_FAIL,
            key=group.key,
            label=group.task.label,
            worker=lease.worker,
            lease_id=lease.lease_id,
            kind=kind,
            message=message,
            attempts=attempts if isinstance(attempts, int) else None,
        )
        self._blame(group, kind, message)
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
        now = self._clock()
        self.workers[worker] = now
        readopted, abandon = [], []
        for item in held:
            lease_id = item.get("lease_id") if isinstance(item, dict) else None
            key = item.get("key") if isinstance(item, dict) else None
            group = self._by_key.get(key) if isinstance(key, str) else None
            lease = group.lease if group is not None and group.state == "leased" else None
            if (
                lease is None
                or lease.lease_id != lease_id
                or lease.worker != worker
            ):
                abandon.append(lease_id if isinstance(lease_id, str) else "?")
                continue
            if lease.epoch != self.epoch:
                self.ledger.append(
                    wal.OP_READOPT,
                    epoch=self.epoch,
                    key=group.key,
                    lease_id=lease.lease_id,
                    worker=worker,
                )
                self._journal(
                    protocol.EV_READOPT,
                    key=group.key,
                    label=group.task.label,
                    worker=worker,
                    lease_id=lease.lease_id,
                    epoch=self.epoch,
                )
                lease.epoch = self.epoch
            lease.deadline = now + self.ttl
            readopted.append(
                {
                    "lease_id": lease.lease_id,
                    "key": group.key,
                    "epoch": self.epoch,
                    "ttl": self.ttl,
                }
            )
        return 200, {"epoch": self.epoch, "readopted": readopted, "abandon": abandon}

    def _handle_drain(self) -> Tuple[int, Dict]:
        self.begin_drain("request")
        return 200, {
            "draining": True,
            "leased": sum(1 for g in self.cells if g.state == "leased"),
        }

    def _handle_status(self) -> Tuple[int, Dict]:
        return 200, self.publisher.document()

    def _handle_journal(self, query: Dict) -> Tuple[int, object]:
        try:
            count = int(query.get("n", ["50"])[0])
        except ValueError:
            return 400, {"error": "n must be an integer"}
        from repro.obs.server import JOURNAL_LIMIT

        count = max(0, min(count, JOURNAL_LIMIT))
        # [-0:] would be the whole journal, not none of it.
        return 200, self.store.journal_entries()[-count:] if count else []

    def _dispatch(
        self, method: str, target: str, body: Dict, headers: Optional[Dict] = None
    ) -> Tuple[int, object, str]:
        parsed = urlparse(target)
        path, query = parsed.path, parse_qs(parsed.query)
        if self.token:
            presented = (headers or {}).get(TOKEN_HEADER.lower())
            if presented != self.token:
                detail = "presented no token" if not presented else "presented a different token"
                return (
                    401,
                    {
                        "error": (
                            f"fabric token mismatch: coordinator requires a shared "
                            f"secret and the client {detail} (set "
                            f"{protocol.TOKEN_ENV} or pass --token)"
                        ),
                        "reason": protocol.REJECT_UNAUTHORIZED,
                    },
                    "application/json",
                )
        if method == "GET":
            if path == "/grid":
                return (*self._handle_grid(), "application/json")
            if path == "/status":
                return (*self._handle_status(), "application/json")
            if path == "/metrics":
                return (
                    200,
                    self.registry.render_prometheus(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            if path == "/journal":
                return (*self._handle_journal(query), "application/json")
        elif method == "POST":
            if path == "/lease":
                return (*self._handle_lease(body), "application/json")
            if path == "/heartbeat":
                return (*self._handle_heartbeat(body), "application/json")
            if path == "/complete":
                return (*self._handle_complete(body), "application/json")
            if path == "/fail":
                return (*self._handle_fail(body), "application/json")
            if path == "/resume":
                return (*self._handle_resume(body), "application/json")
            if path == "/drain":
                return (*self._handle_drain(), "application/json")
        return 404, {"error": f"unknown endpoint {method} {path!r}"}, "application/json"

    # -- HTTP plumbing ------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader, writer) -> None:
        try:
            request = await asyncio.wait_for(reader.readline(), timeout=30)
            if not request:
                return
            parts = request.decode("latin-1").split()
            if len(parts) < 2:
                return
            method, target = parts[0].upper(), parts[1]
            length = 0
            headers: Dict[str, str] = {}
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=30)
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            raw = await reader.readexactly(length) if length else b""
            try:
                body = json.loads(raw) if raw else {}
                if not isinstance(body, dict):
                    raise ValueError("body must be a JSON object")
            except (json.JSONDecodeError, ValueError) as exc:
                status, payload, ctype = 400, {"error": f"bad request body: {exc}"}, "application/json"
            else:
                status, payload, ctype = self._dispatch(method, target, body, headers)
            blob = (
                payload.encode()
                if isinstance(payload, str)
                else json.dumps(payload).encode()
            )
            writer.write(
                (
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(blob)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode()
                + blob
            )
            await writer.drain()
        except (
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            ConnectionError,
            UnicodeDecodeError,
        ):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()


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
