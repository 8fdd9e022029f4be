"""The grid-cell lifecycle every dispatcher shares (see ``docs/resilience.md``).

The in-process sweep loop, the :class:`~repro.resilience.Supervisor` and
the fabric coordinator all run cells through one :class:`CellTable`.  A
cell is always in exactly one state::

    pending ──lease──▶ leased ──complete──▶ done
     ▲  ▲                │  │
     │  └─── release ────┘  │ fail
     │     (unblamed)       ▼
     │            RetryPolicy.next_retry ──fatal, or out of retries──▶ quarantine ──▶ failed
     │                      │ attempts left
     └────── retry ─────────┘ (not_before = now + backoff)

The transitions are the :mod:`repro.fabric.ledger` records — ``lease``,
``readopt``, ``complete``, ``retry``, ``quarantine`` — plus ``release``,
which requeues a cell without blame (a recovering coordinator's ``done``
cell whose store object is gone; no ledger ever holds one).  Each is a dict
with ``op`` and ``key``; :meth:`CellTable.apply` is the one place a
record changes a cell, for live transitions and for
:meth:`FabricLedger.replay <repro.fabric.ledger.FabricLedger.replay>`
alike.  A table's ``write_ahead`` hook sees every live record before it
applies (the coordinator's write-ahead ledger append).

A leased cell also carries a deadline on the table's clock — the
Supervisor's cell timeout, the coordinator's TTL or resume grace — which
no record holds: :meth:`CellTable.renew` sets it, :meth:`CellTable.overdue`
lists the leases past it, and :meth:`CellTable.in_flight` is the liveness
view both dispatchers publish.

Attempts: ``failures`` counts blamed attempts; :attr:`Cell.attempts`
adds the attempt a live lease is running, so a ``lease`` record's
``attempt`` is failures so far + 1 and a ``retry`` or ``quarantine``
record's ``attempts`` is the failure count including the one it blames.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, List, Optional

from repro.resilience.watchdog import SimulationStalled

PENDING, LEASED, DONE, FAILED = "pending", "leased", "done", "failed"

#: Failure kinds that quarantine without retry (deterministic failures).
FATAL_KINDS = ("stall", "config")


def classify_failure(exc: BaseException) -> str:
    """Failure kind for a worker-raised exception."""
    if isinstance(exc, SimulationStalled):
        return "stall"
    if isinstance(exc, ValueError):
        return "config"
    return "error"


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter."""

    retries: int = 2  # re-attempts after the first failure
    backoff_base: float = 0.25  # seconds; 0 disables sleeping
    backoff_cap: float = 5.0
    jitter: float = 0.1  # +/- fraction of the raw delay

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"RetryPolicy.retries must be >= 0 (got {self.retries})")
        if not self.backoff_base >= 0:  # also refuses nan
            raise ValueError(f"RetryPolicy.backoff_base must be >= 0 (got {self.backoff_base})")
        if not self.backoff_cap >= self.backoff_base:
            raise ValueError(
                f"RetryPolicy.backoff_cap must be >= backoff_base (got {self.backoff_cap})"
            )
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"RetryPolicy.jitter must be in [0, 1] (got {self.jitter})")

    def delay(self, label: str, attempt: int) -> float:
        """Backoff before re-attempt ``attempt`` (1-based) of ``label``.

        Jitter is derived from CRC32 of ``label|attempt`` rather than a
        global RNG, so it is deterministic across processes and runs.
        """
        if self.backoff_base <= 0:
            return 0.0
        raw = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
        if self.jitter == 0:
            return raw
        fraction = (zlib.crc32(f"{label}|{attempt}".encode()) % 10_000) / 10_000.0
        return raw * (1.0 - self.jitter + 2.0 * self.jitter * fraction)

    def next_retry(self, label: str, attempts: int, kind: str, message: str) -> Optional[Dict]:
        """The retry rule for a failed attempt (applied by :meth:`CellTable.fail`).

        ``attempts`` counts the cell's failed attempts so far, this one
        included.  Returns ``None`` when the cell must be quarantined — a
        deterministic failure kind (:data:`FATAL_KINDS`) or more than
        ``retries`` failures — and otherwise the retry event to record,
        whose ``delay`` is the backoff before the next attempt.
        """
        if kind in FATAL_KINDS or attempts > self.retries:
            return None
        return {
            "kind": "retry",
            "label": label,
            "attempt": attempts,
            "failure": kind,
            "delay": round(self.delay(label, attempts), 4),
            "message": message,
        }


@dataclass
class CellFailure:
    """One quarantined cell (``GridReport.failed_outcomes`` entry)."""

    index: int  # the cell's position in its dispatcher's task sequence
    label: str
    kind: str  # "crash" | "timeout" | "error" | "expired" | "stall" | "config"
    message: str
    attempts: int
    diagnostic: Optional[Dict] = None  # SimulationStalled dump, if any
    key: Hashable = None  # the cell's key in its CellTable

    def to_dict(self) -> Dict:
        return {
            "index": self.index,
            "label": self.label,
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
        }


@dataclass(eq=False)
class Cell:
    """One cell's lifecycle state; only :meth:`CellTable.apply` changes it."""

    key: Hashable
    label: str = ""
    index: int = 0  # first task position (quarantine records carry it)
    task: object = None  # what the dispatcher runs
    state: str = PENDING
    failures: int = 0  # blamed attempts
    not_before: float = 0.0  # backoff deadline on the table's clock
    not_before_wall: float = 0.0  # the same deadline on the wall clock (0 = none)
    lease_id: Optional[str] = None
    worker: Optional[str] = None
    lease_epoch: int = 0  # fencing epoch of the grant or last re-adoption
    leased_at: float = 0.0  # table clock at the lease
    deadline: float = math.inf  # when a live lease is overdue (table clock)

    @property
    def attempts(self) -> int:
        """Attempts charged: the failures, plus the one a live lease runs."""
        return self.failures + (self.state == LEASED)


class CellTable:
    """Every cell of one dispatch, keyed, with its retry budget.

    ``clock`` schedules backoff; ``wall`` stamps the durable
    ``not_before_wall`` of ``retry`` records (a replay converts it back
    onto ``clock``).  ``on_retry`` receives each live retry event and
    ``on_quarantine`` each live :class:`CellFailure`; replayed records
    fire neither.
    """

    def __init__(
        self,
        retry: Optional[RetryPolicy] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        wall: Callable[[], float] = time.time,
        write_ahead: Optional[Callable[[Dict], Dict]] = None,
        on_retry: Optional[Callable[[Dict], None]] = None,
        on_quarantine: Optional[Callable[[CellFailure], None]] = None,
    ) -> None:
        self.retry = retry or RetryPolicy()
        self._clock = clock
        self._wall = wall
        self.write_ahead = write_ahead
        self.on_retry = on_retry
        self.on_quarantine = on_quarantine
        self.cells: Dict[Hashable, Cell] = {}
        self.failures: List[CellFailure] = []  # the quarantine roster, in order
        self.counts = {PENDING: 0, LEASED: 0, DONE: 0, FAILED: 0}
        self._pending: Dict[Hashable, Cell] = {}  # lease order: first ready wins
        self.leased: Dict[Hashable, Cell] = {}  # live leases, in lease order

    def add(self, key: Hashable, label: str = "", index: int = 0, task: object = None) -> Cell:
        cell = self.cells[key] = self._pending[key] = Cell(key, label, index, task)
        self.counts[PENDING] += 1
        return cell

    def retain(self, keys: Iterable[Hashable]) -> int:
        """Forget every cell (and roster entry) not keyed in ``keys``;
        returns how many cells were forgotten."""
        keys = set(keys)
        foreign = [key for key in self.cells if key not in keys]
        for key in foreign:
            self.counts[self.cells.pop(key).state] -= 1
            self._pending.pop(key, None)
            self.leased.pop(key, None)
        self.failures = [f for f in self.failures if f.key in keys]
        return len(foreign)

    # -- queries -----------------------------------------------------------

    def settled(self) -> bool:
        """Every cell is done or quarantined."""
        return not (self.counts[PENDING] or self.counts[LEASED])

    def next_ready(self) -> Optional[Cell]:
        """The first pending cell past its backoff."""
        now = self._clock()
        for cell in self._pending.values():
            if cell.not_before <= now:
                return cell
        return None

    def wake(self) -> float:
        """Earliest backoff deadline among pending cells (table clock)."""
        return min(cell.not_before for cell in self._pending.values())

    def overdue(self) -> List[Cell]:
        """Live leases whose deadline has passed."""
        now = self._clock()
        return [cell for cell in self.leased.values() if cell.deadline <= now]

    def in_flight(self) -> List[Dict]:
        """``[{"label", "attempts", "seconds"}]`` per live lease (seconds
        since the lease; plus the ``worker`` holding a fabric lease)."""
        now = self._clock()
        view = []
        for cell in self.leased.values():
            entry = {
                "label": cell.label,
                "attempts": cell.attempts,
                "seconds": round(now - cell.leased_at, 3),
            }
            if cell.worker is not None:
                entry["worker"] = cell.worker
            view.append(entry)
        return view

    # -- transitions -------------------------------------------------------

    def commit(self, record: Dict) -> Dict:
        """Write ``record`` ahead (if hooked), then apply it."""
        if self.write_ahead is not None:
            record = self.write_ahead(record)
        self.apply(record)
        return record

    def lease(self, key: Hashable, ttl: Optional[float] = None, **fields) -> Dict:
        """Lease the cell, overdue ``ttl`` seconds from now (never if None)."""
        cell = self.cells[key]
        record = self.commit(
            {"op": "lease", "key": key, "label": cell.label, "attempt": cell.failures + 1, **fields}
        )
        if ttl is not None:
            self.renew(key, ttl)
        return record

    def renew(self, key: Hashable, ttl: float) -> None:
        """Push a live lease's deadline to ``ttl`` seconds from now."""
        self.cells[key].deadline = self._clock() + ttl

    def complete(self, key: Hashable, **fields) -> Dict:
        return self.commit({"op": "complete", "key": key, **fields})

    def fail(
        self, key: Hashable, kind: str, message: str, diagnostic: Optional[Dict] = None
    ) -> Optional[Dict]:
        """Blame the cell's running attempt: a ``retry`` record with its
        backoff, or a ``quarantine`` record.  Returns the retry event, or
        ``None`` if the cell was quarantined."""
        cell = self.cells[key]
        attempts = cell.failures + 1
        event = self.retry.next_retry(cell.label, attempts, kind, message)
        if event is None:
            self.commit(
                {
                    "op": "quarantine",
                    "key": key,
                    "index": cell.index,
                    "label": cell.label,
                    "kind": kind,
                    "message": message,
                    "attempts": attempts,
                }
            )
            failure = self.failures[-1]
            failure.diagnostic = diagnostic
            if self.on_quarantine is not None:
                self.on_quarantine(failure)
            return None
        self.commit(
            {
                "op": "retry",
                "key": key,
                "kind": kind,
                "attempts": attempts,
                "not_before_wall": self._wall() + event["delay"],
            }
        )
        if self.on_retry is not None:
            self.on_retry(event)
        return event

    def apply(self, record: Dict) -> Cell:
        """Apply one transition record to its cell (created if unseen)."""
        op, key = record["op"], record["key"]
        cell = self.cells.get(key) or self.add(key)
        if op == "readopt":
            cell.lease_epoch = record["epoch"]
            return cell
        if op == "lease":
            state = LEASED
            cell.failures = record.get("attempt", cell.failures + 1) - 1
            cell.label = record.get("label", cell.label)
            cell.lease_id = record.get("lease_id")
            cell.worker = record.get("worker")
            cell.lease_epoch = record.get("epoch", 0)
            cell.leased_at = self._clock()
            cell.deadline = math.inf
            cell.not_before = cell.not_before_wall = 0.0
        elif op == "complete":
            state = DONE
        elif op == "release":
            state = PENDING
            cell.not_before = cell.not_before_wall = 0.0
        elif op == "retry":
            state = PENDING
            cell.failures = record.get("attempts", cell.failures + 1)
            cell.not_before_wall = float(record.get("not_before_wall", 0.0))
            cell.not_before = self._clock() + max(0.0, cell.not_before_wall - self._wall())
        elif op == "quarantine":
            state = FAILED
            cell.failures = record.get("attempts", cell.failures + 1)
            self.failures.append(
                CellFailure(
                    index=record.get("index", 0),
                    label=record.get("label", ""),
                    kind=record.get("kind", "error"),
                    message=record.get("message", ""),
                    attempts=cell.failures,
                    key=key,
                )
            )
        else:
            raise ValueError(f"unknown cell transition {op!r}")
        if state == LEASED:
            self.leased[key] = cell
        else:
            cell.lease_id = cell.worker = None
            self.leased.pop(key, None)
        self.counts[cell.state] -= 1
        self.counts[state] += 1
        cell.state = state
        self._pending.pop(key, None)
        if state == PENDING:
            self._pending[key] = cell  # requeued cells go to the back
        return cell
