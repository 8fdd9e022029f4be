"""Supervised worker pool: crash/timeout tolerant fan-out with retries.

``ProcessPoolExecutor`` alone is brittle for thousand-cell sweeps: one
segfaulting worker raises ``BrokenProcessPool`` and aborts the whole
grid, and a hung cell stalls it forever.  :class:`Supervisor` wraps the
pool with the state machine described in ``docs/resilience.md``:

* **Crash recovery.**  When the pool breaks, the dead executor is torn
  down and a fresh one spawned.  A crash with one cell in flight is
  attributed to that cell; with several in flight it cannot be (every
  future sees the same ``BrokenProcessPool``), so the whole cohort is
  requeued *without blame* and marked suspect, and suspects re-run one
  at a time — where a repeat crash identifies the guilty cell exactly.
  Innocent bystanders never accumulate failure attempts.
* **Timeouts.**  Each submitted cell carries a wall-clock deadline
  (submission is capped at pool width, so a submitted cell is a running
  cell).  An expired cell is blamed, the pool is killed and respawned,
  and unexpired cells are requeued without blame.
* **Retry with backoff, or quarantine.**  Every blamed cell goes through
  :meth:`RetryPolicy.next_retry`, the one retry rule the serial sweep
  loop and the fabric coordinator apply too: it re-enters the queue
  after a capped exponential backoff with deterministic jitter (same
  label + attempt, same delay, so faulty sweeps replay identically)
  or — after ``retries`` failed re-attempts, or at once for
  deterministic failures (config ``ValueError``,
  :class:`~repro.resilience.watchdog.SimulationStalled`) — it is
  poisoned: recorded as a :class:`CellFailure`, skipped, and the sweep
  completes every healthy cell (graceful degradation).
"""

from __future__ import annotations

import time
import zlib
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.resilience.watchdog import SimulationStalled


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
        if self.backoff_base < 0:
            raise ValueError(f"RetryPolicy.backoff_base must be >= 0 (got {self.backoff_base})")
        if self.backoff_cap < self.backoff_base:
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
        """The retry rule every dispatcher applies to a failed attempt.

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

    index: int  # position in the supervisor's item sequence
    label: str
    kind: str  # "crash" | "timeout" | "error" | "stall" | "config"
    message: str
    attempts: int
    diagnostic: Optional[Dict] = None  # SimulationStalled dump, if any

    def to_dict(self) -> Dict:
        return {
            "index": self.index,
            "label": self.label,
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
        }


#: Failure kinds that quarantine without retry (deterministic failures).
FATAL_KINDS = ("stall", "config")


def classify_failure(exc: BaseException) -> str:
    """Failure kind for a worker-raised exception."""
    if isinstance(exc, SimulationStalled):
        return "stall"
    if isinstance(exc, ValueError):
        return "config"
    return "error"


@dataclass
class _Cell:
    index: int
    item: object
    label: str
    attempts: int = 0
    not_before: float = 0.0
    started: float = 0.0
    suspect: bool = False


class _PoolHandle:
    """An executor plus the ability to kill its workers outright."""

    def __init__(self, executor: ProcessPoolExecutor) -> None:
        self.executor = executor

    def kill_workers(self) -> None:
        """Kill worker processes so shutdown cannot block on a hung cell."""
        for process in list(getattr(self.executor, "_processes", {}).values()):
            try:
                process.kill()
            except OSError:  # pragma: no cover - already reaped
                pass

    def shutdown(self, kill: bool = False) -> None:
        if kill:
            self.kill_workers()
        self.executor.shutdown(wait=True, cancel_futures=True)


class Supervisor:
    """Run ``worker_fn`` over items with crash/timeout/retry supervision.

    ``on_result(index, result)`` is invoked in completion order; it may
    raise (e.g. ``SweepAborted``) to abort — the pool is torn down (any
    hung workers killed) and the exception propagates.  After
    :meth:`run` returns, ``failures`` lists quarantined cells and
    ``events`` the retry/suspect history.
    """

    def __init__(
        self,
        worker_fn: Callable,
        *,
        max_workers: int = 1,
        initializer: Optional[Callable] = None,
        initargs: Tuple = (),
        cell_timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        labeler: Callable[[object], str] = str,
        tick: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be positive (got {max_workers})")
        if cell_timeout is not None and cell_timeout <= 0:
            raise ValueError(f"cell_timeout must be positive (got {cell_timeout})")
        self.worker_fn = worker_fn
        self.max_workers = max_workers
        self.initializer = initializer
        self.initargs = initargs
        self.cell_timeout = cell_timeout
        self.retry = retry or RetryPolicy()
        self.labeler = labeler
        self.tick = tick
        self._clock = clock
        self._sleep = sleep
        self.failures: List[CellFailure] = []
        self.events: List[Dict] = []
        self.respawns = 0
        self._suspects = 0  # cells marked suspect and not yet resolved
        self.on_quarantine: Optional[Callable[[CellFailure], None]] = None
        #: Liveness hook: called once per scheduler tick with a snapshot
        #: of the in-flight cells — ``[{"label", "attempts", "seconds"}]``
        #: (seconds = wall clock since submission).  Feeds the sweep
        #: heartbeat's per-worker view; throttling is the consumer's job.
        self.on_heartbeat: Optional[Callable[[List[Dict]], None]] = None

    # -- pool lifecycle ----------------------------------------------------

    def _spawn(self) -> _PoolHandle:
        return _PoolHandle(
            ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=self.initializer,
                initargs=self.initargs,
            )
        )

    def _teardown(self, pool: Optional[_PoolHandle], kill: bool) -> None:
        if pool is not None:
            pool.shutdown(kill=kill)
            self.respawns += 1

    # -- failure bookkeeping ----------------------------------------------

    def _quarantine(self, cell: _Cell, kind: str, message: str, diagnostic=None) -> None:
        failure = CellFailure(
            index=cell.index,
            label=cell.label,
            kind=kind,
            message=message,
            attempts=cell.attempts,
            diagnostic=diagnostic,
        )
        self.failures.append(failure)
        if self.on_quarantine is not None:
            self.on_quarantine(failure)

    def _blame(self, pending: deque, cell: _Cell, kind: str, message: str, diagnostic=None) -> None:
        """One failure attempt for ``cell``: retry with backoff or quarantine."""
        self._resolve(cell)
        cell.attempts += 1
        event = self.retry.next_retry(cell.label, cell.attempts, kind, message)
        if event is None:
            self._quarantine(cell, kind, message, diagnostic)
            return
        cell.not_before = self._clock() + event["delay"]
        pending.append(cell)
        self.events.append(event)

    def _resolve(self, cell: _Cell) -> None:
        """``cell`` finished or was blamed: it is no longer a suspect."""
        if cell.suspect:
            cell.suspect = False
            self._suspects -= 1

    def _mark_suspects(self, pending: deque, cells: List[_Cell]) -> None:
        """Requeue an unattributable crash cohort, unblamed, for isolation."""
        for cell in cells:
            cell.not_before = 0.0
            cell.suspect = True
            self._suspects += 1
            pending.appendleft(cell)
            self.events.append({"kind": "suspect", "label": cell.label, "failure": "crash"})

    # -- scheduling --------------------------------------------------------

    @staticmethod
    def _pop_eligible(pending: deque, now: float, isolate: bool) -> Optional[_Cell]:
        """Next runnable cell; only suspects are runnable in isolate mode."""
        for _ in range(len(pending)):
            cell = pending.popleft()
            if (not isolate or cell.suspect) and cell.not_before <= now:
                return cell
            pending.append(cell)
        return None

    def run(self, items: Sequence, on_result: Callable[[int, object], None]) -> None:
        pending: deque = deque(
            _Cell(index=i, item=item, label=self.labeler(item))
            for i, item in enumerate(items)
        )
        in_flight: Dict[object, _Cell] = {}
        pool: Optional[_PoolHandle] = None
        self._suspects = 0
        try:
            while pending or in_flight:
                # While any cell is suspect, run one cell at a time so a
                # repeat crash is attributable (see _mark_suspects).
                isolate = self._suspects > 0
                window = 1 if isolate else self.max_workers
                now = self._clock()
                while pending and len(in_flight) < window:
                    cell = self._pop_eligible(pending, now, isolate)
                    if cell is None:
                        break
                    if pool is None:
                        pool = self._spawn()
                    cell.started = self._clock()
                    in_flight[pool.executor.submit(self.worker_fn, cell.item)] = cell
                if not in_flight:
                    # Everything runnable is backing off; sleep to the
                    # earliest eligibility instead of spinning.
                    wake = min(cell.not_before for cell in pending)
                    self._sleep(max(wake - self._clock(), self.tick * 0.1))
                    continue
                if self.on_heartbeat is not None:
                    now = self._clock()
                    self.on_heartbeat(
                        [
                            {
                                "label": cell.label,
                                "attempts": cell.attempts,
                                "seconds": round(now - cell.started, 3),
                            }
                            for cell in in_flight.values()
                        ]
                    )
                done, _ = wait(list(in_flight), timeout=self.tick, return_when=FIRST_COMPLETED)
                crashed: List[_Cell] = []
                for future in done:
                    cell = in_flight.pop(future)
                    try:
                        result = future.result()
                    except BrokenExecutor:
                        crashed.append(cell)
                    except Exception as exc:  # worker-raised, pool still healthy
                        self._blame(
                            pending,
                            cell,
                            classify_failure(exc),
                            str(exc),
                            diagnostic=getattr(exc, "diagnostic", None),
                        )
                    else:
                        self._resolve(cell)
                        on_result(cell.index, result)
                if crashed:
                    # The break dooms everything still in flight too.
                    crashed.extend(in_flight.values())
                    in_flight.clear()
                    if len(crashed) == 1:
                        self._blame(pending, crashed[0], "crash", "worker process died")
                    else:
                        self._mark_suspects(pending, crashed)
                    self._teardown(pool, kill=True)
                    pool = None
                elif self.cell_timeout is not None and in_flight:
                    now = self._clock()
                    expired = [
                        (future, cell)
                        for future, cell in in_flight.items()
                        if now - cell.started > self.cell_timeout
                    ]
                    if expired:
                        for future, cell in expired:
                            del in_flight[future]
                            self._blame(
                                pending,
                                cell,
                                "timeout",
                                f"cell exceeded {self.cell_timeout:g}s wall clock",
                            )
                        # Unexpired cells die with the pool through no
                        # fault of their own: requeue without blame.
                        for cell in in_flight.values():
                            cell.not_before = 0.0
                            pending.appendleft(cell)
                        in_flight.clear()
                        self._teardown(pool, kill=True)
                        pool = None
        except BaseException:
            # Abort (SweepAborted, Ctrl-C, ...): kill outstanding workers
            # so a hung cell cannot block the teardown, then re-raise.
            if pool is not None:
                pool.shutdown(kill=True)
                pool = None
            raise
        finally:
            if pool is not None:
                pool.shutdown(kill=bool(in_flight))
