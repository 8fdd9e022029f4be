"""Supervised worker pool: crash/timeout tolerant fan-out with retries.

``ProcessPoolExecutor`` alone is brittle for thousand-cell sweeps: one
segfaulting worker raises ``BrokenProcessPool`` and aborts the whole
grid, and a hung cell stalls it forever.  :class:`Supervisor` runs the
pool; each cell's state, failure count and backoff live in a
:class:`~repro.resilience.cells.CellTable`, the lifecycle the serial
sweep loop and the fabric coordinator share (``docs/resilience.md``).
What is the Supervisor's own:

* **Crash recovery.**  When the pool breaks, the dead executor is torn
  down and a fresh one spawned.  A crash with one cell in flight is
  attributed to that cell; with several in flight it cannot be (every
  future sees the same ``BrokenProcessPool``), so the whole cohort is
  released *without blame* and marked suspect, and suspects re-run one
  at a time — where a repeat crash identifies the guilty cell exactly.
  Innocent bystanders never accumulate failure attempts.  A pool that
  breaks between a wait and the next submission refuses the submit;
  that counts as the same crash, with the refused cell in the cohort.
* **Timeouts.**  Each submitted cell's lease carries a deadline
  ``cell_timeout`` out, kept by the cell table (submission is capped at
  pool width, so a submitted cell is a running cell).  An overdue cell is
  blamed, the pool is killed and respawned, and unexpired cells are
  released without blame.

A blamed cell is retried after backoff or quarantined by
:meth:`CellTable.fail <repro.resilience.cells.CellTable.fail>`.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.resilience.cells import Cell, CellFailure, CellTable, RetryPolicy, classify_failure

__all__ = ["CellFailure", "RetryPolicy", "Supervisor", "classify_failure"]


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
        self.table = CellTable(self.retry, clock=clock)
        self.events: List[Dict] = []
        self.respawns = 0
        self._suspects: Set[int] = set()  # cells marked suspect and not yet resolved
        self.on_quarantine: Optional[Callable[[CellFailure], None]] = None
        #: Called with each retry event as the cell table schedules it.
        self.on_retry: Optional[Callable[[Dict], None]] = None
        #: Liveness hook: called once per scheduler tick with a snapshot
        #: of the in-flight cells — ``[{"label", "attempts", "seconds"}]``
        #: (seconds = wall clock since submission).  Feeds the sweep
        #: heartbeat's per-worker view; throttling is the consumer's job.
        self.on_heartbeat: Optional[Callable[[List[Dict]], None]] = None

    @property
    def failures(self) -> List[CellFailure]:
        """Quarantined cells, in quarantine order."""
        return self.table.failures

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

    def _retried(self, event: Dict) -> None:
        self.events.append(event)
        if self.on_retry is not None:
            self.on_retry(event)

    def _blame(self, cell: Cell, kind: str, message: str, diagnostic=None) -> None:
        """One failed attempt: the cell table retries or quarantines it."""
        self._suspects.discard(cell.key)
        self.table.fail(cell.key, kind, message, diagnostic)

    def _crashed(self, cohort: List[Cell]) -> None:
        """A broken pool took ``cohort`` down: blame a lone cell, or release
        a larger cohort unblamed as suspects, to be isolated one by one."""
        if len(cohort) == 1:
            self._blame(cohort[0], "crash", "worker process died")
            return
        for cell in cohort:
            self.table.release(cell.key)
            self._suspects.add(cell.key)
            self.events.append({"kind": "suspect", "label": cell.label, "failure": "crash"})

    # -- scheduling --------------------------------------------------------

    def run(self, items: Sequence, on_result: Callable[[int, object], None]) -> None:
        cells = self.table = CellTable(
            self.retry,
            clock=self._clock,
            on_retry=self._retried,
            on_quarantine=self.on_quarantine,
        )
        for i, item in enumerate(items):
            cells.add(i, self.labeler(item), index=i, task=item)
        in_flight: Dict[object, Cell] = {}
        pool: Optional[_PoolHandle] = None
        self._suspects = set()
        try:
            while not cells.settled():
                # While any cell is suspect, run one cell at a time so a
                # repeat crash is attributable (see _crashed).
                window = 1 if self._suspects else self.max_workers
                refused: List[Cell] = []
                while len(in_flight) < window:
                    cell = cells.next_ready(self._suspects or None)
                    if cell is None:
                        break
                    if pool is None:
                        pool = self._spawn()
                    cells.lease(cell.key, self.cell_timeout)
                    try:
                        future = pool.executor.submit(self.worker_fn, cell.task)
                    except BrokenExecutor:
                        # The pool broke since the last wait: a crash of
                        # everything in flight and of the cell just leased.
                        refused = [*in_flight.values(), cell]
                        break
                    in_flight[future] = cell
                if refused:
                    in_flight.clear()
                    self._crashed(refused)
                    self._teardown(pool, kill=True)
                    pool = None
                    continue
                if not in_flight:
                    # Everything runnable is backing off; sleep to the
                    # earliest eligibility instead of spinning.
                    self._sleep(max(cells.wake() - self._clock(), self.tick * 0.1))
                    continue
                if self.on_heartbeat is not None:
                    self.on_heartbeat(cells.in_flight())
                done, _ = wait(list(in_flight), timeout=self.tick, return_when=FIRST_COMPLETED)
                crashed: List[Cell] = []
                for future in done:
                    cell = in_flight.pop(future)
                    try:
                        result = future.result()
                    except BrokenExecutor:
                        crashed.append(cell)
                    except Exception as exc:  # worker-raised, pool still healthy
                        self._blame(
                            cell,
                            classify_failure(exc),
                            str(exc),
                            diagnostic=getattr(exc, "diagnostic", None),
                        )
                    else:
                        self._suspects.discard(cell.key)
                        cells.complete(cell.key)
                        on_result(cell.index, result)
                if crashed:
                    # The break dooms everything still in flight too.
                    crashed.extend(in_flight.values())
                    in_flight.clear()
                    self._crashed(crashed)
                    self._teardown(pool, kill=True)
                    pool = None
                elif overdue := cells.overdue():
                    for cell in overdue:
                        self._blame(
                            cell, "timeout", f"cell exceeded {self.cell_timeout:g}s wall clock"
                        )
                    # Unexpired cells die with the pool through no fault
                    # of their own: release them without blame.
                    for key in list(cells.leased):
                        cells.release(key)
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
