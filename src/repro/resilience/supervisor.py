"""Supervised worker processes: crash/timeout tolerant fan-out with retries.

:class:`Supervisor` runs up to ``max_workers`` worker processes, and each
holds at most one cell at a time, so every failure has exactly one owner.
Each cell's state, failure count and backoff live in a
:class:`~repro.resilience.cells.CellTable`, the lifecycle the serial
sweep loop and the fabric coordinator share (``docs/resilience.md``).
What is the Supervisor's own:

* **Crash attribution.**  A worker that dies blames the cell it held as
  ``crash``; only that worker is replaced.
* **Timeouts.**  Each cell's lease carries a deadline ``cell_timeout``
  out, kept by the cell table.  An overdue cell is blamed as ``timeout``,
  and the worker holding it is killed and replaced.

Cells on the other workers keep running: a failure never releases or
re-runs a neighbour.  A blamed cell is retried after backoff or
quarantined by :meth:`CellTable.fail <repro.resilience.cells.CellTable.fail>`.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing.connection import wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.resilience.cells import Cell, CellFailure, CellTable, RetryPolicy, classify_failure

__all__ = ["CellFailure", "RetryPolicy", "Supervisor", "classify_failure"]


def _serve(conn, worker_fn: Callable, initializer: Optional[Callable], initargs: Tuple) -> None:
    """A worker process: run the initializer once, then one cell per message
    until ``None`` or end of file, replying ``(ok, result or exception)``."""
    if initializer is not None:
        initializer(*initargs)
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        try:
            reply = (True, worker_fn(task))
        except Exception as exc:
            reply = (False, exc)
        try:
            conn.send(reply)
        except Exception as exc:  # the reply does not pickle; nothing was sent
            conn.send((False, RuntimeError(f"cell reply does not pickle: {exc}")))


class _Worker:
    """One worker process, the parent's end of its pipe, and the cell it holds."""

    __slots__ = ("process", "conn", "cell")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.cell: Optional[Cell] = None


class Supervisor:
    """Run ``worker_fn`` over items with crash/timeout/retry supervision.

    ``on_result(index, result)`` is invoked in completion order; it may
    raise (e.g. ``SweepAborted``) to abort — every worker is stopped (a
    busy one killed) and joined, and the exception propagates.  After
    :meth:`run` returns, ``failures`` lists quarantined cells and
    ``events`` the retry history.
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
        if cell_timeout is not None and not cell_timeout > 0:  # also refuses nan
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

    def _retried(self, event: Dict) -> None:
        self.events.append(event)
        if self.on_retry is not None:
            self.on_retry(event)

    # -- worker lifecycle --------------------------------------------------

    def _start(self) -> _Worker:
        conn, child = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_serve, args=(child, self.worker_fn, self.initializer, self.initargs)
        )
        process.start()
        child.close()
        return _Worker(process, conn)

    @staticmethod
    def _stop(worker: _Worker) -> None:
        """Ask an idle worker to exit, or kill a busy one; then join it."""
        if worker.cell is None:
            try:
                worker.conn.send(None)
            except OSError:  # already dead
                pass
        else:
            worker.process.kill()
        worker.process.join()
        worker.process.close()
        worker.conn.close()

    def _lose(self, worker: _Worker, workers: List[_Worker], kind: str, message: str) -> None:
        """The worker died or overran its cell: kill and join it, and blame
        the cell it held (the next cell for that slot starts a new one)."""
        workers.remove(worker)
        self._stop(worker)
        self.table.fail(worker.cell.key, kind, message)

    def _reply(self, worker: _Worker, workers: List[_Worker], on_result: Callable) -> None:
        """Read the held cell's ``(ok, value)`` reply and apply it."""
        try:
            ok, value = worker.conn.recv()
        except (EOFError, OSError):
            self._lose(worker, workers, "crash", "worker process died")
            return
        except Exception as exc:  # a reply that does not unpickle here
            ok, value = False, RuntimeError(f"cell reply does not unpickle: {exc}")
        cell, worker.cell = worker.cell, None
        if ok:
            self.table.complete(cell.key)
            on_result(cell.index, value)
        else:
            self.table.fail(
                cell.key, classify_failure(value), str(value), getattr(value, "diagnostic", None)
            )

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
        workers: List[_Worker] = []
        try:
            while not cells.settled():
                # Hand the next ready cell to each free slot, starting a
                # process for a slot that has none (or lost its own).
                while True:
                    free = next((w for w in workers if w.cell is None), None)
                    if free is None and len(workers) == self.max_workers:
                        break
                    cell = cells.next_ready()
                    if cell is None:
                        break
                    if free is None:
                        free = self._start()
                        workers.append(free)
                    cells.lease(cell.key, self.cell_timeout)
                    free.cell = cell
                    try:
                        free.conn.send(cell.task)
                    except OSError:  # the worker died while idle
                        self._lose(free, workers, "crash", "worker process died")
                busy = [w for w in workers if w.cell is not None]
                if not busy:
                    # Everything runnable is backing off; sleep to the
                    # earliest eligibility instead of spinning.
                    self._sleep(max(cells.wake() - self._clock(), self.tick * 0.1))
                    continue
                if self.on_heartbeat is not None:
                    self.on_heartbeat(cells.in_flight())
                handles = [w.conn for w in busy] + [w.process.sentinel for w in busy]
                ready = wait(handles, timeout=self.tick)
                for worker in busy:
                    if worker.conn in ready or worker.process.sentinel in ready:
                        self._reply(worker, workers, on_result)
                for cell in cells.overdue():
                    worker = next(w for w in workers if w.cell is cell)
                    message = f"cell exceeded {self.cell_timeout:g}s wall clock"
                    self._lose(worker, workers, "timeout", message)
        finally:
            # Normal end, abort (SweepAborted, Ctrl-C, ...) alike: no worker
            # outlives the run.
            for worker in workers:
                self._stop(worker)
