"""Parallel, resumable execution of cell lists.

The full 20x9x9x2 grid of Figure 8 is thousands of independent
simulations; this module fans them out over worker processes.  Each task
is a self-contained :class:`~repro.experiments.runner.GridTask` cell of
any kind (standalone, competitive, collaborative or gpu_pair), and each
worker process builds one Runner in its initializer and runs every task
it gets through :meth:`Runner.run`, so nothing unpicklable crosses the
process boundary and standalone baselines are deduplicated across a
worker's whole task stream (not just within one task).

With ``store_dir`` set, every completed cell (and every standalone
baseline) is written through a content-addressed
:class:`repro.store.ResultStore` *as it finishes* — atomic rename, so a
crash or Ctrl-C loses at most the cells still in flight.  Re-invoking
the same grid then hits the store for completed cells and only simulates
the remainder; ``shard=(i, n)`` splits a grid across machines that share
(or later merge) a store; :func:`collect_from_store` reassembles the
full table without running anything.

Execution is fault tolerant (see ``docs/resilience.md``): worker pools
run under a :class:`repro.resilience.Supervisor` that survives worker
death (``BrokenProcessPool`` → respawn) and enforces per-cell wall-clock
timeouts; both the pool and the in-process loop keep their cells in a
:class:`~repro.resilience.cells.CellTable`, which retries a failed cell
after capped exponential backoff and after repeated failure quarantines
it to ``GridReport.failed_outcomes`` (journaled in the store) so one poisoned
config cannot abort a thousand-cell campaign — the sweep completes every
healthy cell and degrades gracefully.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.policies import PolicySpec
from repro.experiments.runner import (
    ExperimentScale,
    GridTask,
    Runner,
    cell_key,
    load_outcome,
    make_cell,
    outcome_value,
)
from repro.resilience import faults as fault_injection
from repro.resilience.cells import (
    PENDING,
    CellFailure,
    CellTable,
    RetryPolicy,
    classify_failure,
)
from repro.resilience.watchdog import Watchdog


def make_tasks(
    gpu_subset: Sequence[str],
    pim_subset: Sequence[str],
    policies: Sequence[PolicySpec],
    vc_configs: Sequence[int] = (1, 2),
) -> List[GridTask]:
    """The competitive grid, in the order ``repro sweep`` prints it."""
    return [
        make_cell("competitive", gpu_id, pim_id, policy, num_vcs)
        for num_vcs in vc_configs
        for policy in policies
        for gpu_id in gpu_subset
        for pim_id in pim_subset
    ]


def shard_indices(total: int, shard: Optional[Tuple[int, int]]) -> List[int]:
    """Round-robin assignment of task indices to one shard.

    ``shard=(i, n)`` selects indices ``j`` with ``j % n == i`` — the
    deterministic split, independent of execution order, that lets the
    merged table be reassembled in original task order.
    """
    if shard is None:
        return list(range(total))
    index, count = shard
    for name, value in (("index", index), ("count", count)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"shard {name} must be an integer (got {value!r})")
    if count < 1:
        raise ValueError(f"shard count must be >= 1 (got {count})")
    if not 0 <= index < count:
        raise ValueError(f"shard index must satisfy 0 <= index < {count} (got {index})")
    return [j for j in range(total) if j % count == index]


class SweepAborted(RuntimeError):
    """Raised by the cell-count abort hook (crash-resume testing)."""

    def __init__(self, completed: int) -> None:
        super().__init__(f"sweep aborted after {completed} cells")
        self.completed = completed


@dataclass
class GridReport:
    """Outcome of one (possibly sharded/resumed) grid invocation.

    ``outcomes`` is aligned with ``tasks``; entries not run by this
    invocation (other shards, quarantined cells) are ``None``.  ``hits``
    counts cells (and memoized repeats) satisfied without simulating;
    ``misses`` counts cells that ran.  ``failed_outcomes`` lists cells
    quarantined by the supervisor after exhausting their retries (or
    immediately, for deterministic config/stall failures);
    ``retry_events`` is the supervisor's retry/suspect history.
    """

    tasks: List[GridTask]
    outcomes: List[Optional[object]]
    hits: int = 0
    misses: int = 0
    counters: Optional[object] = None  # EngineCounters when collect_perf
    shard: Optional[Tuple[int, int]] = None
    failed_outcomes: List[CellFailure] = field(default_factory=list)
    retry_events: List[Dict] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome is not None)

    @property
    def failed(self) -> int:
        return len(self.failed_outcomes)

    def completed_outcomes(self) -> List[object]:
        return [outcome for outcome in self.outcomes if outcome is not None]


#: Per-process Runner, created once by :func:`_init_worker` and shared by
#: every task the worker executes (its in-memory caches deduplicate the
#: standalone baselines the tasks have in common).
_WORKER_RUNNER: Optional[Runner] = None


def _init_worker(
    scale_fields: Dict,
    perf_counters: bool = False,
    store_dir: Optional[str] = None,
    fresh: bool = False,
    fault_payload: Optional[Dict] = None,
    watchdog: Optional[int] = None,
) -> None:
    """Process-pool initializer: build this worker's Runner once."""
    global _WORKER_RUNNER
    store = None
    if store_dir is not None:
        from repro.store import ResultStore

        store = ResultStore(store_dir, read_enabled=not fresh)
    if fault_payload is not None:
        fault_injection.install(fault_injection.FaultPlan.from_payload(fault_payload))
    else:
        fault_injection.install(fault_injection.load_env())
    _WORKER_RUNNER = Runner(
        ExperimentScale(**scale_fields),
        perf_counters=perf_counters,
        store=store,
        watchdog_window=watchdog,
    )


def _apply_pre_fault(task: GridTask) -> None:
    """Trigger any injected fault scheduled for this cell (test-only).

    ``crash`` kills the worker process outright (exercising the
    supervisor's BrokenProcessPool path), ``hang`` sleeps past the cell
    timeout, ``error`` raises a retryable exception.  ``corrupt`` is
    applied *after* the run (see :func:`_apply_post_fault`).
    """
    plan = fault_injection.active()
    if plan is None:
        return
    kind = plan.claim(task.label, phase="pre")
    if kind == "crash":
        fault_injection.crash_worker()
    elif kind == "hang":
        time.sleep(plan.hang_seconds)
    elif kind == "error":
        raise fault_injection.FaultInjected(f"injected transient error at {task.label}")


def _apply_post_fault(task: GridTask) -> None:
    """Corrupt this cell's just-written store object, if so scheduled."""
    plan = fault_injection.active()
    if plan is None or _WORKER_RUNNER.store is None:
        return
    if plan.claim(task.label, phase="post") == "corrupt":
        key = cell_key(_WORKER_RUNNER.scale, task)
        fault_injection.corrupt_store_object(_WORKER_RUNNER.store, key)


def _run_cell(task: GridTask) -> Tuple[object, Optional[Dict], str]:
    """``(outcome, snapshot|None, how)`` of one cell on this process's Runner.

    The snapshot is the task's own engine wall-clock plus store hit/miss
    counts (the shared counter is reset before the run), and ``how`` is
    :meth:`Runner.run`'s ("memo"/"hit"/"miss").
    """
    _apply_pre_fault(task)
    perf = _WORKER_RUNNER.perf
    if perf is not None:
        perf.reset()
    outcome, how = _WORKER_RUNNER.run(task)
    _apply_post_fault(task)
    return outcome, perf.snapshot() if perf is not None else None, how


def _run_task(task: GridTask) -> Dict:
    """Pool worker entry point (module-level for pickling): :func:`_run_cell`
    as ``{"outcome": value, "perf": snapshot, "store": how}``, where
    ``value`` is the outcome's store document value."""
    outcome, perf, how = _run_cell(task)
    return {"outcome": outcome_value(outcome), "perf": perf, "store": how}


def run_sweep(
    scale: ExperimentScale,
    tasks: Sequence[GridTask],
    max_workers: int = 1,
    collect_perf: bool = False,
    store_dir: Optional[str] = None,
    fresh: bool = False,
    shard: Optional[Tuple[int, int]] = None,
    abort_after: Optional[int] = None,
    cell_timeout: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[fault_injection.FaultPlan] = None,
    watchdog: Optional[int] = None,
    status_interval: float = 1.0,
) -> GridReport:
    """Run a (resumable, shardable) grid sweep over ``tasks``.

    The one sweep entry point: the CLI, the sensitivity sweeps and the
    benchmark all call it.  With ``max_workers > 1`` (or a cell timeout,
    or a fault plan) cells run in a supervised process pool; otherwise
    they run in this process.  With ``collect_perf=True`` every cell
    times its engine stages and ``GridReport.counters`` merges them.

    Completed cells stream into the store as they finish, so aborting —
    via Ctrl-C, a crash, or the ``abort_after`` cell-count hook (which
    raises :class:`SweepAborted` after N cells, simulating a kill) —
    never loses finished work.  ``shard=(i, n)`` runs only every n-th
    task starting at i; merged results for the full grid come from
    :func:`collect_from_store`.

    Failure handling (see ``docs/resilience.md``): worker crashes,
    per-cell wall-clock timeouts (``cell_timeout`` seconds) and
    worker-raised exceptions are retried per ``retry`` by the cell
    table (:meth:`CellTable.fail`); cells that keep failing — or fail
    deterministically (config ``ValueError``, ``SimulationStalled``) —
    are quarantined into ``GridReport.failed_outcomes`` (journaled in
    the store when ``store_dir`` is set) and the sweep completes every
    healthy cell.  ``watchdog`` arms the in-engine stall detector with
    the given cycle window (a bad window raises ``ValueError`` before
    any cell runs); ``faults`` installs a test-only
    :class:`~repro.resilience.faults.FaultPlan` in every worker (also
    loadable via the ``REPRO_FAULTS`` environment variable).

    With ``store_dir`` set the run also heartbeats: a
    :class:`repro.obs.status.StatusPublisher` keeps an atomically
    replaced ``status.json`` in the store root (throttled to
    ``status_interval`` seconds between writes; see
    ``docs/observability.md`` for the schema), and a final
    ``sweep_summary`` event is always journaled — even when every cell
    was a warm cache hit, so a 100%-hit ``--resume`` still leaves a
    visible record instead of an empty campaign.  The heartbeat is
    observational only: armed runs compute bit-identical results and
    store fingerprints to unarmed runs.
    """
    if max_workers < 1:
        raise ValueError(f"max_workers must be positive (got {max_workers})")
    if watchdog is not None:
        Watchdog(watchdog)  # the watchdog's own window check
    retry = retry or RetryPolicy()
    if faults is None:
        faults = fault_injection.load_env()
    tasks = list(tasks)
    selected = shard_indices(len(tasks), shard)
    subset = [tasks[j] for j in selected]
    global _WORKER_RUNNER
    scale_fields = asdict(scale)
    fault_payload = faults.to_payload() if faults is not None else None
    init_args = (
        scale_fields,
        collect_perf,
        store_dir,
        fresh,
        fault_payload,
        watchdog,
    )

    report = GridReport(
        tasks=tasks, outcomes=[None] * len(tasks), shard=shard
    )
    if collect_perf:
        from repro.perf.counters import EngineCounters

        report.counters = EngineCounters()

    journal_store = None
    publisher = None
    if store_dir is not None:
        from repro.obs.metrics import get_registry
        from repro.obs.status import StatusPublisher
        from repro.store import ResultStore

        journal_store = ResultStore(store_dir)
        publisher = StatusPublisher(
            store_dir,
            total_cells=len(subset),
            shard=shard,
            max_workers=max_workers,
            interval=status_interval,
            registry=get_registry(),
        )

    def quarantine(failure: CellFailure) -> None:
        # Rebase the subset-relative index onto the full task list and
        # record the poisoned cell next to the puts of the cells that
        # did complete.
        failure.index = selected[failure.index]
        report.failed_outcomes.append(failure)
        if journal_store is not None:
            journal_store.log_event("quarantine", **failure.to_dict())
        if publisher is not None:
            publisher.record_quarantine(failure.to_dict())

    def completed_cell(position: int, outcome: object, perf: Optional[Dict], how: str) -> None:
        nonlocal completed
        report.outcomes[selected[position]] = outcome
        hit = how != "miss"
        if hit:
            report.hits += 1
        else:
            report.misses += 1
        if report.counters is not None and perf:
            report.counters.merge_snapshot(perf)
        if publisher is not None:
            publisher.record_completion(hit=hit)
        completed += 1
        if abort_after is not None and completed >= abort_after:
            raise SweepAborted(completed)

    def finalize(state: str) -> None:
        """Publish the final heartbeat and journal the run's summary line.

        Runs unconditionally at the end of the invocation (``complete``
        or ``aborted``), so even a sweep whose every cell was a warm
        cache hit — which journals no ``put`` lines — leaves a visible
        account of what happened.
        """
        if publisher is not None:
            publisher.finish(state)
        if journal_store is not None:
            journal_store.log_event(
                "sweep_summary",
                state=state,
                total=len(subset),
                completed=report.completed,
                hits=report.hits,
                misses=report.misses,
                failed=report.failed,
                shard=list(shard) if shard is not None else None,
            )

    # Each retry reaches status.json from the cell table as it happens.
    record_retry = publisher.record_retry if publisher is not None else None
    completed = 0
    # Crash/hang faults must never run in the coordinating process, so
    # any installed fault plan forces the supervised pool path even at
    # max_workers=1 (so does a cell timeout, which needs a killable
    # worker to enforce).
    use_pool = max_workers > 1 or cell_timeout is not None or faults is not None
    try:
        if not use_pool:
            _init_worker(*init_args)
            cells = CellTable(retry, on_retry=record_retry, on_quarantine=quarantine)
            try:
                for position, task in enumerate(subset):
                    cell = cells.add(position, task.label, index=position)
                    while cell.state == PENDING:
                        cells.lease(position)
                        try:
                            outcome, perf, how = _run_cell(task)
                        except Exception as exc:
                            event = cells.fail(
                                position,
                                classify_failure(exc),
                                str(exc),
                                getattr(exc, "diagnostic", None),
                            )
                            if event is not None:
                                report.retry_events.append(event)
                                time.sleep(event["delay"])
                            continue
                        cells.complete(position)
                        completed_cell(position, outcome, perf, how)
            finally:
                _WORKER_RUNNER = None
        else:
            from repro.resilience.supervisor import Supervisor

            def shipped(position: int, record: Dict) -> None:
                outcome = load_outcome(subset[position].kind, record["outcome"])
                completed_cell(position, outcome, record["perf"], record["store"])

            supervisor = Supervisor(
                _run_task,
                max_workers=max_workers,
                initializer=_init_worker,
                initargs=init_args,
                cell_timeout=cell_timeout,
                retry=retry,
                labeler=lambda task: task.label,
            )
            supervisor.on_quarantine = quarantine
            supervisor.on_retry = record_retry
            if publisher is not None:
                supervisor.on_heartbeat = publisher.record_in_flight
            supervisor.run(subset, shipped)
            report.retry_events.extend(supervisor.events)
    except BaseException:
        finalize("aborted")
        raise
    finalize("complete")
    return report


def collect_from_store(
    scale: ExperimentScale, tasks: Sequence[GridTask], store_dir: str
) -> List[object]:
    """Reassemble a full grid from the store, in task order, running nothing.

    Raises ``KeyError`` naming the missing cells if any shard has not
    completed — merging a partial grid silently would produce a table
    that *looks* final but is not.
    """
    from repro.store import ResultStore

    store = ResultStore(store_dir)
    outcomes: List[object] = []
    missing: List[str] = []
    for task in tasks:
        value = store.get(cell_key(scale, task), kind=task.kind)
        if value is None:
            missing.append(task.label)
        else:
            outcomes.append(load_outcome(task.kind, value))
    if missing:
        raise KeyError(
            f"{len(missing)} of {len(tasks)} cells missing from {store_dir}: "
            + ", ".join(missing[:5])
            + ("..." if len(missing) > 5 else "")
        )
    return outcomes
