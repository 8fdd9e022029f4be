"""One retry rule and one retry budget, whichever dispatcher runs a cell.

Three cells fail three ways — a transient error once, a transient error
every time, and a deterministic ``ValueError`` — and run through the
in-process sweep loop, the pooled :class:`~repro.resilience.Supervisor`
and a fabric campaign (coordinator + one worker).  Every dispatcher
applies :meth:`~repro.resilience.RetryPolicy.next_retry` and owns the
cell's only retry budget, so all three must quarantine the same roster
(label, kind, attempts, message), execute each cell the same number of
times (2, ``retries + 1`` and 1) and back off by the same delays.
"""

import functools
import json
from pathlib import Path

import pytest

from repro.core.policies import PolicySpec
from repro.experiments import RetryPolicy, Runner, make_tasks, parallel, run_sweep
from repro.fabric import FabricWorker
from repro.fabric import ledger as wal
from repro.resilience import FaultInjected, Supervisor
from tests.fabric_harness import CoordinatorThread
from tests.test_store_resume import TINY

RETRY = RetryPolicy(retries=2, backoff_base=0.01)
TASKS = make_tasks(["G17"], ["P1", "P2", "P7"], [PolicySpec("FR-FCFS")], (1,))
ONCE, ALWAYS, CONFIG = (task.label for task in TASKS)

EXPECTED_RUNS = {ONCE: 2, ALWAYS: RETRY.retries + 1, CONFIG: 1}
EXPECTED_ROSTER = [
    (ALWAYS, "error", RETRY.retries + 1, f"transient failure of {ALWAYS}"),
    (CONFIG, "config", 1, f"bad configuration for {CONFIG}"),
]
EXPECTED_DELAYS = sorted(
    (label, attempt, round(RETRY.delay(label, attempt), 4))
    for label, attempts in ((ONCE, 1), (ALWAYS, RETRY.retries))
    for attempt in range(1, attempts + 1)
)


def _execute(log_dir: str, label: str) -> str:
    """One execution of a scripted cell: log it, then fail per its script.

    The log is a file per cell, so executions in pool worker processes
    are counted too.
    """
    path = Path(log_dir) / label.replace("|", "_")
    with path.open("a") as fh:
        fh.write("run\n")
    runs = len(path.read_text().splitlines())
    if label == CONFIG:
        raise ValueError(f"bad configuration for {label}")
    if label == ALWAYS or runs == 1:
        raise FaultInjected(f"transient failure of {label}")
    return label


def scripted_runner(log_dir: Path):
    """A Runner whose cells first go through :func:`_execute`."""

    class ScriptedRunner(Runner):
        def competitive(self, gpu_id, pim_id, policy, num_vcs=1):
            _execute(str(log_dir), f"{gpu_id}|{pim_id}|{policy.name}|vc{num_vcs}")
            return super().competitive(gpu_id, pim_id, policy, num_vcs=num_vcs)

    return ScriptedRunner


def runs(log_dir: Path):
    return {
        task.label: len((log_dir / task.label.replace("|", "_")).read_text().splitlines())
        for task in TASKS
    }


def roster(failures):
    return sorted((f["label"], f["kind"], f["attempts"], f["message"]) for f in failures)


def delays(events):
    return sorted(
        (e["label"], e["attempt"], e["delay"]) for e in events if e["kind"] == "retry"
    )


def serial_sweep(tmp_path, monkeypatch):
    log_dir = tmp_path / "runs"
    log_dir.mkdir()
    monkeypatch.setattr(parallel, "Runner", scripted_runner(log_dir))
    report = run_sweep(TINY, TASKS, retry=RETRY)
    assert report.completed == 1
    failures = [f.to_dict() for f in report.failed_outcomes]
    return runs(log_dir), roster(failures), delays(report.retry_events)


def pooled_supervisor(tmp_path, monkeypatch):
    log_dir = tmp_path / "runs"
    log_dir.mkdir()
    supervisor = Supervisor(
        functools.partial(_execute, str(log_dir)), max_workers=2, retry=RETRY, tick=0.02
    )
    results = {}
    supervisor.run([task.label for task in TASKS], results.__setitem__)
    assert list(results.values()) == [ONCE]
    failures = [f.to_dict() for f in supervisor.failures]
    return runs(log_dir), roster(failures), delays(supervisor.events)


def fabric_campaign(tmp_path, monkeypatch):
    log_dir = tmp_path / "runs"
    log_dir.mkdir()
    wall = 1000.0  # a fixed wall clock: each ledger retry deadline is wall + delay
    with CoordinatorThread(
        TINY, TASKS, tmp_path / "s", ttl=30.0, tick=0.02, retry=RETRY,
        wall_clock=lambda: wall,
    ) as coord:
        worker = FabricWorker(
            "w",
            coord.address,
            tmp_path / "scratch",
            poll=0.02,
            runner_factory=lambda scale, store: scripted_runner(log_dir)(scale, store=store),
        )
        worker.run()
        coord.wait(timeout=60)
        coordinator = coord.coordinator
        labels = {group.key: group.task.label for group in coordinator.cells}
        summary = coordinator.summary()
        failures = list(coordinator.failures)
    assert summary["completed"] == 1
    retries = []
    for line in (tmp_path / "s" / wal.LEDGER_FILENAME).read_text().splitlines():
        record = json.loads(line)
        if record["op"] == wal.OP_RETRY:
            retries.append(
                {
                    "kind": "retry",
                    "label": labels[record["key"]],
                    "attempt": record["attempts"],
                    "delay": round(record["not_before_wall"] - wall, 4),
                }
            )
    return runs(log_dir), roster(failures), delays(retries)


@pytest.mark.parametrize(
    "dispatch",
    [serial_sweep, pooled_supervisor, fabric_campaign],
    ids=["serial", "supervisor", "fabric"],
)
def test_same_roster_executions_and_delays(tmp_path, monkeypatch, dispatch):
    executions, quarantined, backoffs = dispatch(tmp_path, monkeypatch)
    assert executions == EXPECTED_RUNS
    assert quarantined == EXPECTED_ROSTER
    assert backoffs == EXPECTED_DELAYS
