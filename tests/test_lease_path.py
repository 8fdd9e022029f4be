"""One lease path: transitions, worker calls and deadlines.

* Every ledger ``lease``, ``complete`` and ``readopt`` record has exactly
  one journal line with the same ``lease_id`` and the reverse holds, over
  a campaign with a kill, a restart and a re-adoption: the coordinator
  writes each transition through one function.
* A worker's ``/fail`` rejected ``stale-epoch`` after a coordinator
  restart is re-presented via ``/resume`` and sent again at the new
  epoch, like ``/complete``: a fatal cell is quarantined after one
  attempt, as in a local sweep, and its lease never expires.
* Lease deadlines and the in-flight view live in the cell table.
"""

import json
from collections import Counter

from repro.experiments import RetryPolicy
from repro.experiments.runner import Runner
from repro.fabric import FabricWorker, protocol
from repro.fabric import ledger as wal
from repro.resilience.cells import CellTable
from tests.fabric_harness import (
    CoordinatorThread,
    LeaseGate,
    journal,
    restart_coordinator,
    start_workers,
)
from tests.test_store_resume import TINY, tiny_tasks

#: The ledger ops that are journaled per lease, and their journal events.
LEASE_EVENTS = {
    wal.OP_LEASE: protocol.EV_LEASE,
    wal.OP_COMPLETE: protocol.EV_COMPLETE,
    wal.OP_READOPT: protocol.EV_READOPT,
}


def test_journal_and_ledger_agree_across_a_restart(tmp_path):
    store = tmp_path / "fab"
    gate = LeaseGate(hold=1)
    coord = CoordinatorThread(
        TINY, tiny_tasks(), store, ttl=3.0, tick=0.02,
        retry=RetryPolicy(retries=2, backoff_base=0.05),
    ).start()
    (worker,) = start_workers(
        coord.address,
        tmp_path,
        [
            {
                "worker_id": "survivor",
                "lease_hook": gate,
                "poll": 0.05,
                "max_connect_failures": 200,
            }
        ],
    )
    assert gate.held.wait(60), "no lease was parked in time"
    coord.kill()
    revived = restart_coordinator(coord)
    try:
        gate.release()
        revived.wait()
        worker.join()
    finally:
        revived.stop()

    records = [
        json.loads(line)
        for line in (store / wal.LEDGER_FILENAME).read_text().splitlines()
    ]
    ledger_side = Counter(
        (LEASE_EVENTS[r["op"]], r["lease_id"]) for r in records if r["op"] in LEASE_EVENTS
    )
    journal_side = Counter(
        (e["event"], e["lease_id"])
        for e in journal(store)
        if e["event"] in LEASE_EVENTS.values()
    )
    assert journal_side == ledger_side
    assert set(ledger_side.values()) == {1}
    assert protocol.EV_READOPT in {event for event, _ in ledger_side}


def test_fail_after_restart_is_resumed_not_dropped(tmp_path):
    """The coordinator is killed and restarted inside the lease hook, then
    the runner raises ``ValueError``: the worker's epoch-1 ``/fail`` is
    fenced, the lease is re-adopted, and the fail lands at epoch 2."""
    store = tmp_path / "s"
    coord = CoordinatorThread(
        TINY, tiny_tasks()[:1], store, ttl=30.0, tick=0.02, resume_grace=0.5,
        retry=RetryPolicy(retries=2, backoff_base=0.0),
    ).start()
    revived = []

    def restart_under_lease(worker, lease):
        if not revived:  # the first lease only
            coord.kill()
            revived.append(restart_coordinator(coord))

    class _Broken(Runner):
        def competitive(self, *args, **kwargs):
            raise ValueError("bad cell configuration")

    worker = FabricWorker(
        "w",
        coord.address,
        tmp_path / "scratch",
        poll=0.05,
        lease_hook=restart_under_lease,
        runner_factory=lambda scale, s: _Broken(scale, store=s),
    )
    try:
        summary = worker.run()
        revived[0].wait(timeout=10)
        failures = list(revived[0].coordinator.failures)
    finally:
        for thread in revived:
            thread.stop()
    assert summary["failed"] == 1 and summary["leases"] == 1
    assert summary["readopted"] == 1
    assert [(f["kind"], f["attempts"]) for f in failures] == [("config", 1)]
    events = Counter(e["event"] for e in journal(store))
    assert events[protocol.EV_EXPIRE] == 0
    assert events[protocol.EV_FAIL] == 1
    rejects = [e for e in journal(store) if e["event"] == protocol.EV_REJECT]
    assert [e["reason"] for e in rejects] == [protocol.REJECT_STALE_EPOCH]


def test_deadlines_and_in_flight_view():
    now = [0.0]
    table = CellTable(RetryPolicy(retries=1, backoff_base=0.0), clock=lambda: now[0])
    for key in "abc":
        table.add(key, f"cell-{key}")
    table.lease("a", 1.0)
    table.lease("b", worker="w1")  # no ttl: never overdue
    now[0] = 0.5
    table.lease("c", 1.0)
    assert table.in_flight() == [
        {"label": "cell-a", "attempts": 1, "seconds": 0.5},
        {"label": "cell-b", "attempts": 1, "seconds": 0.5, "worker": "w1"},
        {"label": "cell-c", "attempts": 1, "seconds": 0.0},
    ]
    now[0] = 1.0
    assert [cell.key for cell in table.overdue()] == ["a"]
    table.renew("a", 1.0)
    assert table.overdue() == []
    now[0] = 2.0
    assert [cell.key for cell in table.overdue()] == ["a", "c"]
    table.fail("a", "timeout", "overdue")
    table.complete("c")
    assert table.overdue() == [] and list(table.leased) == ["b"]
