"""The shared cell lifecycle: a live table and its ledger replay agree.

:class:`~repro.resilience.cells.CellTable` is the lifecycle the serial
sweep, the Supervisor and the fabric coordinator run cells through, and
``FabricLedger.replay`` rebuilds it from the records a live coordinator
wrote ahead.  The property test drives a live table through random
transition sequences under an injected clock, appending every record to
a real ledger, and checks that replay reconstructs the same table and
that no cell is ever leased more than ``retries + 1`` times.
"""

import json
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fabric import ledger as wal
from repro.fabric.ledger import FabricLedger
from repro.resilience.cells import DONE, FAILED, LEASED, PENDING, CellTable, RetryPolicy

RETRY = RetryPolicy(retries=2, backoff_base=0.1)
KEYS = ("k0", "k1", "k2")
WALL = 50_000.0  # wall clock = WALL + the injected monotonic clock

#: (cell, what happens to it, whether the clock first advances past a backoff)
steps = st.lists(
    st.tuples(
        st.sampled_from(KEYS),
        st.sampled_from(["complete", "error", "expired", "config", "readopt", "hold", "restart"]),
        st.booleans(),
    ),
    max_size=60,
)


def snapshot(cell):
    return (cell.state, cell.attempts, cell.not_before_wall, cell.lease_id, cell.lease_epoch)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=steps)
def test_live_table_and_ledger_replay_agree(tmp_path_factory, steps):
    path = tmp_path_factory.mktemp("cells") / wal.LEDGER_FILENAME
    now = [0.0]
    epoch = [1]
    ledger = FabricLedger(path)
    ledger.replay()
    ledger.append(wal.OP_OPEN, epoch=1, code="c", cells=len(KEYS))
    live = CellTable(
        RETRY,
        clock=lambda: now[0],
        wall=lambda: WALL + now[0],
        write_ahead=lambda record: ledger.append(epoch=epoch[0], **record),
    )
    for index, key in enumerate(KEYS):
        live.add(key, f"cell-{key}", index)
    leases = Counter()
    for key, action, advance in steps:
        cell = live.cells[key]
        if advance:
            now[0] += 0.5
        if action == "restart":
            epoch[0] += 1
            ledger.append(wal.OP_OPEN, epoch=epoch[0], code="c", cells=len(KEYS))
            continue
        if cell.state == PENDING and cell.not_before <= now[0]:
            leases[key] += 1
            n = sum(leases.values())
            live.lease(key, lease_seq=n, lease_id=f"L{n}", worker="w")
        if cell.state != LEASED or action == "hold":
            continue
        if action == "complete":
            live.complete(key, lease_id=cell.lease_id, worker="w")
        elif action == "readopt":
            if cell.lease_epoch != epoch[0]:
                live.commit(
                    {"op": wal.OP_READOPT, "key": key, "lease_id": cell.lease_id, "worker": "w"}
                )
        else:
            live.fail(key, action, f"{action} at {key}")
    ledger.close()

    replayed = FabricLedger(path).replay()
    for key in KEYS:
        cell = replayed.cells.get(key)
        if cell is None:  # never touched: no record names it
            assert snapshot(live.cells[key]) == (PENDING, 0, 0.0, None, 0)
        else:
            assert snapshot(cell) == snapshot(live.cells[key])
    assert replayed.failures == [{"key": f.key, **f.to_dict()} for f in live.failures]
    assert max(leases.values(), default=0) <= RETRY.retries + 1
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert Counter(r["key"] for r in records if r["op"] == wal.OP_LEASE) == leases


def test_release_charges_no_attempt():
    """An unblamed release (a recovering coordinator's done cell whose
    store object is gone) requeues the cell at once with its failure count
    untouched."""
    table = CellTable(RetryPolicy(retries=1, backoff_base=0.0))
    table.add(0, "a")
    table.lease(0)
    assert table.cells[0].attempts == 1
    table.apply({"op": "release", "key": 0})
    assert (table.cells[0].state, table.cells[0].attempts) == (PENDING, 0)
    table.lease(0)
    assert table.fail(0, "crash", "boom")["attempt"] == 1
    table.lease(0)
    assert table.fail(0, "crash", "boom") is None  # retries=1: second failure quarantines
    (failure,) = table.failures
    assert (failure.kind, failure.attempts) == ("crash", 2)
    assert table.counts == {PENDING: 0, LEASED: 0, DONE: 0, FAILED: 1}
    assert table.settled()
