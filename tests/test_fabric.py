"""Distributed sweep fabric: coordinator, workers, and the wire protocol.

The acceptance story: a fabric sweep — coordinator plus several
workers, one of which crashes mid-campaign and one of which abandons a
lease — produces a merged store byte-identical to a single-process
``run_sweep`` over the same grid, with no cell accepted more
than once per lease (proven from the journal), and a status document
that stays schema-valid throughout the churn.  On top of that, the
durability story: SIGKILL the coordinator while leases are provably
outstanding, restart it, and the write-ahead ledger replay + fencing
epochs + ``/resume`` re-adoption still deliver the same byte-identical
store with exactly one accepted completion per cell and zero accepted
stale-epoch replies (``TestRecovery``, ``TestDrain``, ``TestAuth``,
``TestHeartbeatResilience``).

Everything runs over real localhost sockets via the deterministic
harness in :mod:`tests.fabric_harness`; protocol edge cases (duplicate
completions, stale leases, corrupt payloads, out-of-order replies) are
driven by scripted :class:`~repro.fabric.FabricClient` calls.
"""

import time

import pytest

from repro.experiments import RetryPolicy
from repro.experiments.parallel import grid_store_keys, run_sweep
from repro.experiments.runner import Runner
from repro.fabric import (
    FABRIC_SCHEMA,
    FabricClient,
    FabricConnectionError,
    FabricProtocolError,
    FabricWorker,
    protocol,
    validate_documents,
)
from repro.obs.status import read_status, validate_status
from repro.resilience.faults import FaultInjected
from repro.store import ResultStore
from repro.store.fingerprint import checksum
from tests.fabric_harness import (
    CoordinatorThread,
    LeaseGate,
    WorkerCrashed,
    abandon_leases,
    assert_exactly_once,
    crash_on_lease,
    journal,
    lease_accounting,
    restart_coordinator,
    start_workers,
    store_object_bytes,
)
from tests.test_store_resume import TINY, tiny_tasks

FAST = RetryPolicy(retries=2, backoff_base=0.05)


def fake_document(lease, value=None):
    """A checksum-valid store document for protocol-level tests."""
    value = value if value is not None else {"speedup": 1.0, "label": lease["label"]}
    return {
        "key": lease["key"],
        "value": value,
        "meta": {"kind": "competitive", "label": lease["label"]},
        "checksum": checksum(value),
    }


def wait_for(predicate, timeout=10.0, interval=0.02, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


class TestFabricEndToEnd:
    def test_crash_and_expiry_still_byte_identical(self, tmp_path):
        """The flagship: 4 workers (one crashes holding a lease, one
        abandons its first lease), short TTL — the merged store matches a
        single-process sweep byte-for-byte, each cell's result accepted
        exactly once, status schema-valid under churn."""
        tasks = tiny_tasks()
        reference = tmp_path / "ref"
        run_sweep(TINY, tasks, store_dir=str(reference), max_workers=1)

        fabric = tmp_path / "fab"
        with CoordinatorThread(
            TINY, tasks, fabric, ttl=1.0, tick=0.02, retry=FAST
        ) as coord:
            workers = start_workers(
                coord.address,
                tmp_path,
                [
                    {"worker_id": "crashy", "lease_hook": crash_on_lease(0), "poll": 0.05},
                    {"worker_id": "flaky", "lease_hook": abandon_leases(1), "poll": 0.05},
                    {"worker_id": "w1", "poll": 0.05},
                    {"worker_id": "w2", "poll": 0.05},
                ],
            )
            # Poll /status through the churn; every document must validate.
            client = FabricClient(coord.address)
            seen_docs = []
            while not coord.coordinator.completed_event.wait(0.05):
                seen_docs.append(client.get("/status"))
            coord.wait()
            for thread in workers:
                thread.join()
            summary = coord.coordinator.summary()

        crashed = next(t for t in workers if t.worker.worker_id == "crashy")
        assert isinstance(crashed.error, WorkerCrashed)
        assert summary["state"] == "complete"
        assert summary["completed"] == 4 and summary["failed"] == 0

        assert seen_docs, "status endpoint was never polled"
        for doc in seen_docs:
            assert validate_status(doc) == []
        final = read_status(fabric)
        assert validate_status(final) == [] and final["state"] == "complete"

        entries = journal(fabric)
        expiries = [e for e in entries if e["event"] == protocol.EV_EXPIRE]
        assert len(expiries) >= 2  # the crashed lease and the abandoned one
        assert_exactly_once(entries, set(grid_store_keys(TINY, tasks)))

        assert store_object_bytes(reference) == store_object_bytes(fabric)

    def test_warm_store_completes_without_workers(self, tmp_path):
        tasks = tiny_tasks()[:2]
        store = tmp_path / "store"
        run_sweep(TINY, tasks, store_dir=str(store), max_workers=1)
        with CoordinatorThread(TINY, tasks, store) as coord:
            coord.wait(timeout=10)
            summary = coord.coordinator.summary()
        assert summary == {
            "state": "complete",
            "total": 2,
            "completed": 2,
            "hits": 2,
            "misses": 0,
            "failed": 0,
            "workers": [],
            "epoch": 1,
            "recoveries": 0,
            "drained": False,
        }
        # No lease was ever granted for warm cells.
        assert lease_accounting(journal(store)) == {}

    def test_duplicate_tasks_collapse_to_one_lease(self, tmp_path):
        tasks = tiny_tasks()[:1] * 3  # same fingerprint three times
        with CoordinatorThread(TINY, tasks, tmp_path / "s", ttl=30.0) as coord:
            assert len(coord.coordinator.cells) == 1
            client = FabricClient(coord.address)
            lease = client.post("/lease", {"worker": "script"})["lease"]
            # The one group is leased; a second worker gets "empty", not
            # the same fingerprint twice.
            assert client.post("/lease", {"worker": "other"}).get("empty")
            reply = client.post(
                "/complete",
                {
                    "worker": "script",
                    "lease_id": lease["lease_id"],
                    "key": lease["key"],
                    "epoch": lease["epoch"],
                    "documents": [fake_document(lease)],
                },
            )
            assert reply["accepted"]
            coord.wait(timeout=10)
            entries = journal(tmp_path / "s")
        assert_exactly_once(entries, {lease["key"]})


class TestLeaseProtocol:
    def test_duplicate_completion_rejected(self, tmp_path):
        tasks = tiny_tasks()[:1]
        with CoordinatorThread(TINY, tasks, tmp_path / "s", ttl=30.0) as coord:
            client = FabricClient(coord.address)
            lease = client.post("/lease", {"worker": "script"})["lease"]
            body = {
                "worker": "script",
                "lease_id": lease["lease_id"],
                "key": lease["key"],
                "epoch": lease["epoch"],
                "documents": [fake_document(lease)],
            }
            first = client.post("/complete", body)
            assert first["accepted"] and lease["key"] in first["stored"]
            second = client.post("/complete", body)
            assert not second["accepted"]
            assert second["reason"] == protocol.REJECT_DONE
            coord.wait(timeout=10)
            entries = journal(tmp_path / "s")
        completes = [e for e in entries if e["event"] == protocol.EV_COMPLETE]
        rejects = [e for e in entries if e["event"] == protocol.EV_REJECT]
        assert len(completes) == 1
        assert [e["reason"] for e in rejects] == [protocol.REJECT_DONE]

    def test_expired_lease_is_stale_and_cell_is_releasable(self, tmp_path):
        tasks = tiny_tasks()[:1]
        with CoordinatorThread(
            TINY,
            tasks,
            tmp_path / "s",
            ttl=0.2,
            tick=0.02,
            retry=RetryPolicy(retries=2, backoff_base=0.0),
        ) as coord:
            client = FabricClient(coord.address)
            lease = client.post("/lease", {"worker": "script"})["lease"]
            wait_for(
                lambda: any(
                    e["event"] == protocol.EV_EXPIRE for e in journal(tmp_path / "s")
                ),
                message="lease expiry",
            )
            # Out-of-order reply after expiry: rejected as stale.
            stale = client.post(
                "/complete",
                {
                    "worker": "script",
                    "lease_id": lease["lease_id"],
                    "key": lease["key"],
                    "epoch": lease["epoch"],
                    "documents": [fake_document(lease)],
                },
            )
            assert not stale["accepted"]
            assert stale["reason"] == protocol.REJECT_STALE
            # A heartbeat for the dead lease reports it lost.
            beat = client.post(
                "/heartbeat",
                {
                    "worker": "script",
                    "epoch": lease["epoch"],
                    "lease_ids": [lease["lease_id"]],
                },
            )
            assert beat["renewed"] == [] and beat["lost"] == [lease["lease_id"]]
            # The cell re-entered the queue: second lease, attempt 2.
            release = client.post("/lease", {"worker": "script"})["lease"]
            assert release["key"] == lease["key"]
            assert release["attempt"] == 2
            assert release["lease_id"] != lease["lease_id"]
            done = client.post(
                "/complete",
                {
                    "worker": "script",
                    "lease_id": release["lease_id"],
                    "key": release["key"],
                    "epoch": release["epoch"],
                    "documents": [fake_document(release)],
                },
            )
            assert done["accepted"]
            coord.wait(timeout=10)
            entries = journal(tmp_path / "s")
        assert_exactly_once(entries, {lease["key"]})

    def test_unknown_cell_and_malformed_requests(self, tmp_path):
        tasks = tiny_tasks()[:1]
        with CoordinatorThread(TINY, tasks, tmp_path / "s", ttl=30.0) as coord:
            client = FabricClient(coord.address)
            reply = client.post(
                "/complete",
                {"worker": "w", "lease_id": "L?", "key": "nope", "documents": []},
            )
            assert reply["reason"] == protocol.REJECT_UNKNOWN_CELL
            with pytest.raises(FabricProtocolError):
                client.post("/lease", {})  # no worker id -> 400
            with pytest.raises(FabricProtocolError):
                client.get("/nope")  # unknown endpoint -> 404

    def test_corrupt_payload_blames_lease_then_quarantines(self, tmp_path):
        tasks = tiny_tasks()[:1]
        with CoordinatorThread(
            TINY,
            tasks,
            tmp_path / "s",
            ttl=30.0,
            retry=RetryPolicy(retries=1, backoff_base=0.0),
        ) as coord:
            client = FabricClient(coord.address)
            for attempt, expected_reason in (
                (1, protocol.REJECT_CORRUPT),
                (2, protocol.REJECT_MISSING),
            ):
                lease = client.post("/lease", {"worker": "evil"})["lease"]
                assert lease["attempt"] == attempt
                if expected_reason == protocol.REJECT_CORRUPT:
                    doc = fake_document(lease)
                    doc["checksum"] = "0" * 64  # corrupted in flight
                else:
                    doc = fake_document(lease)
                    doc["key"] = "some-other-cell"  # cell's own doc missing
                reply = client.post(
                    "/complete",
                    {
                        "worker": "evil",
                        "lease_id": lease["lease_id"],
                        "key": lease["key"],
                        "epoch": lease["epoch"],
                        "documents": [doc],
                    },
                )
                assert not reply["accepted"]
                assert reply["reason"] == expected_reason
            # retries=1 exhausted -> quarantined, campaign completes.
            coord.wait(timeout=10)
            summary = coord.coordinator.summary()
            assert summary["state"] == "complete" and summary["failed"] == 1
            final = read_status(tmp_path / "s")
        assert validate_status(final) == []
        assert len(final["quarantined"]) == 1
        # Nothing was ever stored for the poisoned cell.
        assert ResultStore(tmp_path / "s").get(lease["key"]) is None

    def test_fatal_fail_quarantines_immediately(self, tmp_path):
        tasks = tiny_tasks()[:2]
        with CoordinatorThread(TINY, tasks, tmp_path / "s", ttl=30.0) as coord:
            client = FabricClient(coord.address)
            first = client.post("/lease", {"worker": "script"})["lease"]
            reply = client.post(
                "/fail",
                {
                    "worker": "script",
                    "lease_id": first["lease_id"],
                    "key": first["key"],
                    "epoch": first["epoch"],
                    "kind": "stall",
                    "message": "livelock watchdog fired",
                    "attempts": 1,
                },
            )
            assert reply["accepted"]
            second = client.post("/lease", {"worker": "script"})["lease"]
            assert second["key"] != first["key"]  # quarantined, not re-leased
            client.post(
                "/complete",
                {
                    "worker": "script",
                    "lease_id": second["lease_id"],
                    "key": second["key"],
                    "epoch": second["epoch"],
                    "documents": [fake_document(second)],
                },
            )
            coord.wait(timeout=10)
            summary = coord.coordinator.summary()
            failures = list(coord.coordinator.failures)
        assert summary["failed"] == 1 and summary["completed"] == 1
        assert failures[0]["kind"] == "stall"
        events = [e["event"] for e in journal(tmp_path / "s")]
        assert protocol.EV_FAIL in events and "quarantine" in events


class TestWorker:
    def test_handshake_refuses_code_mismatch(self, tmp_path, monkeypatch):
        tasks = tiny_tasks()[:1]
        with CoordinatorThread(TINY, tasks, tmp_path / "s") as coord:
            monkeypatch.setattr(
                "repro.fabric.worker.code_version", lambda: "somebody-else"
            )
            worker = FabricWorker("w", coord.address, tmp_path / "scratch")
            with pytest.raises(FabricProtocolError, match="code version mismatch"):
                worker.run()

    def test_handshake_refuses_schema_mismatch(self, tmp_path, monkeypatch):
        tasks = tiny_tasks()[:1]
        with CoordinatorThread(TINY, tasks, tmp_path / "s") as coord:
            monkeypatch.setattr("repro.fabric.worker.FABRIC_SCHEMA", 999)
            worker = FabricWorker("w", coord.address, tmp_path / "scratch")
            with pytest.raises(FabricProtocolError, match="schema mismatch"):
                worker.run()

    def test_worker_failure_recovered_by_one_release(self, tmp_path):
        """A worker runs each lease once and reports a failure; the
        coordinator's re-lease is the retry."""
        tasks = tiny_tasks()[:1]

        class _Flaky:
            """Fails the first attempt, then delegates to a real Runner."""

            def __init__(self, scale, store):
                self.inner = Runner(scale, store=store)
                self.failures_left = 1

            def competitive(self, *args, **kwargs):
                if self.failures_left:
                    self.failures_left -= 1
                    raise FaultInjected("injected transient failure")
                return self.inner.competitive(*args, **kwargs)

        with CoordinatorThread(
            TINY,
            tasks,
            tmp_path / "s",
            ttl=30.0,
            retry=RetryPolicy(retries=2, backoff_base=0.0),
        ) as coord:
            worker = FabricWorker(
                "w",
                coord.address,
                tmp_path / "scratch",
                runner_factory=lambda scale, store: _Flaky(scale, store),
            )
            summary = worker.run()
            coord.wait(timeout=10)
            key = coord.coordinator.cells[0].key
            stored = ResultStore(tmp_path / "s").get(key, kind="competitive")
            failures = list(coord.coordinator.failures)
        assert summary["completed"] == 1 and summary["failed"] == 1
        assert summary["leases"] == 2  # the failed lease, then one re-lease
        assert not failures
        assert stored is not None and stored["gpu_speedup"] > 0

    def test_worker_reports_deterministic_failures(self, tmp_path):
        tasks = tiny_tasks()[:1]

        class _Broken:
            def __init__(self, scale, store):
                pass

            def competitive(self, *args, **kwargs):
                raise ValueError("bad cell configuration")

        with CoordinatorThread(
            TINY,
            tasks,
            tmp_path / "s",
            ttl=30.0,
            retry=RetryPolicy(retries=2, backoff_base=0.0),
        ) as coord:
            worker = FabricWorker(
                "w",
                coord.address,
                tmp_path / "scratch",
                runner_factory=lambda scale, store: _Broken(scale, store),
            )
            summary = worker.run()
            coord.wait(timeout=10)
            failures = list(coord.coordinator.failures)
        assert summary["failed"] == 1 and summary["completed"] == 0
        assert summary["leases"] == 1
        assert failures[0]["kind"] == "config"  # ValueError -> no retries burned


class TestProtocolUnits:
    def test_validate_documents_catches_corruption(self):
        good = {
            "key": "k1",
            "value": {"a": 1},
            "meta": {"kind": "competitive"},
            "checksum": checksum({"a": 1}),
        }
        assert validate_documents([good]) == []
        assert validate_documents([]) != []
        assert validate_documents("nope") != []
        bad = dict(good, checksum="deadbeef")
        assert any("checksum" in e for e in validate_documents([bad]))
        assert any(".key" in e for e in validate_documents([{"value": 1}]))

    def test_task_round_trip(self):
        task = tiny_tasks()[0]
        rebuilt = protocol.task_from_fields(protocol.lease_task_fields(task))
        assert rebuilt == task


class TestRecovery:
    def test_kill_restart_byte_identical(self, tmp_path):
        """The ISSUE 10 acceptance story: SIGKILL the coordinator while a
        worker provably holds a lease, restart it over the same store,
        and the finished campaign is byte-identical to an uninterrupted
        single-process sweep — exactly one accepted completion per cell,
        zero accepted stale-epoch completions from the survivor."""
        tasks = tiny_tasks()
        reference = tmp_path / "ref"
        run_sweep(TINY, tasks, store_dir=str(reference), max_workers=1)

        fabric = tmp_path / "fab"
        gate = LeaseGate(hold=1)
        coord = CoordinatorThread(
            TINY, tasks, fabric, ttl=3.0, tick=0.02, retry=FAST
        ).start()
        workers = start_workers(
            coord.address,
            tmp_path,
            [
                {
                    "worker_id": "survivor",
                    "lease_hook": gate,
                    "poll": 0.05,
                    "max_connect_failures": 200,
                },
                {"worker_id": "helper", "poll": 0.05, "max_connect_failures": 200},
            ],
        )
        assert gate.held.wait(60), "no lease was parked in time"
        coord.kill()  # no close record, no aborted journal line

        revived = restart_coordinator(coord)
        try:
            assert revived.coordinator.epoch == 2
            assert revived.coordinator.recoveries == 1
            gate.release()
            revived.wait()
            for thread in workers:
                thread.join()
            summary = revived.coordinator.summary()
        finally:
            revived.stop()

        assert summary["state"] == "complete"
        assert summary["completed"] == len(revived.coordinator.cells)
        assert summary["failed"] == 0 and summary["recoveries"] == 1

        entries = journal(fabric)
        events = [e["event"] for e in entries]
        assert protocol.EV_RECOVER in events
        # The survivor's parked lease crossed the restart: it was either
        # re-adopted via /resume or (if the complete raced the resume)
        # fenced as stale-epoch and retried once — never accepted twice.
        assert_exactly_once(entries, set(grid_store_keys(TINY, tasks)))
        completes = [e for e in entries if e["event"] == protocol.EV_COMPLETE]
        assert len(completes) == len(revived.coordinator.cells)

        final = read_status(fabric)
        assert validate_status(final) == []
        assert final["state"] == "complete"
        assert final["recoveries"] == 1 and final["epoch"] == 2

        assert store_object_bytes(reference) == store_object_bytes(fabric)

    def test_replay_restores_retry_and_quarantine_state(self, tmp_path):
        """Backoff deadlines, attempt counts, and the quarantine roster
        survive a kill: the revived coordinator refuses to re-lease a
        quarantined cell and continues a retried cell at attempt 2."""
        tasks = tiny_tasks()[:2]
        store = tmp_path / "s"
        coord = CoordinatorThread(
            TINY,
            tasks,
            store,
            ttl=30.0,
            tick=0.02,
            retry=RetryPolicy(retries=2, backoff_base=0.0),
        ).start()
        client = FabricClient(coord.address)
        first = client.post("/lease", {"worker": "script"})["lease"]
        # Quarantine cell 1 deterministically, burn one attempt on cell 2.
        client.post(
            "/fail",
            {
                "worker": "script",
                "lease_id": first["lease_id"],
                "key": first["key"],
                "epoch": first["epoch"],
                "kind": "stall",
                "message": "livelock watchdog fired",
                "attempts": 1,
            },
        )
        second = client.post("/lease", {"worker": "script"})["lease"]
        client.post(
            "/fail",
            {
                "worker": "script",
                "lease_id": second["lease_id"],
                "key": second["key"],
                "epoch": second["epoch"],
                "kind": "error",
                "message": "transient",
                "attempts": 1,
            },
        )
        coord.kill()

        revived = restart_coordinator(coord)
        try:
            assert revived.coordinator.recoveries == 1
            assert len(revived.coordinator.failures) == 1
            assert revived.coordinator.failures[0]["kind"] == "stall"
            client = FabricClient(revived.address)
            release = client.post("/lease", {"worker": "script"})["lease"]
            # Only the retried cell is grantable, and its history held.
            assert release["key"] == second["key"]
            assert release["attempt"] == 2
            assert release["epoch"] == 2
            reply = client.post(
                "/complete",
                {
                    "worker": "script",
                    "lease_id": release["lease_id"],
                    "key": release["key"],
                    "epoch": release["epoch"],
                    "documents": [fake_document(release)],
                },
            )
            assert reply["accepted"]
            revived.wait(timeout=10)
            summary = revived.coordinator.summary()
        finally:
            revived.stop()
        assert summary["state"] == "complete"
        assert summary["completed"] == 1 and summary["failed"] == 1

    def test_stale_epoch_completion_fenced(self, tmp_path):
        """A zombie holding a pre-restart lease cannot complete a cell
        the revived coordinator re-leased: its reply is deterministically
        rejected ``stale-epoch`` (epoch alone distinguishes it from an
        ordinary stale lease)."""
        tasks = tiny_tasks()[:1]
        store = tmp_path / "s"
        coord = CoordinatorThread(
            TINY, tasks, store, ttl=30.0, tick=0.02, resume_grace=0.0
        ).start()
        client = FabricClient(coord.address)
        zombie = client.post("/lease", {"worker": "zombie"})["lease"]
        assert zombie["epoch"] == 1
        coord.kill()

        revived = restart_coordinator(coord)
        try:
            client = FabricClient(revived.address)
            # The zombie replays its epoch-1 view verbatim.
            reply = client.post(
                "/complete",
                {
                    "worker": "zombie",
                    "lease_id": zombie["lease_id"],
                    "key": zombie["key"],
                    "epoch": zombie["epoch"],
                    "documents": [fake_document(zombie)],
                },
            )
            assert not reply["accepted"]
            assert reply["reason"] == protocol.REJECT_STALE_EPOCH
            beat = client.post(
                "/heartbeat",
                {
                    "worker": "zombie",
                    "epoch": zombie["epoch"],
                    "lease_ids": [zombie["lease_id"]],
                },
            )
            assert beat["lost"] == [zombie["lease_id"]]
            assert beat["epoch"] == 2
            # Nothing was stored for the fenced completion.
            assert ResultStore(store).get(zombie["key"]) is None
        finally:
            revived.stop()
        rejects = [
            e for e in journal(store) if e.get("event") == protocol.EV_REJECT
        ]
        assert protocol.REJECT_STALE_EPOCH in {e["reason"] for e in rejects}

    def test_resume_readopts_surviving_lease(self, tmp_path):
        """/resume re-adopts a matching pre-restart lease at the current
        epoch (making it completable) and instructs abandonment of
        anything it does not recognize."""
        tasks = tiny_tasks()[:1]
        store = tmp_path / "s"
        coord = CoordinatorThread(TINY, tasks, store, ttl=30.0, tick=0.02).start()
        client = FabricClient(coord.address)
        lease = client.post("/lease", {"worker": "survivor"})["lease"]
        coord.kill()

        revived = restart_coordinator(coord)
        try:
            client = FabricClient(revived.address)
            reply = client.post(
                "/resume",
                {
                    "worker": "survivor",
                    "held": [
                        {"lease_id": lease["lease_id"], "key": lease["key"]},
                        {"lease_id": "L99999-bogus", "key": lease["key"]},
                    ],
                },
            )
            assert reply["epoch"] == 2
            assert [r["lease_id"] for r in reply["readopted"]] == [lease["lease_id"]]
            assert reply["abandon"] == ["L99999-bogus"]
            accepted = client.post(
                "/complete",
                {
                    "worker": "survivor",
                    "lease_id": lease["lease_id"],
                    "key": lease["key"],
                    "epoch": 2,
                    "documents": [fake_document(lease)],
                },
            )
            assert accepted["accepted"]
            revived.wait(timeout=10)
        finally:
            revived.stop()
        events = [e["event"] for e in journal(store)]
        assert protocol.EV_READOPT in events
        assert_exactly_once(journal(store), {lease["key"]})


class TestDrain:
    def test_drain_finishes_in_flight_then_ledger_resumes_rest(self, tmp_path):
        """/drain stops granting, lets the in-flight lease finish, and
        finalizes with ``drained`` set; a later coordinator resumes the
        remainder from the ledger to a store byte-identical to an
        uninterrupted sweep."""
        tasks = tiny_tasks()
        reference = tmp_path / "ref"
        run_sweep(TINY, tasks, store_dir=str(reference), max_workers=1)

        fabric = tmp_path / "fab"
        gate = LeaseGate(hold=1)
        coord = CoordinatorThread(
            TINY, tasks, fabric, ttl=10.0, tick=0.02, retry=FAST
        ).start()
        workers = start_workers(
            coord.address,
            tmp_path,
            [{"worker_id": "w0", "lease_hook": gate, "poll": 0.05}],
        )
        assert gate.held.wait(60)
        client = FabricClient(coord.address)
        reply = client.post("/drain", {})
        assert reply["draining"] and reply["leased"] == 1
        # Draining: no new grants, but heartbeats/completions still work.
        assert client.post("/lease", {"worker": "poller"}).get("draining")
        gate.release()
        coord.wait()
        summary = coord.coordinator.summary()
        for thread in workers:
            thread.join()
        coord.stop()

        assert summary["drained"] is True
        assert summary["state"] == "aborted"  # work remained, cleanly parked
        assert summary["completed"] >= 1
        events = [e["event"] for e in journal(fabric)]
        assert protocol.EV_DRAIN in events

        # A fresh coordinator picks the remainder up from the ledger.
        revived = restart_coordinator(coord)
        try:
            finishers = start_workers(
                revived.address, tmp_path / "r2", [{"worker_id": "w1", "poll": 0.05}]
            )
            revived.wait()
            for thread in finishers:
                thread.join()
            final = revived.coordinator.summary()
        finally:
            revived.stop()
        assert final["state"] == "complete" and final["failed"] == 0
        assert_exactly_once(journal(fabric), set(grid_store_keys(TINY, tasks)))
        assert store_object_bytes(reference) == store_object_bytes(fabric)

    def test_drain_on_idle_campaign_completes_immediately(self, tmp_path):
        tasks = tiny_tasks()[:2]
        with CoordinatorThread(TINY, tasks, tmp_path / "s", ttl=30.0) as coord:
            client = FabricClient(coord.address)
            assert client.post("/drain", {})["draining"]
            coord.wait(timeout=10)
            summary = coord.coordinator.summary()
        assert summary["drained"] is True and summary["completed"] == 0


class TestAuth:
    def test_token_enforced_on_every_endpoint(self, tmp_path):
        tasks = tiny_tasks()[:1]
        with CoordinatorThread(
            TINY, tasks, tmp_path / "s", ttl=30.0, token="sekrit"
        ) as coord:
            bare = FabricClient(coord.address)
            with pytest.raises(FabricProtocolError, match="presented no token"):
                bare.get("/grid")
            with pytest.raises(FabricProtocolError, match="401"):
                bare.post("/lease", {"worker": "w"})
            wrong = FabricClient(coord.address, token="nope")
            with pytest.raises(FabricProtocolError, match="different token"):
                wrong.get("/grid")
            ok = FabricClient(coord.address, token="sekrit")
            assert ok.get("/grid")["schema"] == FABRIC_SCHEMA
            # An authed worker drives the campaign end to end.
            worker = FabricWorker(
                "w",
                coord.address,
                tmp_path / "scratch",
                poll=0.05,
                token="sekrit",
            )
            summary = worker.run()
            coord.wait(timeout=30)
        assert summary["completed"] == 1

    def test_worker_handshake_names_the_mismatch(self, tmp_path):
        tasks = tiny_tasks()[:1]
        with CoordinatorThread(
            TINY, tasks, tmp_path / "s", ttl=30.0, token="sekrit"
        ) as coord:
            worker = FabricWorker("w", coord.address, tmp_path / "scratch")
            with pytest.raises(FabricProtocolError, match="token mismatch"):
                worker.run()


class TestHeartbeatResilience:
    def test_transient_heartbeat_failures_do_not_expire_lease(self, tmp_path):
        """The satellite fix: heartbeat send errors retry at ttl/12, so a
        cell that outlives the TTL survives a burst of dropped renewals
        (under the old swallow-and-wait behavior the lease would expire
        while the simulation kept running)."""
        tasks = tiny_tasks()[:1]
        store = tmp_path / "s"

        class _Slow:
            def __init__(self, scale, inner_store):
                self.inner = Runner(scale, store=inner_store)

            def competitive(self, *args, **kwargs):
                time.sleep(1.6)  # 2x the TTL: only renewals keep the lease
                return self.inner.competitive(*args, **kwargs)

        with CoordinatorThread(
            TINY,
            tasks,
            store,
            ttl=0.8,
            tick=0.02,
            retry=RetryPolicy(retries=0, backoff_base=0.0),
        ) as coord:
            worker = FabricWorker(
                "w",
                coord.address,
                tmp_path / "scratch",
                poll=0.05,
                runner_factory=lambda scale, s: _Slow(scale, s),
            )
            real_post = worker.client.post
            drops = {"n": 0}

            def flaky_post(path, body):
                if path == "/heartbeat" and drops["n"] < 4:
                    drops["n"] += 1
                    raise FabricConnectionError("injected heartbeat drop")
                return real_post(path, body)

            worker.client.post = flaky_post
            summary = worker.run()
            coord.wait(timeout=30)
        assert drops["n"] == 4
        assert summary["completed"] == 1 and summary["leases"] == 1
        assert summary["heartbeat_retries"] >= 4
        events = [e["event"] for e in journal(store)]
        assert protocol.EV_EXPIRE not in events
