"""Fault-tolerant sweep execution: supervisor, retries, quarantine, faults.

The acceptance story: a sweep with injected crashes, a hang, transient
errors, and store corruption still completes every healthy cell,
quarantines only the truly poisoned ones, journals them, and — resumed
fault-free — produces a merged table byte-identical to a clean run.
"""

import functools
import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.core.policies import PolicySpec
from repro.experiments import (
    CellFailure,
    ExperimentScale,
    RetryPolicy,
    SweepAborted,
    collect_from_store,
    run_sweep,
)
from repro.experiments.parallel import GridTask, make_tasks
from repro.experiments.runner import cell_key
from repro.experiments.figures import FIGURES, figure_table, points_figure
from repro.obs import read_status
from repro.resilience import FaultInjected, FaultPlan, FaultSpec, Supervisor
from repro.resilience import faults as fault_injection
from repro.resilience.faults import corrupt_store_object
from repro.store import ResultStore
from tests.test_store_resume import TINY, table_bytes, tiny_tasks

FAST = RetryPolicy(retries=2, backoff_base=0.0)


def plan(tmp_path, cells, **kwargs):
    return FaultPlan.build(tmp_path / "fault-state", cells, **kwargs)


class TestRetryPolicy:
    def test_delay_is_deterministic_and_capped(self):
        policy = RetryPolicy(retries=3, backoff_base=0.25, backoff_cap=1.0)
        first = policy.delay("G17|P1|F3FS|vc1", 1)
        assert first == policy.delay("G17|P1|F3FS|vc1", 1)  # replayable
        assert policy.delay("G17|P2|F3FS|vc1", 1) != first  # per-label jitter
        for attempt in range(1, 20):
            assert policy.delay("x", attempt) <= 1.0 * 1.1  # cap + jitter

    def test_zero_base_disables_sleeping(self):
        assert RetryPolicy(backoff_base=0.0).delay("x", 5) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retries": -1},
            {"backoff_base": -0.1},
            {"backoff_base": 2.0, "backoff_cap": 1.0},
            {"jitter": 1.5},
            {"backoff_base": float("nan")},
            {"backoff_cap": float("nan")},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestFaultPlan:
    def test_claim_counts_persist_on_disk(self, tmp_path):
        p = plan(tmp_path, {"a": FaultSpec("error", times=2)})
        assert p.claim("a") == "error"
        # A fresh deserialized plan (a replaced worker) sees the count.
        q = FaultPlan.from_payload(p.to_payload())
        assert q.triggered("a") == 1
        assert q.claim("a") == "error"
        assert q.claim("a") is None  # exhausted
        assert q.claim("unlisted") is None

    def test_negative_times_means_always(self, tmp_path):
        p = plan(tmp_path, {"a": FaultSpec("crash", times=-1)})
        for _ in range(5):
            assert p.claim("a") == "crash"

    def test_phase_filter_does_not_consume(self, tmp_path):
        p = plan(tmp_path, {"a": FaultSpec("corrupt", times=1)})
        assert p.claim("a", phase="pre") is None  # corrupt is post-run
        assert p.triggered("a") == 0  # mismatch must not burn the trigger
        assert p.claim("a", phase="post") == "corrupt"

    def test_file_round_trip(self, tmp_path):
        p = plan(tmp_path, {"a": FaultSpec("hang")}, hang_seconds=7.5)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(p.to_payload()))
        q = FaultPlan.from_file(path)
        assert q.hang_seconds == 7.5
        assert dict(q.cells)["a"].kind == "hang"

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="fault kind"):
            FaultSpec("explode")


class TestSupervisorUnit:
    """The supervisor against plain functions (no simulator)."""

    def test_transient_errors_retry_then_succeed(self):
        # One worker process so the per-process failure counter in
        # _flaky_twice sees a deterministic call order.
        supervisor = Supervisor(_flaky_twice, max_workers=1, retry=FAST)
        results = {}
        supervisor.run(["a", "b"], lambda i, r: results.__setitem__(i, r))
        assert results == {0: "ok:a", 1: "ok:b"}
        assert not supervisor.failures
        assert [e["kind"] for e in supervisor.events].count("retry") >= 2

    def test_persistent_error_quarantines_with_attempts(self):
        supervisor = Supervisor(_always_fails, max_workers=1, retry=FAST)
        results = {}
        supervisor.run(["a"], lambda i, r: results.__setitem__(i, r))
        assert results == {}
        (failure,) = supervisor.failures
        assert failure.kind == "error"
        assert failure.attempts == FAST.retries + 1

    def test_config_error_is_fatal_no_retry(self):
        supervisor = Supervisor(_bad_config, max_workers=1, retry=FAST)
        supervisor.run(["a"], lambda i, r: None)
        (failure,) = supervisor.failures
        assert failure.kind == "config"
        assert failure.attempts == 1  # no retries burned on determinism

    @pytest.mark.parametrize("timeout", [0, -1.0, float("nan")])
    def test_bad_cell_timeout_refused(self, timeout):
        with pytest.raises(ValueError, match="cell_timeout"):
            Supervisor(_always_fails, cell_timeout=timeout)


def _flaky_twice(label, _dir={"n": 0}):  # noqa: B006 - intentional shared state
    # Module-level for pickling; fails the first two calls per process.
    _dir["n"] += 1
    if _dir["n"] <= 2:
        raise FaultInjected(f"transient {label}")
    return f"ok:{label}"


def _always_fails(label):
    raise FaultInjected(f"broken {label}")


def _bad_config(label):
    raise ValueError(f"bad field {label}")


class TestFaultySweepEndToEnd:
    @pytest.mark.parametrize("fast_forward", ["0", "1"])
    def test_crashes_and_hang_degrade_gracefully(
        self, tmp_path, monkeypatch, fast_forward
    ):
        """3 crash cells (one healing) + 1 permanent hang: healthy cells
        complete and match a clean run byte-for-byte; poisoned cells
        quarantine; a fault-free resume recovers everything.  A stale
        REPRO_FAST_FORWARD from older releases changes nothing."""
        monkeypatch.setenv("REPRO_FAST_FORWARD", fast_forward)
        tasks = make_tasks(
            ["G17"], ["P1", "P2"], [PolicySpec("FR-FCFS"), PolicySpec("F3FS")], (1,)
        )
        reference = run_sweep(TINY, tasks, store_dir=str(tmp_path / "ref"))

        faults = plan(
            tmp_path,
            {
                "G17|P1|FR-FCFS|vc1": FaultSpec("crash", times=1),  # heals
                "G17|P2|FR-FCFS|vc1": FaultSpec("crash", times=-1),  # poisoned
                "G17|P1|F3FS|vc1": FaultSpec("crash", times=-1),  # poisoned
                "G17|P2|F3FS|vc1": FaultSpec("hang", times=-1),  # poisoned
            },
            hang_seconds=15.0,
        )
        store_dir = str(tmp_path / "faulty")
        report = run_sweep(
            TINY,
            tasks,
            store_dir=store_dir,
            max_workers=2,
            cell_timeout=5.0,
            retry=RetryPolicy(retries=1, backoff_base=0.0),
            faults=faults,
        )
        # The healing crash cell and every untouched cell completed.
        assert report.completed == 1
        assert report.failed == 3
        kinds = {f.label: f.kind for f in report.failed_outcomes}
        assert kinds["G17|P2|F3FS|vc1"] == "timeout"
        assert kinds["G17|P2|FR-FCFS|vc1"] == "crash"
        assert kinds["G17|P1|F3FS|vc1"] == "crash"
        # Quarantines are journaled next to the puts.
        events = [
            e for e in ResultStore(store_dir).journal_entries()
            if e["event"] == "quarantine"
        ]
        assert sorted(e["label"] for e in events) == sorted(kinds)

        # Fault-free resume: healthy cell hits, poisoned cells recompute,
        # and the merged table matches the clean reference exactly.
        resumed = run_sweep(TINY, tasks, store_dir=store_dir)
        assert resumed.hits == 1
        assert resumed.misses == 3
        assert not resumed.failed_outcomes
        merged = collect_from_store(TINY, tasks, store_dir)
        assert table_bytes(merged) == table_bytes(reference.completed_outcomes())

    def test_fault_accounting_is_deterministic(self, tmp_path):
        """A permanent crash, a one-shot error and a permanent hang on two
        workers give the same retry count and roster on every run.  The
        first two cells start together, so the error's one attempt runs
        beside the crash; it must be blamed on the error cell however the
        two interleave."""
        tasks = make_tasks(
            ["G17"], ["P1", "P2"], [PolicySpec("FR-FCFS"), PolicySpec("F3FS")], (1,)
        )
        schedule = {
            "G17|P1|FR-FCFS|vc1": FaultSpec("crash", times=-1),
            "G17|P2|FR-FCFS|vc1": FaultSpec("error", times=1),
            "G17|P2|F3FS|vc1": FaultSpec("hang", times=-1),
        }
        for run in range(3):
            store_dir = str(tmp_path / f"s{run}")
            report = run_sweep(
                TINY,
                tasks,
                store_dir=store_dir,
                max_workers=2,
                cell_timeout=1.0,
                retry=RetryPolicy(retries=1, backoff_base=0.0),
                faults=plan(tmp_path / f"f{run}", schedule, hang_seconds=30.0),
            )
            doc = read_status(store_dir)
            assert doc["retries"] == 3, run
            roster = sorted((f["label"], f["kind"], f["attempts"]) for f in doc["quarantined"])
            assert roster == [
                ("G17|P1|FR-FCFS|vc1", "crash", 2),
                ("G17|P2|F3FS|vc1", "timeout", 2),
            ]
            assert report.completed == 2

    def test_transient_error_retries_to_success(self, tmp_path):
        tasks = tiny_tasks()[:2]
        faults = plan(tmp_path, {tasks[0].label: FaultSpec("error", times=2)})
        report = run_sweep(TINY, tasks, max_workers=2, faults=faults, retry=FAST)
        assert report.completed == 2
        assert not report.failed_outcomes
        retried = [e for e in report.retry_events if e["kind"] == "retry"]
        assert len(retried) == 2
        assert all(e["label"] == tasks[0].label for e in retried)

    def test_corrupted_store_write_recomputes_on_resume(self, tmp_path):
        tasks = tiny_tasks()[:2]
        store_dir = str(tmp_path / "s")
        faults = plan(tmp_path, {tasks[0].label: FaultSpec("corrupt", times=1)})
        first = run_sweep(
            TINY, tasks, store_dir=store_dir, max_workers=2, faults=faults
        )
        assert first.completed == 2  # corruption happens after the result
        # The corrupted object is a checksummed miss, not a wrong result.
        store = ResultStore(store_dir)
        assert store.get(cell_key(TINY, tasks[0])) is None
        resumed = run_sweep(TINY, tasks, store_dir=store_dir)
        assert resumed.hits == 1 and resumed.misses == 1
        reference = run_sweep(TINY, tasks, store_dir=str(tmp_path / "ref"))
        assert table_bytes(resumed.completed_outcomes()) == table_bytes(
            reference.completed_outcomes()
        )

    def test_corrupt_helper_defeats_checksum(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        store.put("ab" * 32, {"x": 1}, meta={"kind": "competitive"})
        corrupt_store_object(store, "ab" * 32)
        assert store.get("ab" * 32) is None
        assert store.stats.corrupt == 1

    def test_env_var_activates_plan(self, tmp_path, monkeypatch):
        tasks = tiny_tasks()[:1]
        p = plan(tmp_path, {tasks[0].label: FaultSpec("error", times=1)})
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(p.to_payload()))
        monkeypatch.setenv("REPRO_FAULTS", str(path))
        report = run_sweep(TINY, tasks, retry=FAST)
        assert report.completed == 1
        assert len(report.retry_events) == 1

    def test_abort_after_works_under_supervision(self, tmp_path):
        tasks = tiny_tasks()
        store_dir = str(tmp_path / "s")
        with pytest.raises(SweepAborted):
            run_sweep(TINY, tasks, store_dir=store_dir, max_workers=2, abort_after=2)
        resumed = run_sweep(TINY, tasks, store_dir=store_dir, max_workers=2)
        assert resumed.hits >= 2


def _install_plan(payload):
    # Pool initializer (module-level for pickling): arm the fault plan.
    fault_injection.install(FaultPlan.from_payload(payload))


def _fault_driven(label):
    # Worker fn: behave per the installed plan's schedule for this label.
    plan_ = fault_injection.active()
    kind = plan_.claim(label) if plan_ is not None else None
    if kind == "hang":
        time.sleep(plan_.hang_seconds)
    elif kind == "error":
        raise FaultInjected(f"transient {label}")
    elif kind == "crash":
        fault_injection.crash_worker()
    return f"ok:{label}"


def _logged(log_dir, label):
    """Worker fn: log this execution's pid to the cell's file, then act on
    the label: ``crash*`` dies, ``hang*`` sleeps, ``pickle*`` returns a
    reply that does not pickle, ``unpickle*`` raises an exception that
    does not unpickle, and anything else naps briefly and succeeds."""
    with (Path(log_dir) / label).open("a") as fh:
        fh.write(f"{os.getpid()}\n")
    if label.startswith("crash"):
        time.sleep(0.1)
        fault_injection.crash_worker()
    if label.startswith("hang"):
        time.sleep(60)
    if label.startswith("pickle"):
        return threading.Lock()
    if label.startswith("unpickle"):
        raise _TwoArgError(label, "no")
    time.sleep(0.4)
    return f"ok:{label}"


class _TwoArgError(Exception):
    """Pickles as ``(cls, (label,))``, so unpickling it raises TypeError."""

    def __init__(self, label, why):
        super().__init__(label)


def executions(log_dir):
    """``{label: [pid per execution]}`` from :func:`_logged`'s files."""
    return {
        path.name: [int(pid) for pid in path.read_text().split()]
        for path in Path(log_dir).iterdir()
    }


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def bounded_run(supervisor, items, on_result, timeout=60):
    """``supervisor.run`` on a thread with a deadline, so a run that never
    returns fails the test instead of hanging it; re-raises what it raised."""
    raised = []

    def target():
        try:
            supervisor.run(items, on_result)
        except BaseException as exc:  # handed to the test thread below
            raised.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "Supervisor.run did not return"
    if raised:
        raise raised[0]


class TestPerWorkerAttribution:
    """Each worker process holds one cell, so a crash or a timeout blames
    exactly that cell and never re-runs a neighbour."""

    def supervisor(self, tmp_path, **kwargs):
        log_dir = tmp_path / "runs"
        log_dir.mkdir()
        kwargs.setdefault("retry", RetryPolicy(retries=1, backoff_base=0.0))
        return log_dir, Supervisor(
            functools.partial(_logged, str(log_dir)), max_workers=2, tick=0.02, **kwargs
        )

    def test_crash_blames_only_its_own_cell(self, tmp_path):
        log_dir, supervisor = self.supervisor(tmp_path)
        in_flight_at_quarantine = []
        supervisor.on_quarantine = lambda failure: in_flight_at_quarantine.append(
            [cell["label"] for cell in supervisor.table.in_flight()]
        )
        results = {}
        bounded_run(supervisor, ["crash", "nap"], results.__setitem__)
        assert results == {1: "ok:nap"}
        (failure,) = supervisor.failures
        assert (failure.label, failure.kind, failure.attempts) == ("crash", "crash", 2)
        # The neighbour was in flight through both crashes and ran once.
        assert in_flight_at_quarantine == [["nap"]]
        assert [e["label"] for e in supervisor.events] == ["crash"]
        runs = executions(log_dir)
        assert len(runs["nap"]) == 1
        assert len(set(runs["crash"])) == 2  # each crash replaced its worker

    def test_timeout_kills_only_the_overdue_worker(self, tmp_path):
        log_dir, supervisor = self.supervisor(
            tmp_path, cell_timeout=1.5, retry=RetryPolicy(retries=0, backoff_base=0.0)
        )
        in_flight_at_quarantine = []
        supervisor.on_quarantine = lambda failure: in_flight_at_quarantine.extend(
            cell["label"] for cell in supervisor.table.in_flight()
        )
        naps = [f"nap{i}" for i in range(5)]  # 2 s of work on the other worker
        results = {}
        bounded_run(supervisor, ["hang", *naps], results.__setitem__)
        assert sorted(results.values()) == [f"ok:{label}" for label in naps]
        (failure,) = supervisor.failures
        assert (failure.label, failure.kind, failure.attempts) == ("hang", "timeout", 1)
        runs = executions(log_dir)
        assert all(len(runs[label]) == 1 for label in naps)
        # The nap running when the hang was killed finished on the worker
        # that ran the first nap: the kill never touched that process.
        (bystander,) = in_flight_at_quarantine
        assert runs[bystander] == runs[naps[0]] != runs["hang"]

    @pytest.mark.parametrize("label", ["pickle", "unpickle"])
    def test_reply_that_does_not_pickle_is_an_error(self, tmp_path, label):
        log_dir, supervisor = self.supervisor(tmp_path)
        bounded_run(supervisor, [label, "nap"], lambda i, r: None)
        (failure,) = supervisor.failures
        assert (failure.label, failure.kind, failure.attempts) == (label, "error", 2)
        assert f"does not {label}" in failure.message
        assert len(executions(log_dir)["nap"]) == 1

    def test_no_worker_outlives_run(self, tmp_path):
        log_dir, supervisor = self.supervisor(tmp_path)
        bounded_run(supervisor, ["nap0", "nap1", "nap2"], lambda i, r: None)
        pids = {pid for runs in executions(log_dir).values() for pid in runs}
        assert len(pids) == 2 and not any(alive(pid) for pid in pids)

    def test_no_worker_outlives_an_abort(self, tmp_path):
        """An abort from ``on_result`` kills the worker still running a
        hung cell and joins it before the exception propagates."""
        log_dir, supervisor = self.supervisor(tmp_path)

        def abort(index, result):
            raise SweepAborted(1)

        with pytest.raises(SweepAborted):
            bounded_run(supervisor, ["hang", "nap"], abort, timeout=30)
        pids = {pid for runs in executions(log_dir).values() for pid in runs}
        assert len(pids) == 2 and not any(alive(pid) for pid in pids)


class TestHeartbeatQuarantineInteraction:
    """A hanging cell must be visible in-flight, then quarantined — and
    never heartbeat again once quarantined.

    Property-style: the invariant is asserted over the supervisor's full
    interleaved heartbeat/quarantine timeline for several deterministic
    fault schedules, not one hand-picked trace.
    """

    SCHEDULES = [
        {"b": FaultSpec("hang", times=-1)},
        {"a": FaultSpec("hang", times=-1), "c": FaultSpec("error", times=1)},
        {"b": FaultSpec("hang", times=-1), "d": FaultSpec("hang", times=-1)},
        {"c": FaultSpec("hang", times=-1), "a": FaultSpec("crash", times=-1)},
    ]

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: "+".join(sorted(s)))
    def test_in_flight_then_quarantined_never_both(self, tmp_path, schedule):
        fault_plan = plan(tmp_path, schedule, hang_seconds=30.0)
        timeline = []  # ordered ("hb", labels) / ("q", label) events
        supervisor = Supervisor(
            _fault_driven,
            max_workers=2,
            cell_timeout=0.5,
            retry=RetryPolicy(retries=1, backoff_base=0.0),
            tick=0.02,
            initializer=_install_plan,
            initargs=(fault_plan.to_payload(),),
        )
        supervisor.on_heartbeat = lambda cells: timeline.append(
            ("hb", tuple(sorted(c["label"] for c in cells)))
        )
        supervisor.on_quarantine = lambda failure: timeline.append(
            ("q", failure.label)
        )
        results = {}
        supervisor.run(list("abcd"), lambda i, r: results.__setitem__(i, r))

        poisoned = {
            label for label, spec in schedule.items()
            if spec.kind in ("hang", "crash") and spec.times == -1
        }
        assert {f.label for f in supervisor.failures} == poisoned
        for failure in supervisor.failures:
            if schedule[failure.label].kind == "hang":
                assert failure.kind == "timeout"

        # The invariant: once a label is quarantined, no later heartbeat
        # snapshot may contain it ("in flight" and "quarantined" are
        # mutually exclusive, in that order).
        dead = set()
        seen_in_flight = set()
        for event, payload in timeline:
            if event == "q":
                dead.add(payload)
            else:
                overlap = set(payload) & dead
                assert not overlap, f"{overlap} heartbeating after quarantine"
                seen_in_flight.update(payload)

        # Every hanging cell was observably in flight before it died —
        # the heartbeat is how an operator sees the hang happening.
        hangs = {l for l, spec in schedule.items() if spec.kind == "hang"}
        assert hangs <= seen_in_flight

        # Healthy cells (including the healed transient) all completed.
        assert {r.split(":")[1] for r in results.values()} == set("abcd") - poisoned


class TestSerialQuarantine:
    def test_config_error_quarantined_in_process(self):
        """A bad cell config fails deterministically: one attempt, kind
        'config', healthy cells still complete — all without a pool."""
        good = tiny_tasks()[:1]
        bad = GridTask(
            gpu_id="G17",
            pim_id="P1",
            policy_name="F3FS",
            policy_params=(("mem_cap", 0), ("pim_cap", 1)),
            num_vcs=1,
        )
        report = run_sweep(TINY, [bad, *good], retry=FAST)
        assert report.completed == 1
        (failure,) = report.failed_outcomes
        assert isinstance(failure, CellFailure)
        assert failure.kind == "config"
        assert failure.attempts == 1
        assert failure.index == 0
        assert "mem_cap" in failure.message

    def test_sweep_point_raises_on_failure(self, tmp_path, monkeypatch):
        """A point table's row needs every cell for its mean, so a
        quarantined cell raises instead of degrading gracefully."""
        bad = PolicySpec("F3FS", mem_cap=0, pim_cap=1)  # a config error in every cell
        table = points_figure([({"mem_cap": 0}, bad, ())], ["mem_cap", "fairness"])
        monkeypatch.setitem(FIGURES, "bad_caps", table)
        with pytest.raises(RuntimeError, match="failed after retries"):
            figure_table("bad_caps", TINY, ["G17"], ["P1"], store_dir=str(tmp_path / "s"))


class TestConfigValidation:
    """Bare asserts replaced by ValueErrors that name the field."""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_channels", 0),
            ("gpu_sms_full", -1),
            ("pim_sms", 0),
            ("max_cycles", 0),
            ("noc_queue_size", 0),
            ("starvation_factor", 0),
            ("seed", -1),
            ("workload_scale", 0),
            ("num_channels", 2.5),
            ("num_channels", True),
        ],
    )
    def test_experiment_scale_names_offending_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentScale(**{field: value})

    def test_f3fs_caps_name_field_and_value(self):
        with pytest.raises(ValueError, match=r"mem_cap must be >= 1 \(got 0\)"):
            PolicySpec("F3FS", mem_cap=0, pim_cap=4).create()
        with pytest.raises(ValueError, match=r"pim_cap must be >= 1 \(got -2\)"):
            PolicySpec("F3FS", mem_cap=4, pim_cap=-2).create()

    def test_frfcfs_cap_names_field(self):
        with pytest.raises(ValueError, match=r"cap must be >= 1 \(got 0\)"):
            PolicySpec("FR-FCFS-Cap", cap=0).create()

    def test_vc_buffer_names_fields(self):
        from repro.noc.vc import VCBuffer

        with pytest.raises(ValueError, match=r"num_vcs must be 1 or 2 \(got 3\)"):
            VCBuffer(total_capacity=8, num_vcs=3)
        with pytest.raises(ValueError, match=r"total_capacity must be >= num_vcs=2"):
            VCBuffer(total_capacity=1, num_vcs=2)
