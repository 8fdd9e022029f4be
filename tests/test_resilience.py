"""Fault-tolerant sweep execution: supervisor, retries, quarantine, faults.

The acceptance story: a sweep with injected crashes, a hang, transient
errors, and store corruption still completes every healthy cell,
quarantines only the truly poisoned ones, journals them, and — resumed
fault-free — produces a merged table byte-identical to a clean run.
"""

import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

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
from repro.resilience import FaultInjected, FaultPlan, FaultSpec, Supervisor
from repro.resilience import faults as fault_injection
from repro.resilience.faults import corrupt_store_object
from repro.resilience.supervisor import _PoolHandle
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
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestFaultPlan:
    def test_claim_counts_persist_on_disk(self, tmp_path):
        p = plan(tmp_path, {"a": FaultSpec("error", times=2)})
        assert p.claim("a") == "error"
        # A fresh deserialized plan (a respawned worker) sees the count.
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


    def test_refused_submit_counts_as_a_crash_of_the_cohort(self):
        """A pool that breaks between a wait and the next refill refuses
        the submit.  That is a crash of the cells in flight plus the one
        being leased, not a BrokenProcessPool escaping the sweep."""
        submits = itertools.count(1)

        class RefusesSecondSubmit(ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                if next(submits) == 2:
                    raise BrokenProcessPool("pool broke before this submit")
                return super().submit(fn, *args, **kwargs)

        class ThreadSupervisor(Supervisor):
            def _spawn(self):
                return _PoolHandle(RefusesSecondSubmit(max_workers=self.max_workers))

        supervisor = ThreadSupervisor(_echo, max_workers=2, retry=FAST)
        results = {}
        supervisor.run(["a", "b", "c"], lambda i, r: results.__setitem__(i, r))
        assert results == {0: "ok:a", 1: "ok:b", 2: "ok:c"}
        assert not supervisor.failures
        # Two cells went down together: released unblamed as suspects.
        suspects = sorted(e["label"] for e in supervisor.events if e["kind"] == "suspect")
        assert suspects == ["a", "b"]
        assert supervisor.respawns == 1


def _echo(label):
    return f"ok:{label}"


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


def _crash_or_nap(label):
    # Worker fn: crash if the installed plan says so, else nap briefly so
    # cells overlap in the pool.
    plan_ = fault_injection.active()
    if plan_ is not None and plan_.claim(label) == "crash":
        fault_injection.crash_worker()
    time.sleep(0.3)
    return f"ok:{label}"


class TestSuspectIsolation:
    def test_window_returns_to_max_workers_after_suspects_resolve(self, tmp_path):
        """An unattributable crash isolates its cohort one cell at a time;
        once every suspect has resolved the pool runs full width again."""
        fault_plan = plan(tmp_path, {"a": FaultSpec("crash", times=1)})
        timeline = []  # ("hb", in-flight labels) / ("ok", label), in order
        supervisor = Supervisor(
            _crash_or_nap,
            max_workers=2,
            retry=FAST,
            tick=0.02,
            initializer=_install_plan,
            initargs=(fault_plan.to_payload(),),
        )
        supervisor.on_heartbeat = lambda cells: timeline.append(
            ("hb", tuple(sorted(c["label"] for c in cells)))
        )
        # On a thread with a deadline: a suspect count that never drains
        # keeps the pool in isolation forever, which must fail, not hang.
        run = threading.Thread(
            target=supervisor.run,
            args=(list("abcdef"), lambda i, r: timeline.append(("ok", r.split(":")[1]))),
            daemon=True,
        )
        run.start()
        run.join(60)
        assert not run.is_alive(), "suspect isolation never ended"
        assert not supervisor.failures
        suspects = {e["label"] for e in supervisor.events if e["kind"] == "suspect"}
        assert suspects == {"a", "b"}  # the crash took both in-flight cells
        resolved_at = max(
            i for i, (event, label) in enumerate(timeline)
            if event == "ok" and label in suspects
        )
        widths = [len(cells) for event, cells in timeline[resolved_at:] if event == "hb"]
        assert max(widths) == 2


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
