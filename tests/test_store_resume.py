"""Determinism battery: resumable and sharded sweeps through the store.

The store's contract is that *how* a grid gets computed — in one shot,
interrupted and resumed, split across shards, serial or parallel — is
invisible in the result: the merged table is byte-identical in every
case.  These tests state that contract over the canonical sweep rows
(JSON) and the formatted table (text), with a stale
``REPRO_FAST_FORWARD=0/1`` from older releases in the environment (the
engine no longer reads it, so it must change nothing).
"""

import json
import time
from dataclasses import asdict

import pytest

from repro.core.policies import PolicySpec
from repro.experiments import (
    ExperimentScale,
    SweepAborted,
    collect_from_store,
    format_table,
    run_sweep,
    shard_indices,
    sweep_rows,
)
from repro.experiments.parallel import make_tasks
from repro.store import ResultStore

TINY = ExperimentScale(
    num_channels=4,
    gpu_sms_full=4,
    gpu_sms_corun=3,
    pim_sms=1,
    workload_scale=0.05,
    starvation_factor=10,
)


def tiny_tasks():
    return make_tasks(
        ["G17"], ["P1", "P2"], [PolicySpec("FR-FCFS"), PolicySpec("F3FS")], (1,)
    )


def table_bytes(outcomes) -> bytes:
    """The merged table in both canonical forms, as bytes."""
    rows = sweep_rows(outcomes)
    return (
        json.dumps(rows, sort_keys=True) + "\n" + format_table(rows, list(rows[0]))
    ).encode()


class TestShardIndices:
    def test_partition_is_exact(self):
        shards = [shard_indices(10, (i, 3)) for i in range(3)]
        flat = sorted(index for shard in shards for index in shard)
        assert flat == list(range(10))

    def test_none_means_all(self):
        assert shard_indices(4, None) == [0, 1, 2, 3]

    def test_invalid_shards_rejected(self):
        with pytest.raises(ValueError):
            shard_indices(4, (3, 3))
        with pytest.raises(ValueError):
            shard_indices(4, (0, 0))


class TestCrashResume:
    @pytest.mark.parametrize("fast_forward", ["0", "1"])
    def test_interrupted_then_resumed_is_byte_identical(
        self, tmp_path, monkeypatch, fast_forward
    ):
        """Abort after 2 of 4 cells, resume, compare with uninterrupted."""
        monkeypatch.setenv("REPRO_FAST_FORWARD", fast_forward)
        tasks = tiny_tasks()

        reference = run_sweep(TINY, tasks, store_dir=str(tmp_path / "ref"))
        assert reference.misses == len(tasks)

        interrupted = str(tmp_path / "interrupted")
        with pytest.raises(SweepAborted) as excinfo:
            run_sweep(TINY, tasks, store_dir=interrupted, abort_after=2)
        assert excinfo.value.completed == 2

        resumed = run_sweep(TINY, tasks, store_dir=interrupted)
        assert resumed.hits == 2
        assert resumed.misses == len(tasks) - 2
        assert table_bytes(resumed.completed_outcomes()) == table_bytes(
            reference.completed_outcomes()
        )
        # The merged-from-store table is the same bytes again.
        merged = collect_from_store(TINY, tasks, interrupted)
        assert table_bytes(merged) == table_bytes(reference.completed_outcomes())

    def test_abort_persists_completed_cells(self, tmp_path):
        tasks = tiny_tasks()
        store_dir = str(tmp_path / "s")
        with pytest.raises(SweepAborted):
            run_sweep(TINY, tasks, store_dir=store_dir, abort_after=1)
        with pytest.raises(KeyError):  # partial grids must not merge silently
            collect_from_store(TINY, tasks, store_dir)

    @pytest.mark.parametrize("fast_forward", ["0", "1"])
    def test_abort_within_shard_then_resume_and_merge(
        self, tmp_path, monkeypatch, fast_forward
    ):
        """SweepAborted mid-shard: the shard resumes on its own cells
        only, and the cross-shard merge is still byte-identical."""
        monkeypatch.setenv("REPRO_FAST_FORWARD", fast_forward)
        tasks = tiny_tasks()
        reference = run_sweep(TINY, tasks, store_dir=str(tmp_path / "ref"))

        shared = str(tmp_path / "shared")
        with pytest.raises(SweepAborted) as excinfo:
            run_sweep(TINY, tasks, store_dir=shared, shard=(0, 2), abort_after=1)
        assert excinfo.value.completed == 1

        resumed = run_sweep(TINY, tasks, store_dir=shared, shard=(0, 2))
        assert resumed.hits == 1
        assert resumed.misses == len(shard_indices(len(tasks), (0, 2))) - 1
        # The aborted shard never touched the other shard's cells.
        with pytest.raises(KeyError):
            collect_from_store(TINY, tasks, shared)

        other = run_sweep(TINY, tasks, store_dir=shared, shard=(1, 2))
        assert other.misses == len(shard_indices(len(tasks), (1, 2)))
        merged = collect_from_store(TINY, tasks, shared)
        assert table_bytes(merged) == table_bytes(reference.completed_outcomes())


class TestShardMerge:
    def test_three_way_shard_merges_byte_identical(self, tmp_path):
        tasks = tiny_tasks()
        reference = run_sweep(TINY, tasks, store_dir=str(tmp_path / "ref"))

        shared = str(tmp_path / "shared")
        reports = [
            run_sweep(
                TINY,
                tasks,
                store_dir=shared,
                shard=(i, 3),
                collect_perf=True,
                max_workers=2 if i == 0 else 1,
            )
            for i in range(3)
        ]
        assert sum(r.completed for r in reports) == len(tasks)
        # Shards never overlap: every cell simulated exactly once.
        assert sum(r.misses for r in reports) == len(tasks)

        merged = collect_from_store(TINY, tasks, shared)
        assert table_bytes(merged) == table_bytes(reference.completed_outcomes())

        # Counter aggregation across shards: fold the per-shard engine
        # stage counters into one set.
        from repro.perf.counters import EngineCounters

        total = EngineCounters()
        for report in reports:
            assert report.counters is not None
            total.merge(report.counters)
        assert total.calls.get("controllers", 0) > 0

    def test_collect_perf_counts_store_writes(self, tmp_path):
        tasks = tiny_tasks()[:1]
        report = run_sweep(
            TINY,
            tasks,
            max_workers=1,
            collect_perf=True,
            store_dir=str(tmp_path / "s"),
        )
        assert report.completed == 1
        # The store's own accounting counts the write: one miss, one put.
        assert report.misses == 1
        journal = ResultStore(tmp_path / "s").journal_entries()
        assert [e["kind"] for e in journal if e["event"] == "put"].count("competitive") == 1
        assert report.counters.calls.get("controllers", 0) > 0


class TestWarmCache:
    def test_warm_rerun_is_all_hits_and_fast(self, tmp_path):
        tasks = tiny_tasks()
        store_dir = str(tmp_path / "warm")

        started = time.perf_counter()
        cold = run_sweep(TINY, tasks, store_dir=store_dir)
        cold_seconds = time.perf_counter() - started
        assert cold.misses == len(tasks)

        started = time.perf_counter()
        warm = run_sweep(TINY, tasks, store_dir=store_dir)
        warm_seconds = time.perf_counter() - started
        assert warm.hits == len(tasks)
        assert warm.misses == 0
        assert table_bytes(warm.completed_outcomes()) == table_bytes(
            cold.completed_outcomes()
        )
        # The acceptance bar is >= 10x; assert a conservative 5x so the
        # test is immune to CI noise (observed: >100x).
        assert warm_seconds * 5 < cold_seconds

    @pytest.mark.parametrize("with_store", [True, False], ids=["store", "no-store"])
    def test_memoized_duplicate_is_a_hit(self, tmp_path, with_store):
        """A repeated cell comes from the runner's memory: one hit, one
        simulation, whether or not a store is attached."""
        tasks = make_tasks(["G17", "G17"], ["P1"], [PolicySpec("FR-FCFS")], (1,))
        report = run_sweep(TINY, tasks, store_dir=str(tmp_path / "s") if with_store else None)
        assert (report.hits, report.misses) == (1, 1)
        assert report.outcomes[0] == report.outcomes[1]

    def test_fresh_recomputes_but_matches(self, tmp_path):
        tasks = tiny_tasks()[:2]
        store_dir = str(tmp_path / "s")
        first = run_sweep(TINY, tasks, store_dir=store_dir)
        fresh = run_sweep(TINY, tasks, store_dir=store_dir, fresh=True)
        assert fresh.misses == len(tasks)  # bypassed reads
        assert table_bytes(fresh.completed_outcomes()) == table_bytes(
            first.completed_outcomes()
        )

    def test_store_and_storeless_runs_agree(self, tmp_path):
        tasks = tiny_tasks()[:2]
        plain = run_sweep(TINY, tasks, max_workers=1).outcomes
        stored = run_sweep(
            TINY, tasks, max_workers=1, store_dir=str(tmp_path / "s")
        ).outcomes
        assert [asdict(a) for a in plain] == [asdict(b) for b in stored]
