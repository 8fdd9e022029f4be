"""Tests for the parallel grid runner and result export."""

import csv
import json

import pytest

from repro.core.policies import PolicySpec
from repro.experiments import ExperimentScale
from repro.experiments.parallel import GridTask, make_tasks, run_sweep
from repro.sim.export import (
    load_result_json,
    result_to_dict,
    save_kernels_csv,
    save_result_json,
    save_rows_csv,
)
from repro.sim.results import KernelResult, SimResult

TINY = ExperimentScale(
    num_channels=4,
    gpu_sms_full=4,
    gpu_sms_corun=3,
    pim_sms=1,
    workload_scale=0.05,
    starvation_factor=10,
)


class TestMakeTasks:
    def test_grid_size(self):
        tasks = make_tasks(
            ["G17", "G19"], ["P1"], [PolicySpec("F3FS"), PolicySpec("FCFS")], (1, 2)
        )
        assert len(tasks) == 2 * 1 * 2 * 2

    def test_tasks_are_picklable(self):
        import pickle

        task = make_tasks(["G17"], ["P1"], [PolicySpec("F3FS", mem_cap=8)])[0]
        clone = pickle.loads(pickle.dumps(task))
        assert clone.policy.params == {"mem_cap": 8}


class TestRunGrid:
    def test_serial_worker(self):
        tasks = make_tasks(["G17"], ["P2"], [PolicySpec("F3FS")], (2,))
        outcomes = run_sweep(TINY, tasks, max_workers=1).outcomes
        assert len(outcomes) == 1
        assert outcomes[0].gpu_id == "G17"
        assert outcomes[0].throughput > 0

    def test_parallel_workers_match_serial(self):
        tasks = make_tasks(["G17"], ["P1", "P2"], [PolicySpec("FR-FCFS")], (2,))
        serial = run_sweep(TINY, tasks, max_workers=1).outcomes
        parallel = run_sweep(TINY, tasks, max_workers=2).outcomes
        assert [o.gpu_speedup for o in serial] == [o.gpu_speedup for o in parallel]
        assert [o.pim_speedup for o in serial] == [o.pim_speedup for o in parallel]

    def test_validation(self):
        with pytest.raises(ValueError):
            run_sweep(TINY, [], max_workers=0)


def make_result():
    result = SimResult(cycles=1000)
    result.kernels[0] = KernelResult(
        kernel_id=0, name="a", is_pim=False, first_duration=500,
        requests_injected=100, mc_arrivals=60, l2_accesses=90, l2_hits=30,
        dram_row_hits=40, dram_row_misses=10, dram_row_conflicts=10,
    )
    result.kernels[1] = KernelResult(kernel_id=1, name="b", is_pim=True, first_duration=250)
    return result


class TestExport:
    def test_json_roundtrip(self, tmp_path):
        result = make_result()
        path = tmp_path / "result.json"
        save_result_json(result, path)
        loaded = load_result_json(path)
        assert loaded["cycles"] == 1000
        assert len(loaded["kernels"]) == 2
        assert loaded["kernels"][0]["row_buffer_hit_rate"] == pytest.approx(40 / 60)

    def test_dict_is_json_serializable(self):
        json.dumps(result_to_dict(make_result()))

    def test_kernels_csv(self, tmp_path):
        path = tmp_path / "kernels.csv"
        save_kernels_csv(make_result(), path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["name"] == "a"
        assert int(rows[1]["first_duration"]) == 250

    def test_rows_csv_union_of_keys(self, tmp_path):
        path = tmp_path / "rows.csv"
        save_rows_csv([{"a": 1}, {"b": 2}], path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0].keys()) == {"a", "b"}

    def test_rows_csv_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            save_rows_csv([], tmp_path / "x.csv")
