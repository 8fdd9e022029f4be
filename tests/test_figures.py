"""Tests for the per-figure experiment harnesses (tiny configurations).

Every figure is a cell list plus a pure reduction; these tests run the
cells through one module-wide result store, so figures sharing cells
simulate them once.
"""

import pytest

from repro.experiments import (
    FIGURES,
    ExperimentScale,
    fig14b_queue_sensitivity,
    figure_table,
    run_cells,
    run_sweep,
)
from repro.sim.system import GPUSystem

TINY = ExperimentScale(
    num_channels=4,
    gpu_sms_full=4,
    gpu_sms_corun=3,
    pim_sms=1,
    workload_scale=0.05,
    starvation_factor=10,
)
GPUS = ["G17"]
PIMS = ["P2"]
POLICIES = ["FR-FCFS", "F3FS"]


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return str(tmp_path_factory.mktemp("store"))


def reduce(store, name, *subsets, **options):
    """Figure ``name``'s data: its cells through the store, then its reduction."""
    figure = FIGURES[name]
    outcomes = run_cells(TINY, figure.cells(*subsets, **options), store)
    return figure.reduce(outcomes, *subsets, **options)


class TestFig4:
    def test_structure(self, store):
        data = reduce(store, "fig4", GPUS, PIMS)
        assert set(data) == {"GPU-80", "GPU-8", "PIM"}
        for metrics in data["PIM"].values():
            assert metrics["blp"] == pytest.approx(16.0)
            assert 0 <= metrics["rbhr"] <= 1


class TestFig5:
    def test_structure(self, store):
        data = reduce(store, "fig5", GPUS, gpu_corunners=("G10",))
        assert set(data) == {"none", "G10", "P1"}
        assert all(v > 0 for v in data.values())


class TestFig6:
    def test_structure(self, store):
        data = reduce(store, "fig6", GPUS, PIMS, POLICIES, vc_configs=(2,))
        assert set(data) == {2}
        assert set(data[2]) == set(POLICIES)
        for per_gpu in data[2].values():
            assert set(per_gpu) == set(GPUS)


class TestFig8:
    def test_structure_and_bounds(self, store):
        data = reduce(store, "fig8", GPUS, PIMS, POLICIES, vc_configs=(2,))
        for per_pim in data[2].values():
            for metrics in per_pim.values():
                assert 0 <= metrics["fairness"] <= 1
                assert metrics["throughput"] >= 0
                assert metrics["throughput"] == pytest.approx(
                    metrics["mem_speedup"] + metrics["pim_speedup"]
                )


class TestFig10:
    def test_fcfs_is_baseline(self, store):
        data = reduce(store, "fig10", GPUS, PIMS, POLICIES, vc_configs=(2,))
        assert data[2]["FCFS"]["switches_vs_fcfs"] == pytest.approx(1.0)
        for metrics in data[2].values():
            assert metrics["drain_latency"] >= 0

    def test_fcfs_added_if_missing(self, store):
        data = reduce(store, "fig10", GPUS, PIMS, ["F3FS"], vc_configs=(2,))
        assert "FCFS" in data[2]


class TestFig11:
    def test_ideal_bounds_everything(self, store):
        """At ``TINY`` (scale 0.05, 4/3/1 SMs, VC2) no policy beats Ideal.

        This holds at this scale, not at every one: at scale 0.03 with 4
        channels and the default SMs the QKV co-run finishes sooner than
        QKV alone, and F3FS/FR-FCFS exceed Ideal (EXPERIMENTS.md, Figure 11).
        """
        data = reduce(store, "fig11", GPUS, PIMS, POLICIES, vc_configs=(2,))
        ideal = data[2]["Ideal"]
        for name, value in data[2].items():
            assert value <= ideal + 1e-9


class TestFig13:
    def test_structure(self, store):
        data = reduce(store, "fig13", ["G10"], PIMS, POLICIES, vc_configs=(2,))
        assert set(data[2]) == set(POLICIES)
        assert set(data[2]["F3FS"]) == {"G10"}


class TestFig14:
    def test_ablation_rows(self, store):
        rows = reduce(store, "fig14a", GPUS, pim_id="P2")
        assert len(rows) == 4
        labels = [row["label"] for row in rows]
        assert labels[0] == "FR-FCFS-Cap"
        for row in rows:
            assert 0 <= row["fairness"] <= 1

    def test_ablation_excludes_kmeans(self, store):
        cells = FIGURES["fig14a"].cells(["G17", "G11"])
        # G11 (kmeans) is excluded per the paper's methodology; only G17
        # runs, so this completes quickly and produces valid rows.
        assert not any(cell.gpu_id == "G11" for cell in cells)
        assert len(reduce(store, "fig14a", ["G17", "G11"])) == 4

    def test_queue_sensitivity(self, store):
        data = fig14b_queue_sensitivity(TINY, (16, 32), GPUS, PIMS, store_dir=store)
        assert set(data) == {16, 32}
        for metrics in data.values():
            assert 0 <= metrics["fairness"] <= 1


class TestFigureTables:
    SUBSETS = (GPUS, PIMS, POLICIES)

    def test_warm_figure_runs_no_simulation(self, store, monkeypatch):
        """Once a store holds a figure's cells, rendering it again reads
        them back: no simulation runs, and the rows are the same."""
        cold = {name: figure_table(name, TINY, *self.SUBSETS, store_dir=store) for name in FIGURES}

        def no_simulation(*args, **kwargs):
            raise AssertionError("a warm figure ran a simulation")

        monkeypatch.setattr(GPUSystem, "run", no_simulation)
        for name, (_, rows, columns) in cold.items():
            _, warm_rows, warm_columns = figure_table(name, TINY, *self.SUBSETS, store_dir=store)
            assert (warm_rows, warm_columns) == (rows, columns), name
            report = run_sweep(TINY, FIGURES[name].cells(*self.SUBSETS), store_dir=store)
            assert report.misses == 0 and report.failed == 0, name

    def test_failed_cell_names_itself_and_renders_nothing(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("broken engine")

        monkeypatch.setattr(GPUSystem, "run", broken)
        with pytest.raises(RuntimeError, match="failed after retries") as failure:
            figure_table("fig11", TINY, policies=["FR-FCFS"], store_dir=str(tmp_path))
        assert "collaborative:llm-qkv|llm-mha|FR-FCFS|vc1 (config: broken engine)" in str(failure.value)
