"""Figure 5: slowdown of the Rodinia suite under different co-runners.

The suite runs on the co-run SM allocation while one of four
memory-intensive GPU kernels or the STREAM-Add PIM kernel occupies the
small allocation.  Paper shape: the PIM co-runner degrades the suite far
more than any GPU co-runner (60% vs a worst case of 30%), and most of the
GPU-co-runner loss is explained by the reduced SM count alone.
"""

from conftest import FULL, GPU_SUBSET, experiment_scale, write_result

from repro.experiments import FIGURES, format_table, run_cells
from repro.experiments.figures import FIG5_GPU_CORUNNERS

GPU_CORUNNERS = ("G4", "G6", "G15", "G17") if FULL else FIG5_GPU_CORUNNERS


def test_fig05_corun_slowdown(store_dir, benchmark, results_dir):
    fig5 = FIGURES["fig5"]

    def run():
        cells = fig5.cells(GPU_SUBSET, gpu_corunners=GPU_CORUNNERS, pim_corunner="P1")
        outcomes = run_cells(experiment_scale(), cells, store_dir)
        return fig5.reduce(outcomes, GPU_SUBSET, gpu_corunners=GPU_CORUNNERS, pim_corunner="P1")

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(
        results_dir, "fig05_corun_slowdown", format_table(fig5.rows(data), fig5.columns(GPU_SUBSET))
    )

    # The PIM co-runner hurts far more than any GPU co-runner.
    gpu_interference = [data[g] for g in GPU_CORUNNERS]
    assert data["P1"] < min(gpu_interference)
    # Reduced SM count alone ("none") costs less than actual contention.
    assert data["none"] >= max(gpu_interference) * 0.95
    benchmark.extra_info["pim_corun_speedup"] = data["P1"]
    benchmark.extra_info["worst_gpu_corun_speedup"] = min(gpu_interference)
