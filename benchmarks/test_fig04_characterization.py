"""Figure 4: memory access characteristics of GPU vs PIM kernels.

Regenerates the four box-plot panels — interconnect arrival rate, DRAM
(memory-controller) arrival rate, bank-level parallelism, and row-buffer
hit rate — for Rodinia on the full and small SM allocations (GPU-80 /
GPU-8 analogs) and the PIM suite.

Paper shapes checked:
* PIM arrival rate at the MC exceeds GPU-8's (paper: 8.33x) and at least
  matches GPU-80's (paper: 2.07x) — PIM requests are not L2-filtered.
* PIM BLP is pinned at all 16 banks (lock-step execution).
* PIM row-buffer locality is high (block structure).
"""

from conftest import experiment_scale, GPU_SUBSET, PIM_SUBSET, write_result

from repro.experiments import figure_table, format_table
from repro.metrics import arithmetic_mean


def test_fig04_characterization(store_dir, benchmark, results_dir):
    data, rows, columns = benchmark.pedantic(
        lambda: figure_table(
            "fig4", experiment_scale(), GPU_SUBSET, PIM_SUBSET, store_dir=store_dir
        ),
        rounds=1,
        iterations=1,
    )
    write_result(results_dir, "fig04_characterization", format_table(rows, columns))

    def mean(group, metric):
        return arithmetic_mean([m[metric] for m in data[group].values()])

    # PIM floods the MC harder than GPU-8 and is not filtered by the L2.
    assert mean("PIM", "mc_rate") > 2 * mean("GPU-8", "mc_rate")
    assert mean("PIM", "mc_rate") >= 0.8 * mean("GPU-80", "mc_rate")
    # Lock-step PIM occupies every bank.
    for metrics in data["PIM"].values():
        assert metrics["blp"] > 15.9
    # PIM row locality is high thanks to the block structure.
    assert mean("PIM", "rbhr") > 0.8
    assert mean("PIM", "rbhr") > mean("GPU-80", "rbhr")
    # More SMs -> higher interconnect pressure for the same kernel.
    assert mean("GPU-80", "noc_rate") > mean("GPU-8", "noc_rate")

    benchmark.extra_info["pim_vs_gpu8_mc_rate"] = mean("PIM", "mc_rate") / mean("GPU-8", "mc_rate")
    benchmark.extra_info["pim_vs_gpu80_mc_rate"] = mean("PIM", "mc_rate") / mean("GPU-80", "mc_rate")
