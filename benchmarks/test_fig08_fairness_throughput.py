"""Figure 8: Fairness Index and System Throughput across policies.

Runs the competitive grid for all nine policies under VC1 and VC2 and
averages per PIM kernel.  Paper shapes checked:

* MEM-First / PIM-First produce starvation-level fairness for some
  combinations (FI near 0 is common).
* FR-FCFS favors PIM kernels (MEM speedup is the minority share of ST).
* F3FS matches or beats FR-RR-FCFS fairness under VC2 while improving
  throughput, and switches less than FR-FCFS-Cap (checked in Figure 10).
* VC2 improves fairness for the fairness-oriented policies.
"""

from conftest import experiment_scale, GPU_SUBSET, PIM_SUBSET, write_result

from repro.experiments import figure_table, format_table
from repro.metrics import arithmetic_mean


def _policy_mean(data, num_vcs, policy, metric):
    return arithmetic_mean([v[metric] for v in data[num_vcs][policy].values()])


def test_fig08_fairness_throughput(store_dir, benchmark, results_dir):
    data, rows, columns = benchmark.pedantic(
        lambda: figure_table(
            "fig8", experiment_scale(), GPU_SUBSET, PIM_SUBSET, store_dir=store_dir
        ),
        rounds=1,
        iterations=1,
    )
    write_result(results_dir, "fig08_fairness_throughput", format_table(rows, columns))

    # Static-priority policies starve the deprioritized side.
    assert _policy_mean(data, 1, "PIM-First", "mem_speedup") < 0.15
    assert _policy_mean(data, 1, "PIM-First", "fairness") < 0.25
    # FR-FCFS favors PIM: the MEM share of throughput is the minority.
    frfcfs_mem = _policy_mean(data, 1, "FR-FCFS", "mem_speedup")
    frfcfs_pim = _policy_mean(data, 1, "FR-FCFS", "pim_speedup")
    assert frfcfs_mem < frfcfs_pim
    # F3FS under VC2: fairness at least comparable to FR-RR-FCFS with
    # higher throughput (the paper's key result).
    f3fs_fair = _policy_mean(data, 2, "F3FS", "fairness")
    frrr_fair = _policy_mean(data, 2, "FR-RR-FCFS", "fairness")
    assert f3fs_fair >= 0.9 * frrr_fair
    assert _policy_mean(data, 2, "F3FS", "throughput") > _policy_mean(
        data, 2, "FR-RR-FCFS", "throughput"
    )
    # The separate PIM VC helps F3FS fairness.
    assert _policy_mean(data, 2, "F3FS", "fairness") > _policy_mean(data, 1, "F3FS", "fairness")

    benchmark.extra_info["f3fs_vc2_fairness"] = f3fs_fair
    benchmark.extra_info["frrr_vc2_fairness"] = frrr_fair
