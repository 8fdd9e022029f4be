"""Figure 13: behaviour at GPU memory-intensity extremes.

Fairness/throughput for the compute-intensive kernel (G10 huffman) and
memory-intensive kernels, averaged across PIM co-runners — the orthogonal
slice of Figure 8.  Paper shape: with the compute-intensive kernel there
is very little variation across policies and interconnect configurations
(such kernels tolerate memory delays); memory-intensive kernels vary
much more.
"""

from conftest import experiment_scale, FIG13_GPUS, PIM_SUBSET, write_result

from repro.experiments import figure_table, format_table
from repro.experiments.figures import FIG13_POLICY_SUBSET

POLICY_SUBSET = list(FIG13_POLICY_SUBSET)


def _spread(data, num_vcs, gid, metric):
    values = [data[num_vcs][p][gid][metric] for p in POLICY_SUBSET]
    return max(values) - min(values)


def test_fig13_intensity_extremes(store_dir, benchmark, results_dir):
    data, rows, columns = benchmark.pedantic(
        lambda: figure_table(
            "fig13",
            experiment_scale(),
            FIG13_GPUS,
            PIM_SUBSET,
            POLICY_SUBSET,
            store_dir=store_dir,
        ),
        rounds=1,
        iterations=1,
    )
    write_result(results_dir, "fig13_intensity_extremes", format_table(rows, columns))

    memory_intensive = [g for g in FIG13_GPUS if g != "G10"]
    for num_vcs in (1, 2):
        # The compute-intensive kernel is insensitive to the policy choice:
        # its fairness spread across policies is smaller than the worst
        # memory-intensive kernel's spread.
        g10_spread = _spread(data, num_vcs, "G10", "fairness")
        worst_mem_spread = max(_spread(data, num_vcs, g, "fairness") for g in memory_intensive)
        assert g10_spread <= worst_mem_spread + 0.05
        # And its throughput stays high under every policy (tolerant of
        # memory delays).
        for policy in POLICY_SUBSET:
            assert data[num_vcs][policy]["G10"]["throughput"] > 1.0

    benchmark.extra_info["g10_fairness_spread_vc2"] = _spread(data, 2, "G10", "fairness")
