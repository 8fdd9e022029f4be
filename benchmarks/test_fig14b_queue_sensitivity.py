"""Figure 14b: F3FS sensitivity to the interconnect queue size.

Sweeps the NoC queue size from half to double the scaled baseline (the
analog of the paper's 256/512/1024 sweep) under VC2.  Paper shape: F3FS
is largely agnostic to the queue size — neither helped by longer queues
nor hurt by shorter ones.
"""

from conftest import experiment_scale, write_result

from repro.experiments import figure_table, format_table


def test_fig14b_queue_sensitivity(store_dir, benchmark, results_dir):
    _, rows, columns = benchmark.pedantic(
        lambda: figure_table("fig14b", experiment_scale(), store_dir=store_dir),
        rounds=1,
        iterations=1,
    )
    write_result(results_dir, "fig14b_queue_sensitivity", format_table(rows, columns))

    fairness = [row["fairness"] for row in rows]
    throughput = [row["throughput"] for row in rows]
    # Largely insensitive: small absolute spread across a 4x size range.
    assert max(fairness) - min(fairness) < 0.15
    assert (max(throughput) - min(throughput)) / max(throughput) < 0.15
    benchmark.extra_info["fairness_spread"] = max(fairness) - min(fairness)
