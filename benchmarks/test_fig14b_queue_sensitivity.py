"""Figure 14b: F3FS sensitivity to the interconnect queue size.

Sweeps the NoC queue size from half to double the scaled baseline (the
analog of the paper's 256/512/1024 sweep) under VC2.  Paper shape: F3FS
is largely agnostic to the queue size — neither helped by longer queues
nor hurt by shorter ones.
"""

from conftest import experiment_scale, write_result

from repro.experiments import fig14b_queue_sensitivity, format_table

QUEUE_SIZES = (32, 64, 128)
GPU_SUBSET = ["G17", "G19"]
PIM_SUBSET = ["P1", "P2"]


def test_fig14b_queue_sensitivity(store_dir, benchmark, results_dir):
    data = benchmark.pedantic(
        lambda: fig14b_queue_sensitivity(
            experiment_scale(), QUEUE_SIZES, GPU_SUBSET, PIM_SUBSET, store_dir=store_dir
        ),
        rounds=1,
        iterations=1,
    )
    rows = [{"queue_size": size, **metrics} for size, metrics in data.items()]
    write_result(
        results_dir,
        "fig14b_queue_sensitivity",
        format_table(rows, ["queue_size", "fairness", "throughput"]),
    )

    fairness = [metrics["fairness"] for metrics in data.values()]
    throughput = [metrics["throughput"] for metrics in data.values()]
    # Largely insensitive: small absolute spread across a 4x size range.
    assert max(fairness) - min(fairness) < 0.15
    assert (max(throughput) - min(throughput)) / max(throughput) < 0.15
    benchmark.extra_info["fairness_spread"] = max(fairness) - min(fairness)
