"""Figure 14a: ablation of the three F3FS components.

Stages: FR-FCFS-Cap -> CAP on current-mode requests (instead of row hits)
-> + current-mode-first priority -> + asymmetric CAPs.  Run on P2
competitive co-execution (GPU kernels excluding kmeans) and the LLM
collaborative scenario under VC2.

Paper shapes checked: moving the CAP to requests improves fairness;
favoring the current mode improves throughput at similar fairness;
asymmetric CAPs hurt competitive fairness but raise the LLM speedup.
"""

from conftest import experiment_scale, GPU_SUBSET, write_result

from repro.experiments import figure_table, format_table


def test_fig14a_ablation(store_dir, benchmark, results_dir):
    _, rows, columns = benchmark.pedantic(
        lambda: figure_table("fig14a", experiment_scale(), GPU_SUBSET, store_dir=store_dir),
        rounds=1,
        iterations=1,
    )
    write_result(results_dir, "fig14a_ablation", format_table(rows, columns))

    by_label = {row["label"]: row for row in rows}
    cap_requests = by_label["+cap on requests"]
    current_first = by_label["+current mode first"]
    asymmetric = by_label["+asymmetric CAPs"]

    # Current-mode-first raises throughput without collapsing fairness.
    assert current_first["throughput"] >= cap_requests["throughput"]
    assert current_first["fairness"] >= 0.8 * cap_requests["fairness"]
    # Asymmetric CAPs trade competitive fairness for LLM speedup.
    assert asymmetric["llm_speedup"] >= current_first["llm_speedup"]
    assert asymmetric["fairness"] <= current_first["fairness"] + 0.05

    benchmark.extra_info["stages"] = {r["label"]: r["throughput"] for r in rows}
