"""Figure 6: MEM request arrival rate at the memory controller.

For every scheduling policy, measures the GPU kernel's MC arrival rate
under PIM co-execution, normalized to its standalone rate — first with
the shared VC1 interconnect, then with separate MEM/PIM virtual channels
(VC2).  Paper shape: every policy degrades badly under VC1 (even FR-FCFS
drops 41% on average); VC2 restores most of the arrival rate, with
MEM-First improving the most (2.87x on average).
"""

from conftest import experiment_scale, GPU_SUBSET, PIM_SUBSET, write_result

from repro.core.policies import PAPER_POLICY_ORDER
from repro.experiments import figure_table, format_table


def test_fig06_mem_arrival(store_dir, benchmark, results_dir):
    _, rows, columns = benchmark.pedantic(
        lambda: figure_table(
            "fig6", experiment_scale(), GPU_SUBSET, PIM_SUBSET, store_dir=store_dir
        ),
        rounds=1,
        iterations=1,
    )
    write_result(results_dir, "fig06_mem_arrival", format_table(rows, columns))
    means = {(int(row["config"].removeprefix("VC")), row["policy"]): row["mean"] for row in rows}

    # VC1 degrades MEM arrival for every policy (normalized rate < 1).
    for policy in PAPER_POLICY_ORDER:
        assert means[(1, policy)] < 1.0
    # VC2 improves the MEM arrival rate for the large majority of policies.
    improved = [p for p in PAPER_POLICY_ORDER if means[(2, p)] > means[(1, p)]]
    assert len(improved) >= len(PAPER_POLICY_ORDER) - 2
    # MEM-First sees a large improvement (the paper's 2.87x headline).
    assert means[(2, "MEM-First")] > 1.3 * means[(1, "MEM-First")]
    benchmark.extra_info["mem_first_improvement"] = means[(2, "MEM-First")] / means[(1, "MEM-First")]
