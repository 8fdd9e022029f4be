#!/usr/bin/env python3
"""Compare all nine scheduling policies on one GPU/PIM pair (mini Figure 8).

For each policy and each interconnect configuration (VC1 = shared queues,
VC2 = separate MEM/PIM virtual channels), runs pathfinder (G17) against
STREAM-Copy (P2) and prints speedups, Fairness Index, System Throughput,
and switch statistics.

Run:  python examples/policy_comparison.py
"""

from repro.core.policies import PAPER_POLICY_ORDER, PolicySpec
from repro.experiments import ExperimentScale, Runner, format_table

GPU_KERNEL = "G17"
PIM_KERNEL = "P2"


def main():
    runner = Runner(ExperimentScale(workload_scale=0.15))
    rows = []
    for num_vcs in (1, 2):
        for name in PAPER_POLICY_ORDER:
            outcome = runner.competitive(GPU_KERNEL, PIM_KERNEL, PolicySpec(name), num_vcs=num_vcs)
            rows.append(
                {
                    "config": f"VC{num_vcs}",
                    "policy": name,
                    "gpu_speedup": outcome.gpu_speedup,
                    "pim_speedup": outcome.pim_speedup,
                    "fairness": outcome.fairness,
                    "throughput": outcome.throughput,
                    "switches": outcome.mode_switches,
                }
            )
    print(f"{GPU_KERNEL} vs {PIM_KERNEL}, competitive co-execution\n")
    print(
        format_table(
            rows,
            ["config", "policy", "gpu_speedup", "pim_speedup", "fairness", "throughput", "switches"],
        )
    )
    best = max((r for r in rows if r["config"] == "VC2"), key=lambda r: r["fairness"])
    print(f"\nfairest policy under VC2: {best['policy']} (FI={best['fairness']:.3f})")


if __name__ == "__main__":
    main()
