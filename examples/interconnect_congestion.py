#!/usr/bin/env python3
"""Interconnect congestion study: VC1 head-of-line blocking vs VC2
(mini Figures 6/7).

Runs a memory-intensive GPU kernel against a PIM flood under each
scheduling policy, measuring the GPU kernel's MEM request arrival rate at
the memory controller — first with the shared-queue VC1 interconnect,
then with separate MEM/PIM virtual channels (VC2).  The paper's Section V
result: VC2 restores most of the lost arrival rate, with MEM-First
gaining the most.

Run:  python examples/interconnect_congestion.py
"""

from repro.core.policies import PAPER_POLICY_ORDER, PolicySpec
from repro.experiments import ExperimentScale, Runner, format_table

GPU_KERNEL = "G15"  # nn: the most DRAM-intensive Rodinia kernel
PIM_KERNEL = "P1"


def main():
    scale = ExperimentScale(workload_scale=0.15)
    runner = Runner(scale)

    rows = []
    for name in PAPER_POLICY_ORDER:
        spec = PolicySpec(name)
        row = {"policy": name}
        for num_vcs in (1, 2):
            alone = runner.standalone(GPU_KERNEL, "gpu_sms_corun", num_vcs)
            base_rate = alone.kernels[0].mc_arrival_rate(alone.cycles)
            outcome = runner.competitive(GPU_KERNEL, PIM_KERNEL, spec, num_vcs=num_vcs)
            row[f"vc{num_vcs}_norm_rate"] = outcome.mem_arrival_rate / base_rate
        row["improvement"] = (
            row["vc2_norm_rate"] / row["vc1_norm_rate"] if row["vc1_norm_rate"] else float("inf")
        )
        rows.append(row)

    print(f"MEM arrival rate at the MC, normalized to standalone "
          f"({GPU_KERNEL} vs {PIM_KERNEL}; higher is better)\n")
    print(format_table(rows, ["policy", "vc1_norm_rate", "vc2_norm_rate", "improvement"]))
    best = max(rows, key=lambda r: r["improvement"])
    print(f"\nbiggest VC2 gain: {best['policy']} ({best['improvement']:.2f}x) — "
          f"the paper sees MEM-First gain the most")


if __name__ == "__main__":
    main()
