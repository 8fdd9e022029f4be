"""Markdown report generation.

``generate_report`` runs the cells of Figures 4, 6, 8, 10 and 11 as one
sweep and renders one self-contained markdown document — the
programmatic backbone of EXPERIMENTS.md and of the ``python -m repro
report`` command.  Each section's table is the one
``benchmarks/results/`` holds for that figure: both render from
``repro.experiments.figures.FIGURES``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.figures import figure_tables, format_value
from repro.experiments.runner import ExperimentScale
from repro.experiments.sweep import DEFAULT_GPU_SUBSET, DEFAULT_PIM_SUBSET

#: ``(heading, figure)`` per report section, in order.
SECTIONS = (
    ("Characterization (Figure 4)", "fig4"),
    ("MEM arrival rate at the MC (Figure 6)", "fig6"),
    ("Fairness and throughput (Figure 8)", "fig8"),
    ("Mode switches and overheads (Figure 10)", "fig10"),
    ("Collaborative LLM speedup (Figure 11)", "fig11"),
)


def _md_table(rows: Sequence[dict], columns: Sequence[str]) -> str:
    """Render rows as a GitHub-flavored markdown table."""
    header = "| " + " | ".join(columns) + " |"
    divider = "| " + " | ".join("---" for _ in columns) + " |"
    body = [
        "| " + " | ".join(format_value(row.get(c, "")) for c in columns) + " |" for row in rows
    ]
    return "\n".join([header, divider, *body])


def telemetry_section(result, title: str = "Per-hop request latency") -> str:
    """Markdown section for a telemetry-enabled :class:`SimResult`.

    Renders the per-(mode, stage) latency breakdown from
    ``result.telemetry`` (see :mod:`repro.obs`) plus the hop-sum identity
    line; raises if the run had no telemetry attached.
    """
    from repro.experiments.figures import latency_breakdown_rows

    summary = getattr(result, "telemetry", None) or result
    if not isinstance(summary, dict) or "stages" not in summary:
        raise ValueError("result has no telemetry summary (enable_telemetry first)")
    rows = latency_breakdown_rows(summary)
    sections = [f"## {title}", ""]
    sections.append(
        _md_table(rows, ["mode", "stage", "count", "mean", "p50", "p95", "p99", "max"])
    )
    identity = summary.get("hop_identity", {})
    if identity.get("requests"):
        sections.append(
            f"\nHop identity over {identity['requests']} DRAM/PIM-serviced "
            f"requests: mean total latency {identity['mean_total_latency']} "
            f"cycles vs per-hop sum {identity['mean_hop_sum']} "
            f"(mean gap {identity['mean_abs_gap']})."
        )
    return "\n".join(sections) + "\n"


def generate_report(
    scale: ExperimentScale,
    gpu_subset: Optional[Sequence[str]] = None,
    pim_subset: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    title: str = "Reproduction report",
) -> str:
    """Run the core experiments and render a markdown report."""
    gpu_subset = list(gpu_subset or DEFAULT_GPU_SUBSET)
    pim_subset = list(pim_subset or DEFAULT_PIM_SUBSET)
    sections: List[str] = [f"# {title}", ""]
    sections.append(
        f"Configuration: {scale.num_channels} channels, "
        f"{scale.gpu_sms_full}/{scale.gpu_sms_corun}/{scale.pim_sms} SMs "
        f"(full/co-run/PIM), workload scale {scale.workload_scale}, "
        f"seed {scale.seed}."
    )
    sections.append(f"\nKernels: GPU {gpu_subset}, PIM {pim_subset}.\n")
    tables = figure_tables([name for _, name in SECTIONS], scale, gpu_subset, pim_subset, policies)
    for heading, name in SECTIONS:
        _, rows, columns = tables[name]
        sections += [f"## {heading}\n", _md_table(rows, columns), ""]
    return "\n".join(sections)
