"""Experiment harnesses: runners, per-figure sweeps, sensitivity studies."""

from repro.experiments.figures import (
    ABLATION_STAGES,
    FIGURES,
    collaborative_policy,
    fig14b_queue_sensitivity,
    figure_table,
    figure_tables,
    format_table,
    latency_breakdown_rows,
)
from repro.experiments.runner import (
    BASELINE_POLICY,
    CollaborativeOutcome,
    CompetitiveOutcome,
    ExperimentScale,
    GridTask,
    Runner,
    cell_key,
    make_cell,
)
from repro.experiments.parallel import (
    GridReport,
    SweepAborted,
    collect_from_store,
    make_tasks,
    run_sweep,
    shard_indices,
)
from repro.resilience import CellFailure, RetryPolicy
from repro.experiments.report import generate_report, telemetry_section
from repro.experiments.sweep import (
    default_grid_tasks,
    run_cells,
    sweep_f3fs_caps,
    sweep_policy_parameter,
    sweep_rows,
)

__all__ = [
    "ABLATION_STAGES",
    "BASELINE_POLICY",
    "FIGURES",
    "CollaborativeOutcome",
    "CompetitiveOutcome",
    "ExperimentScale",
    "Runner",
    "cell_key",
    "collaborative_policy",
    "fig14b_queue_sensitivity",
    "figure_table",
    "figure_tables",
    "format_table",
    "generate_report",
    "latency_breakdown_rows",
    "telemetry_section",
    "CellFailure",
    "GridReport",
    "GridTask",
    "RetryPolicy",
    "SweepAborted",
    "collect_from_store",
    "default_grid_tasks",
    "make_cell",
    "make_tasks",
    "run_cells",
    "run_sweep",
    "shard_indices",
    "sweep_f3fs_caps",
    "sweep_policy_parameter",
    "sweep_rows",
]
