"""Experiment harnesses: runners, sweeps, and the figure and sensitivity tables."""

from repro._exports import lazy_exports

_EXPORTS = {
    "ABLATION_STAGES": "figures",
    "FIGURES": "figures",
    "collaborative_policy": "figures",
    "figure_table": "figures",
    "figure_tables": "figures",
    "format_table": "figures",
    "latency_breakdown_rows": "figures",
    "BASELINE_POLICY": "runner",
    "CollaborativeOutcome": "runner",
    "CompetitiveOutcome": "runner",
    "ExperimentScale": "runner",
    "GridTask": "runner",
    "Runner": "runner",
    "cell_key": "runner",
    "make_cell": "runner",
    # Defined in repro.resilience.cells; parallel imports them.
    "CellFailure": "parallel",
    "RetryPolicy": "parallel",
    "GridReport": "parallel",
    "SweepAborted": "parallel",
    "collect_from_store": "parallel",
    "make_tasks": "parallel",
    "run_sweep": "parallel",
    "shard_indices": "parallel",
    "generate_report": "report",
    "telemetry_section": "report",
    "default_grid_tasks": "sweep",
    "run_cells": "sweep",
    "sweep_rows": "sweep",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
