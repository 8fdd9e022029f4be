"""The default grid, its sweep rows, and the one way to run a cell list.

Every figure table (:data:`~repro.experiments.figures.FIGURES`, the
sensitivity studies among them) gets its outcomes from :func:`run_cells`:
one :func:`~repro.experiments.parallel.run_sweep` over its cells (all
rows at once, so they share standalone baselines), optionally against a
result store that later calls then read instead of simulating.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.policies import PAPER_POLICY_ORDER, PolicySpec
from repro.experiments.parallel import GridReport, GridTask, make_tasks, run_sweep
from repro.experiments.runner import CompetitiveOutcome, ExperimentScale
from repro.metrics.stats import arithmetic_mean
from repro.resilience.cells import RetryPolicy

#: The EXPERIMENTS.md "setup of record" subsets for the default benchmark
#: grid (GPU x PIM x all nine policies x VC1/VC2) and the figures' default
#: kernels.  The GPU picks cover the paper's extremes: G6 low locality /
#: high BLP, G17 high RBHR, G19 L2-filtered traffic; the PIM picks cover
#: STREAM (P1/P2) and GEMV (P7).
DEFAULT_GPU_SUBSET: Tuple[str, ...] = ("G6", "G17", "G19")
DEFAULT_PIM_SUBSET: Tuple[str, ...] = ("P1", "P2", "P7")


def default_grid_tasks(
    gpu_subset: Optional[Sequence[str]] = None,
    pim_subset: Optional[Sequence[str]] = None,
    policy_names: Optional[Sequence[str]] = None,
    vc_configs: Sequence[int] = (1, 2),
) -> List[GridTask]:
    """The default benchmark grid as store-addressable tasks."""
    policies = [PolicySpec(name) for name in (policy_names or PAPER_POLICY_ORDER)]
    return make_tasks(
        gpu_subset or DEFAULT_GPU_SUBSET,
        pim_subset or DEFAULT_PIM_SUBSET,
        policies,
        tuple(vc_configs),
    )


def sweep_rows(outcomes: Sequence[CompetitiveOutcome]) -> List[Dict]:
    """Flatten outcomes into the sweep's canonical table rows.

    This is the merged table the byte-identity guarantees are stated
    over: resumed, sharded, and uninterrupted runs of the same grid all
    produce exactly these rows.
    """
    return [
        {
            "gpu": o.gpu_id,
            "pim": o.pim_id,
            "policy": o.policy,
            "vcs": o.num_vcs,
            "gpu_speedup": o.gpu_speedup,
            "pim_speedup": o.pim_speedup,
            "fairness": o.fairness,
            "throughput": o.throughput,
            "switches": o.mode_switches,
            "cycles": o.cycles,
        }
        for o in outcomes
    ]


def run_cells(
    scale: ExperimentScale,
    tasks: Sequence[GridTask],
    store_dir: Optional[str] = None,
    on_sweep: Optional[Callable[[GridReport], None]] = None,
) -> Dict[GridTask, object]:
    """``{cell: outcome}`` for ``tasks`` (duplicates run once), from one
    :func:`~repro.experiments.parallel.run_sweep`, whose report goes to
    ``on_sweep`` if given (``repro figure --fail-on-miss`` counts its
    simulated cells).

    A figure or sweep point needs every cell, so a quarantined cell
    raises ``RuntimeError`` naming it and its error instead of degrading
    gracefully.  Cells are deterministic, so a failed one is not retried.
    """
    tasks = list(dict.fromkeys(tasks))
    report = run_sweep(scale, tasks, store_dir=store_dir, retry=RetryPolicy(retries=0))
    if on_sweep is not None:
        on_sweep(report)
    failed = report.failed_outcomes
    if failed:
        summary = ", ".join(f"{f.label} ({f.kind}: {f.message})" for f in failed[:5])
        raise RuntimeError(
            f"{len(failed)} grid cell(s) failed after retries: {summary}"
            + ("..." if len(failed) > 5 else "")
        )
    return dict(zip(tasks, report.outcomes))


def fairness_throughput(runs: Sequence[CompetitiveOutcome]) -> Dict[str, float]:
    """Mean fairness index and system throughput of competitive outcomes."""
    return {
        "fairness": arithmetic_mean([r.fairness for r in runs]),
        "throughput": arithmetic_mean([r.throughput for r in runs]),
    }
