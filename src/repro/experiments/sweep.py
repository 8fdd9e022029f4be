"""Parameter sweeps (sensitivity studies).

The paper reports several sensitivity studies: the FR-FCFS-Cap CAP, the
BLISS blacklist threshold (Section VI-A), the F3FS CAP pair (Section
VII-B), and the interconnect queue size (Figure 14b).  These helpers run
small competitive grids across a parameter range and report the mean
fairness/throughput for each point.

Each sweep point is a competitive grid, expressed as
:class:`~repro.experiments.parallel.GridTask` items and executed through
:func:`~repro.experiments.parallel.run_sweep`: with
``max_workers > 1`` the points fan out over worker processes (which share
standalone baselines through the result store when ``store_dir`` is
set); with the default ``max_workers=1`` the tasks run serially against
the caller's runner, reusing its warm in-memory caches.
Either path computes identical outcomes — the tasks are deterministic
and independent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.policies import PAPER_POLICY_ORDER, PolicySpec
from repro.experiments.parallel import GridTask, make_tasks, run_sweep
from repro.experiments.runner import CompetitiveOutcome, Runner
from repro.metrics.stats import arithmetic_mean

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


def _run_point(
    runner: Runner,
    spec: PolicySpec,
    gpu_subset: Sequence[str],
    pim_subset: Sequence[str],
    num_vcs: int,
    max_workers: int,
    store_dir: Optional[str] = None,
) -> List[CompetitiveOutcome]:
    """Run one sweep point's competitive grid (gpu x pim) for ``spec``.

    A point's mean needs every cell, so a quarantined cell raises
    ``RuntimeError`` instead of degrading gracefully.
    """
    tasks: List[GridTask] = make_tasks(gpu_subset, pim_subset, [spec], (num_vcs,))
    if max_workers > 1 or store_dir is not None:
        report = run_sweep(
            runner.scale,
            tasks,
            max_workers=max_workers,
            store_dir=store_dir,
        )
        failed = report.failed_outcomes
        if failed:
            summary = ", ".join(f"{f.label} ({f.kind})" for f in failed[:5])
            raise RuntimeError(
                f"{len(failed)} grid cell(s) failed after retries: {summary}"
                + ("..." if len(failed) > 5 else "")
            )
        return report.outcomes
    return [
        runner.competitive(task.gpu_id, task.pim_id, task.policy, num_vcs=task.num_vcs)
        for task in tasks
    ]


def sweep_policy_parameter(
    runner: Runner,
    policy_name: str,
    parameter: str,
    values: Sequence,
    gpu_subset: Sequence[str],
    pim_subset: Sequence[str],
    num_vcs: int = 2,
    base_params: Optional[Dict] = None,
    max_workers: int = 1,
    store_dir: Optional[str] = None,
) -> List[Dict[str, float]]:
    """Sweep one constructor parameter of a policy over a competitive grid.

    Returns one row per value with mean fairness and throughput.
    """
    rows: List[Dict[str, float]] = []
    for value in values:
        params = dict(base_params or {})
        params[parameter] = value
        spec = PolicySpec(policy_name, **params)
        runs = _run_point(
            runner, spec, gpu_subset, pim_subset, num_vcs, max_workers, store_dir
        )
        rows.append(
            {
                "value": value,
                "fairness": arithmetic_mean([r.fairness for r in runs]),
                "throughput": arithmetic_mean([r.throughput for r in runs]),
            }
        )
    return rows


def sweep_f3fs_caps(
    runner: Runner,
    cap_pairs: Sequence[tuple],
    gpu_subset: Sequence[str],
    pim_subset: Sequence[str],
    num_vcs: int = 1,
    max_workers: int = 1,
    store_dir: Optional[str] = None,
) -> List[Dict[str, float]]:
    """Sweep (MEM CAP, PIM CAP) pairs for F3FS (Section VII-B tuning)."""
    rows: List[Dict[str, float]] = []
    for mem_cap, pim_cap in cap_pairs:
        spec = PolicySpec("F3FS", mem_cap=mem_cap, pim_cap=pim_cap)
        runs = _run_point(
            runner, spec, gpu_subset, pim_subset, num_vcs, max_workers, store_dir
        )
        rows.append(
            {
                "mem_cap": mem_cap,
                "pim_cap": pim_cap,
                "fairness": arithmetic_mean([r.fairness for r in runs]),
                "throughput": arithmetic_mean([r.throughput for r in runs]),
            }
        )
    return rows
