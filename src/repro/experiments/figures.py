"""Per-figure experiment harnesses.

Each table/figure of the paper's evaluation (see DESIGN.md's experiment
index) is a list of the cells (:class:`~repro.experiments.runner.GridTask`)
it reads plus a pure reduction of ``{cell: outcome}`` into plain data; both
take the (GPU, PIM, policy) subsets, and ignore those they do not vary.
``FIGURES`` turns each into its table — default subsets, rows and columns —
once, for ``repro figure``, ``repro report`` and the committed
``benchmarks/results/`` tables; :func:`figure_tables` runs their cells as
one sweep and reduces; ``format_table`` renders rows as aligned text.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.core.policies import PAPER_POLICY_ORDER, PolicySpec
from repro.experiments.parallel import GridReport, make_tasks
from repro.experiments.runner import LLM_STAGES, ExperimentScale, GridTask, make_cell
from repro.experiments.sweep import (
    DEFAULT_GPU_SUBSET,
    DEFAULT_PIM_SUBSET,
    fairness_throughput,
    run_cells,
)
from repro.metrics.stats import arithmetic_mean, geometric_mean

#: F3FS collaborative CAPs per VC configuration, set like the paper's via
#: a sensitivity study (Section VII-B): asymmetric MEM-favoring CAPs under
#: VC1 (paper: 256/128; here 32/16 — same 2:1 ratio, magnitudes scaled to
#: the smaller system where queue pressure is lower so large CAPs never
#: bind) and symmetric CAPs under VC2 (paper: 64/64; here 32/32).
COLLABORATIVE_F3FS_CAPS = {1: {"mem_cap": 32, "pim_cap": 16}, 2: {"mem_cap": 32, "pim_cap": 32}}

#: ``{cell: outcome}``, as :func:`~repro.experiments.sweep.run_cells` returns it.
Outcomes = Mapping[GridTask, object]


def collaborative_policy(name: str, num_vcs: int) -> PolicySpec:
    if name == "F3FS":
        return PolicySpec(name, **COLLABORATIVE_F3FS_CAPS[num_vcs])
    return PolicySpec(name)


def _mean(values: Iterable[float]) -> float:
    data = list(values)
    return arithmetic_mean(data) if data else 0.0


def _standalone(kernel_id: str, sms: str, num_vcs: int = 1) -> GridTask:
    return make_cell("standalone", kernel_id, num_vcs=num_vcs, sms=sms)


def _collaborative(spec: PolicySpec, num_vcs: int) -> GridTask:
    return make_cell("collaborative", *LLM_STAGES, spec, num_vcs)


def _grid(gpus, pims, policies, vc_configs: Sequence[int] = (1, 2)) -> List[GridTask]:
    """The competitive cells of Figures 8 and 13 (and part of 6's)."""
    return make_tasks(gpus, pims, [PolicySpec(name) for name in policies], vc_configs)


# ---------------------------------------------------------------------------
# Figure 4 — memory access characterization
# ---------------------------------------------------------------------------

#: Figure 4's groups: ``(group, runs the PIM kernels, SM allocation)``.
FIG4_GROUPS = (
    ("GPU-80", False, "gpu_sms_full"), ("GPU-8", False, "pim_sms"), ("PIM", True, "pim_sms")
)


def fig4_cells(gpus, pims, policies=()) -> List[GridTask]:
    return [_standalone(k, sms) for _, pim, sms in FIG4_GROUPS for k in (pims if pim else gpus)]


def fig4_characterization(outcomes: Outcomes, gpus, pims, policies=()) -> Dict[str, Dict]:
    """Arrival rates, BLP, and RBHR for GPU-80 / GPU-8 / PIM (Figure 4).

    Returns ``{group: {kernel_id: {metric: value}}}`` with metrics
    ``noc_rate`` (Fig 4a), ``mc_rate`` (Fig 4b), ``blp`` (Fig 4c) and
    ``rbhr`` (Fig 4d).
    """
    data: Dict[str, Dict[str, Dict[str, float]]] = {}
    for group, is_pim, sms in FIG4_GROUPS:
        data[group] = {}
        for kid in pims if is_pim else gpus:
            result = outcomes[_standalone(kid, sms)]
            kernel = result.kernels[0]
            data[group][kid] = {
                "noc_rate": kernel.injection_rate(result.cycles),
                "mc_rate": kernel.mc_arrival_rate(result.cycles),
                "blp": result.bank_level_parallelism,
                "rbhr": kernel.row_buffer_hit_rate,
            }
    return data


# ---------------------------------------------------------------------------
# Figure 5 — co-run slowdown of the Rodinia suite
# ---------------------------------------------------------------------------

#: Figure 5's GPU co-runners for the default (quick) runs.
FIG5_GPU_CORUNNERS: Tuple[str, ...] = ("G6", "G15")


def fig5_cells(
    gpus, pims=(), policies=(), gpu_corunners=FIG5_GPU_CORUNNERS, pim_corunner: str = "P1"
) -> List[GridTask]:
    cells = [_standalone(g, sms) for g in gpus for sms in ("gpu_sms_full", "gpu_sms_corun")]
    cells += [make_cell("gpu_pair", g, c) for c in gpu_corunners for g in gpus if g != c]
    # The PIM co-run: under the baseline policy (FR-FCFS), VC1.
    return cells + [make_cell("competitive", g, pim_corunner) for g in gpus]


def fig5_corun_slowdown(
    outcomes: Outcomes, gpus, pims=(), policies=(), gpu_corunners=FIG5_GPU_CORUNNERS,
    pim_corunner: str = "P1",
) -> Dict[str, float]:
    """Average speedup of suite ``gpus`` on the co-run SMs per co-runner
    (Figure 5), normalized to the full-machine standalone run.  Keys:
    ``"none"`` (the reduced-SM effect alone), each GPU co-runner id, and
    the PIM co-runner id.
    """

    def alone(gid: str, sms: str) -> int:
        return outcomes[_standalone(gid, sms)].kernels[0].first_duration

    results = {"none": _mean(alone(g, "gpu_sms_full") / alone(g, "gpu_sms_corun") for g in gpus)}
    for corunner in gpu_corunners:
        results[corunner] = _mean(
            outcomes[make_cell("gpu_pair", g, corunner)].speedup for g in gpus if g != corunner
        )
    results[pim_corunner] = _mean(
        outcomes[make_cell("competitive", g, pim_corunner)].gpu_speedup for g in gpus
    )
    return results


# ---------------------------------------------------------------------------
# Competitive grid figures (6, 8, 10, 13)
# ---------------------------------------------------------------------------


def fig6_cells(gpus, pims, policies, vc_configs: Sequence[int] = (1, 2)) -> List[GridTask]:
    baselines = [_standalone(g, "gpu_sms_corun", v) for v in vc_configs for g in gpus]
    return baselines + _grid(gpus, pims, policies, vc_configs)


def fig6_mem_arrival(
    outcomes: Outcomes, gpus, pims, policies, vc_configs: Sequence[int] = (1, 2)
) -> Dict[int, Dict[str, Dict[str, float]]]:
    """Normalized MEM arrival rate at the MC (Figure 6).

    Returns ``{num_vcs: {policy: {gpu_id: normalized_rate}}}`` where the
    rate is averaged across PIM co-runners and normalized to the GPU
    kernel's standalone arrival rate (higher is better; 1.0 = no
    degradation).
    """
    out: Dict[int, Dict[str, Dict[str, float]]] = {}
    for num_vcs in vc_configs:
        out[num_vcs] = {}
        for name in policies:
            per_gpu: Dict[str, float] = {}
            for gid in gpus:
                # Standalone arrival rate on the co-run SM allocation.
                alone = outcomes[_standalone(gid, "gpu_sms_corun", num_vcs)]
                base_rate = alone.kernels[0].mc_arrival_rate(alone.cycles)
                cells = _grid([gid], pims, [name], (num_vcs,))
                rates = [outcomes[cell].mem_arrival_rate for cell in cells]
                per_gpu[gid] = _mean(rates) / base_rate if base_rate else 0.0
            out[num_vcs][name] = per_gpu
    return out


def fig8_fairness_throughput(
    outcomes: Outcomes, gpus, pims, policies, vc_configs: Sequence[int] = (1, 2)
) -> Dict[int, Dict[str, Dict[str, Dict[str, float]]]]:
    """Fairness Index and System Throughput per PIM kernel (Figure 8).

    Returns ``{num_vcs: {policy: {pim_id: {"fairness", "throughput",
    "mem_speedup", "pim_speedup"}}}}``, each averaged across GPU kernels.
    """
    out: Dict[int, Dict[str, Dict[str, Dict[str, float]]]] = {}
    for num_vcs in vc_configs:
        out[num_vcs] = {}
        for name in policies:
            per_pim: Dict[str, Dict[str, float]] = {}
            for pid in pims:
                runs = [outcomes[cell] for cell in _grid(gpus, [pid], [name], (num_vcs,))]
                per_pim[pid] = {
                    **fairness_throughput(runs),
                    "mem_speedup": _mean(r.gpu_speedup for r in runs),
                    "pim_speedup": _mean(r.pim_speedup for r in runs),
                }
            out[num_vcs][name] = per_pim
    return out


def fig13_intensity_extremes(
    outcomes: Outcomes, gpus, pims, policies, vc_configs: Sequence[int] = (1, 2)
) -> Dict[int, Dict[str, Dict[str, Dict[str, float]]]]:
    """Fairness/throughput per *GPU* kernel, averaged over PIM kernels
    (Figure 13 — the orthogonal slice of Figure 8).

    Returns ``{num_vcs: {policy: {gpu_id: {"fairness", "throughput"}}}}``.
    """
    return {
        num_vcs: {
            name: {
                gid: fairness_throughput(
                    [outcomes[cell] for cell in _grid([gid], pims, [name], (num_vcs,))]
                )
                for gid in gpus
            }
            for name in policies
        }
        for num_vcs in vc_configs
    }


def _with_fcfs(policies) -> List[str]:  # FCFS is Figure 10's baseline: always run
    return list(policies) if "FCFS" in policies else ["FCFS", *policies]


def fig10_cells(gpus, pims, policies, vc_configs: Sequence[int] = (1, 2)) -> List[GridTask]:
    return _grid(gpus, pims, _with_fcfs(policies), vc_configs)


def fig10_switch_overheads(
    outcomes: Outcomes, gpus, pims, policies, vc_configs: Sequence[int] = (1, 2)
) -> Dict[int, Dict[str, Dict[str, float]]]:
    """Mode switches (normalized to FCFS, geomean), conflicts per switch,
    and MEM drain latency per switch (Figure 10).

    Returns ``{num_vcs: {policy: {"switches_vs_fcfs", "conflicts_per_switch",
    "drain_latency"}}}``.
    """
    out: Dict[int, Dict[str, Dict[str, float]]] = {}
    for num_vcs in vc_configs:
        runs = {
            name: [outcomes[cell] for cell in _grid(gpus, pims, [name], (num_vcs,))]
            for name in _with_fcfs(policies)
        }
        fcfs_switches = [max(1, run.mode_switches) for run in runs["FCFS"]]
        out[num_vcs] = {
            name: {
                "switches_vs_fcfs": geometric_mean(
                    [max(r.mode_switches, 1) / f for r, f in zip(grid, fcfs_switches)]
                ),
                "conflicts_per_switch": _mean(r.conflicts_per_switch for r in grid),
                "drain_latency": _mean(r.drain_latency_per_switch for r in grid),
            }
            for name, grid in runs.items()
        }
    return out


# ---------------------------------------------------------------------------
# Figure 11 — collaborative LLM speedup
# ---------------------------------------------------------------------------


def fig11_cells(gpus, pims, policies, vc_configs: Sequence[int] = (1, 2)) -> List[GridTask]:
    return [
        _collaborative(collaborative_policy(name, v), v) for v in vc_configs for name in policies
    ]


def fig11_llm_speedup(
    outcomes: Outcomes, gpus, pims, policies, vc_configs: Sequence[int] = (1, 2)
) -> Dict[int, Dict[str, float]]:
    """LLM speedup vs sequential execution per policy (Figure 11).

    The special key ``"Ideal"`` holds the perfect-overlap bound.
    """
    out: Dict[int, Dict[str, float]] = {}
    for num_vcs in vc_configs:
        runs = [outcomes[cell] for cell in fig11_cells(gpus, pims, policies, (num_vcs,))]
        out[num_vcs] = {name: run.speedup for name, run in zip(policies, runs)}
        if runs:
            out[num_vcs]["Ideal"] = runs[-1].ideal_speedup
    return out


# ---------------------------------------------------------------------------
# Figure 14 — F3FS ablation (14a) and queue-size sensitivity (14b)
# ---------------------------------------------------------------------------

#: The ablation ladder (Section VII-C): each stage adds one F3FS component.
#: Parameters left out take the paper's values, the constructor defaults.
ABLATION_STAGES: List[Dict] = [
    {"label": "FR-FCFS-Cap", "policy": "FR-FCFS-Cap", "params": {}},
    {"label": "+cap on requests", "policy": "F3FS", "params": {"current_mode_first": False}},
    {"label": "+current mode first", "policy": "F3FS", "params": {}},
    {
        "label": "+asymmetric CAPs",
        "policy": "F3FS",
        # 4:1 MEM-favoring split (paper: 256/128; a tighter PIM CAP is
        # needed for the asymmetry to bind on the scaled system).
        "params": {"mem_cap": 256, "pim_cap": 64},
    },
]


def _ablation(gpus, pim_id: str, num_vcs: int) -> List[Tuple[str, List[GridTask], GridTask]]:
    """Per stage: its label, its competitive cells on ``pim_id`` — GPU kernels
    without kmeans (G11), which starves under FR-FCFS-Cap in the paper's
    runs — and its LLM cell."""
    stages = []
    for stage in ABLATION_STAGES:
        spec = PolicySpec(stage["policy"], **stage["params"])
        runs = [make_cell("competitive", g, pim_id, spec, num_vcs) for g in gpus if g != "G11"]
        stages.append((stage["label"], runs, _collaborative(spec, num_vcs)))
    return stages


def fig14a_cells(gpus, pims=(), policies=(), pim_id: str = "P2", num_vcs: int = 2) -> List:
    return [cell for _, runs, llm in _ablation(gpus, pim_id, num_vcs) for cell in (*runs, llm)]


def fig14a_ablation(
    outcomes: Outcomes, gpus, pims=(), policies=(), pim_id: str = "P2", num_vcs: int = 2
) -> List[Dict[str, float]]:
    """Incremental impact of F3FS components on ``pim_id`` and the LLM
    (Figure 14a): one dict per stage with the stage label, fairness index,
    throughput, and LLM speedup."""
    return [
        {
            "label": label,
            **fairness_throughput([outcomes[cell] for cell in runs]),
            "llm_speedup": outcomes[llm].speedup,
        }
        for label, runs, llm in _ablation(gpus, pim_id, num_vcs)
    ]


def fig14b_queue_sensitivity(
    scale: ExperimentScale, queue_sizes: Sequence[int], gpus, pims, store_dir: Optional[str] = None
) -> Dict[int, Dict[str, float]]:
    """F3FS sensitivity to NoC queue size under VC2 (Figure 14b): one sweep
    of the F3FS/VC2 grid per queue size, on ``scale`` with that size.

    Queue sizes are the scaled analog of the paper's 256/512/1024 sweep
    around the 512-entry baseline.
    """
    cells = _grid(gpus, pims, ["F3FS"], (2,))
    out: Dict[int, Dict[str, float]] = {}
    for size in queue_sizes:
        outcomes = run_cells(replace(scale, noc_queue_size=size), cells, store_dir)
        out[size] = fairness_throughput([outcomes[cell] for cell in cells])
    return out


# ---------------------------------------------------------------------------
# Figure tables — the one definition ``repro figure``, ``repro report`` and
# ``benchmarks/test_fig*.py`` render from
# ---------------------------------------------------------------------------

#: Figure 13's default kernels (compute-intensive G10 plus two
#: memory-intensive picks) and policies.
FIG13_GPU_SUBSET: Tuple[str, ...] = ("G10", "G6", "G17")
FIG13_POLICY_SUBSET: Tuple[str, ...] = ("FR-FCFS", "FR-RR-FCFS", "G&I", "F3FS")


class Figure(NamedTuple):
    """Which cells one figure reads, and how its table is reduced, flattened and laid out."""

    #: ``cells(gpus, pims, policies) -> [GridTask]``.
    cells: Callable
    #: ``reduce(outcomes, gpus, pims, policies) -> data``; runs nothing.
    reduce: Callable
    #: ``rows(data) -> [row dict]``.
    rows: Callable
    #: ``columns(gpus) -> [column name]``; only Figure 6's depend on the GPUs.
    columns: Callable
    gpus: Sequence[str] = DEFAULT_GPU_SUBSET
    pims: Sequence[str] = DEFAULT_PIM_SUBSET
    policies: Sequence[str] = tuple(PAPER_POLICY_ORDER)


def _by_policy(data: Mapping[int, Mapping[str, object]]) -> List[Tuple[str, str, object]]:
    """``(config, policy, value)`` for every entry of ``{num_vcs: {policy: value}}``."""
    return [
        (f"VC{num_vcs}", policy, value)
        for num_vcs, by_policy in data.items()
        for policy, value in by_policy.items()
    ]


FIGURES: Dict[str, Figure] = {
    "fig4": Figure(
        fig4_cells,
        fig4_characterization,
        rows=lambda data: [
            {"group": group, "kernel": kid, **metrics}
            for group, kernels in data.items()
            for kid, metrics in kernels.items()
        ],
        columns=lambda gpus: ["group", "kernel", "noc_rate", "mc_rate", "blp", "rbhr"],
    ),
    "fig5": Figure(
        fig5_cells,
        fig5_corun_slowdown,
        rows=lambda data: [{"corunner": k, "avg_speedup": v} for k, v in data.items()],
        columns=lambda gpus: ["corunner", "avg_speedup"],
    ),
    "fig6": Figure(
        fig6_cells,
        fig6_mem_arrival,
        rows=lambda data: [
            {"config": config, "policy": policy, **per_gpu, "mean": _mean(per_gpu.values())}
            for config, policy, per_gpu in _by_policy(data)
        ],
        columns=lambda gpus: ["config", "policy", *gpus, "mean"],
    ),
    "fig8": Figure(
        _grid,
        fig8_fairness_throughput,
        rows=lambda data: [
            {"config": config, "policy": policy, "pim": pid, **metrics}
            for config, policy, per_pim in _by_policy(data)
            for pid, metrics in per_pim.items()
        ],
        columns=lambda gpus: [
            "config", "policy", "pim", "fairness", "throughput", "mem_speedup", "pim_speedup"
        ],
    ),
    "fig10": Figure(
        fig10_cells,
        fig10_switch_overheads,
        rows=lambda data: [
            {"config": config, "policy": policy, **metrics}
            for config, policy, metrics in _by_policy(data)
        ],
        columns=lambda gpus: [
            "config", "policy", "switches_vs_fcfs", "conflicts_per_switch", "drain_latency"
        ],
    ),
    "fig11": Figure(
        fig11_cells,
        fig11_llm_speedup,
        rows=lambda data: [
            {"config": config, "policy": policy, "speedup": value}
            for config, policy, value in _by_policy(data)
        ],
        columns=lambda gpus: ["config", "policy", "speedup"],
    ),
    "fig13": Figure(
        _grid,
        fig13_intensity_extremes,
        rows=lambda data: [
            {"config": config, "policy": policy, "gpu": gid, **metrics}
            for config, policy, per_gpu in _by_policy(data)
            for gid, metrics in per_gpu.items()
        ],
        columns=lambda gpus: ["config", "policy", "gpu", "fairness", "throughput"],
        gpus=FIG13_GPU_SUBSET,
        policies=FIG13_POLICY_SUBSET,
    ),
    "fig14a": Figure(
        fig14a_cells,
        fig14a_ablation,
        rows=list,
        columns=lambda gpus: ["label", "fairness", "throughput", "llm_speedup"],
    ),
}


def figure_tables(
    names: Sequence[str],
    scale: ExperimentScale,
    gpus: Optional[Sequence[str]] = None,
    pims: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    store_dir: Optional[str] = None,
    on_sweep: Optional[Callable[[GridReport], None]] = None,
) -> Dict[str, Tuple[object, List[Dict], List[str]]]:
    """``{name: (data, rows, columns)}`` for figures ``names``, from one
    sweep over the union of their cells (through the result store at
    ``store_dir``, if given; its report goes to ``on_sweep``).

    An empty or missing subset takes each figure's default.  A cell that
    fails raises ``RuntimeError`` naming it; no table is rendered then.
    """
    subsets = {}
    for name in names:
        figure = FIGURES[name]
        defaults = (figure.gpus, figure.pims, figure.policies)
        subsets[name] = [list(given or d) for given, d in zip((gpus, pims, policies), defaults)]
    cells = [cell for name in names for cell in FIGURES[name].cells(*subsets[name])]
    outcomes = run_cells(scale, cells, store_dir, on_sweep)
    tables = {}
    for name in names:
        figure = FIGURES[name]
        data = figure.reduce(outcomes, *subsets[name])
        tables[name] = (data, figure.rows(data), figure.columns(subsets[name][0]))
    return tables


def figure_table(
    name: str,
    scale: ExperimentScale,
    gpus: Optional[Sequence[str]] = None,
    pims: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    store_dir: Optional[str] = None,
) -> Tuple[object, List[Dict], List[str]]:
    """Figure ``name``'s ``(data, rows, columns)`` (see :func:`figure_tables`)."""
    return figure_tables([name], scale, gpus, pims, policies, store_dir)[name]


# ---------------------------------------------------------------------------
# Telemetry consumers (repro.obs)
# ---------------------------------------------------------------------------


def latency_breakdown_rows(telemetry: Mapping) -> List[Dict[str, object]]:
    """Flatten a telemetry stats summary into per-(mode, stage) table rows.

    ``telemetry`` is ``SimResult.telemetry`` (i.e. ``Telemetry.summary()``);
    rows follow the canonical stage order and render directly with
    :func:`format_table` / ``report._md_table``.
    """
    rows: List[Dict[str, object]] = []
    for mode in sorted(telemetry.get("stages", {})):
        for stage, hist in telemetry["stages"][mode].items():
            rows.append(
                {
                    "mode": mode,
                    "stage": stage,
                    "count": hist["count"],
                    "mean": hist["mean"],
                    "p50": hist["p50"],
                    "p95": hist["p95"],
                    "p99": hist["p99"],
                    "max": hist["max"],
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Rendering helper
# ---------------------------------------------------------------------------


def format_value(value: object) -> str:
    """A table cell: floats to three decimals, anything else as ``str``."""
    return f"{value:.3f}" if isinstance(value, float) else str(value)


def format_table(rows: Sequence[Mapping[str, object]], columns: Sequence[str]) -> str:
    """Align rows of dicts into a fixed-width text table."""
    widths = {c: len(c) for c in columns}
    rendered = []
    for row in rows:
        line = {c: format_value(row.get(c, "")) for c in columns}
        for c in columns:
            widths[c] = max(widths[c], len(line[c]))
        rendered.append(line)
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    divider = "  ".join("-" * widths[c] for c in columns)
    body = [
        "  ".join(line[c].ljust(widths[c]) for c in columns) for line in rendered
    ]
    return "\n".join([header, divider, *body])
