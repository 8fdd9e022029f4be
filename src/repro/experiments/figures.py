"""Per-figure experiment harnesses.

One function per table/figure of the paper's evaluation (see DESIGN.md's
experiment index).  Each returns plain data structures (dicts keyed by
kernel/policy).  ``FIGURES`` turns each into its table — default subsets,
rows and columns — once, for ``repro figure``, ``repro report`` and the
committed ``benchmarks/results/`` tables; ``format_table`` renders rows as
aligned text.

All functions accept kernel subsets so the benchmark suite can run quickly;
pass the full id lists to reproduce the paper-scale sweeps.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.core.policies import PAPER_POLICY_ORDER, PolicySpec
from repro.experiments.runner import Runner
from repro.experiments.sweep import DEFAULT_GPU_SUBSET, DEFAULT_PIM_SUBSET
from repro.metrics.stats import arithmetic_mean, geometric_mean
from repro.workloads import pim_ids, rodinia_ids

#: F3FS collaborative CAPs per VC configuration, set like the paper's via
#: a sensitivity study (Section VII-B): asymmetric MEM-favoring CAPs under
#: VC1 (paper: 256/128; here 32/16 — same 2:1 ratio, magnitudes scaled to
#: the smaller system where queue pressure is lower so large CAPs never
#: bind) and symmetric CAPs under VC2 (paper: 64/64; here 32/32).
COLLABORATIVE_F3FS_CAPS = {1: {"mem_cap": 32, "pim_cap": 16}, 2: {"mem_cap": 32, "pim_cap": 32}}


def collaborative_policy(name: str, num_vcs: int) -> PolicySpec:
    if name == "F3FS":
        return PolicySpec(name, **COLLABORATIVE_F3FS_CAPS[num_vcs])
    return PolicySpec(name)


def _mean(values: Iterable[float]) -> float:
    data = list(values)
    return arithmetic_mean(data) if data else 0.0


# ---------------------------------------------------------------------------
# Figure 4 — memory access characterization
# ---------------------------------------------------------------------------


def fig4_characterization(
    runner: Runner,
    gpu_subset: Optional[Sequence[str]] = None,
    pim_subset: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Arrival rates, BLP, and RBHR for GPU-80 / GPU-8 / PIM (Figure 4).

    Returns ``{group: {kernel_id: {metric: value}}}`` with metrics
    ``noc_rate`` (Fig 4a), ``mc_rate`` (Fig 4b), ``blp`` (Fig 4c) and
    ``rbhr`` (Fig 4d).
    """
    gpu_subset = list(gpu_subset or rodinia_ids())
    pim_subset = list(pim_subset or pim_ids())
    scale = runner.scale
    data: Dict[str, Dict[str, Dict[str, float]]] = {"GPU-80": {}, "GPU-8": {}, "PIM": {}}
    for gid in gpu_subset:
        for group, sms in (("GPU-80", scale.gpu_sms_full), ("GPU-8", scale.pim_sms)):
            result = runner.gpu_standalone(gid, sms=sms)
            kernel = result.kernels[0]
            data[group][gid] = {
                "noc_rate": kernel.injection_rate(result.cycles),
                "mc_rate": kernel.mc_arrival_rate(result.cycles),
                "blp": result.bank_level_parallelism,
                "rbhr": kernel.row_buffer_hit_rate,
            }
    for pid in pim_subset:
        result = runner.pim_standalone(pid)
        kernel = result.kernels[0]
        data["PIM"][pid] = {
            "noc_rate": kernel.injection_rate(result.cycles),
            "mc_rate": kernel.mc_arrival_rate(result.cycles),
            "blp": result.bank_level_parallelism,
            "rbhr": kernel.row_buffer_hit_rate,
        }
    return data


# ---------------------------------------------------------------------------
# Figure 5 — co-run slowdown of the Rodinia suite
# ---------------------------------------------------------------------------


def fig5_corun_slowdown(
    runner: Runner,
    suite: Optional[Sequence[str]] = None,
    gpu_corunners: Sequence[str] = ("G4", "G6", "G15", "G17"),
    pim_corunner: str = "P1",
) -> Dict[str, float]:
    """Average suite speedup on the co-run SMs per co-runner (Figure 5).

    Keys: ``"none"`` (the reduced-SM effect alone), each GPU co-runner id,
    and the PIM co-runner id.  Values are normalized to the full-machine
    standalone run.
    """
    suite = list(suite or rodinia_ids())
    scale = runner.scale
    results: Dict[str, float] = {}

    def full_alone(gid: str) -> int:
        return runner.gpu_standalone(gid, sms=scale.gpu_sms_full).kernels[0].first_duration

    results["none"] = _mean(
        full_alone(gid)
        / runner.gpu_standalone(gid, sms=scale.gpu_sms_corun).kernels[0].first_duration
        for gid in suite
    )
    for corunner in gpu_corunners:
        results[corunner] = _mean(
            runner.gpu_pair(gid, corunner) for gid in suite if gid != corunner
        )
    pim_policy = PolicySpec("FR-FCFS")
    results[pim_corunner] = _mean(
        runner.competitive(gid, pim_corunner, pim_policy, num_vcs=1).gpu_speedup
        for gid in suite
    )
    return results


# ---------------------------------------------------------------------------
# Competitive grid figures (6, 8, 10)
# ---------------------------------------------------------------------------


def fig6_mem_arrival(
    runner: Runner,
    gpu_subset: Optional[Sequence[str]] = None,
    pim_subset: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    vc_configs: Sequence[int] = (1, 2),
) -> Dict[int, Dict[str, Dict[str, float]]]:
    """Normalized MEM arrival rate at the MC (Figure 6).

    Returns ``{num_vcs: {policy: {gpu_id: normalized_rate}}}`` where the
    rate is averaged across PIM co-runners and normalized to the GPU
    kernel's standalone arrival rate (higher is better; 1.0 = no
    degradation).
    """
    gpu_subset = list(gpu_subset or rodinia_ids())
    pim_subset = list(pim_subset or pim_ids())
    policies = list(policies or PAPER_POLICY_ORDER)
    scale = runner.scale
    out: Dict[int, Dict[str, Dict[str, float]]] = {}
    for num_vcs in vc_configs:
        out[num_vcs] = {}
        for name in policies:
            spec = PolicySpec(name)
            per_gpu: Dict[str, float] = {}
            for gid in gpu_subset:
                # Standalone arrival rate on the co-run SM allocation.
                alone = runner.gpu_standalone(gid, sms=scale.gpu_sms_corun, num_vcs=num_vcs)
                base_rate = alone.kernels[0].mc_arrival_rate(alone.cycles)
                rates = [
                    runner.competitive(gid, pid, spec, num_vcs=num_vcs).mem_arrival_rate
                    for pid in pim_subset
                ]
                per_gpu[gid] = _mean(rates) / base_rate if base_rate else 0.0
            out[num_vcs][name] = per_gpu
    return out


def fig8_fairness_throughput(
    runner: Runner,
    gpu_subset: Optional[Sequence[str]] = None,
    pim_subset: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    vc_configs: Sequence[int] = (1, 2),
) -> Dict[int, Dict[str, Dict[str, Dict[str, float]]]]:
    """Fairness Index and System Throughput per PIM kernel (Figure 8).

    Returns ``{num_vcs: {policy: {pim_id: {"fairness", "throughput",
    "mem_speedup", "pim_speedup"}}}}``, each averaged across GPU kernels.
    """
    gpu_subset = list(gpu_subset or rodinia_ids())
    pim_subset = list(pim_subset or pim_ids())
    policies = list(policies or PAPER_POLICY_ORDER)
    out: Dict[int, Dict[str, Dict[str, Dict[str, float]]]] = {}
    for num_vcs in vc_configs:
        out[num_vcs] = {}
        for name in policies:
            spec = PolicySpec(name)
            per_pim: Dict[str, Dict[str, float]] = {}
            for pid in pim_subset:
                runs = [
                    runner.competitive(gid, pid, spec, num_vcs=num_vcs) for gid in gpu_subset
                ]
                per_pim[pid] = {
                    "fairness": _mean(r.fairness for r in runs),
                    "throughput": _mean(r.throughput for r in runs),
                    "mem_speedup": _mean(r.gpu_speedup for r in runs),
                    "pim_speedup": _mean(r.pim_speedup for r in runs),
                }
            out[num_vcs][name] = per_pim
    return out


def fig10_switch_overheads(
    runner: Runner,
    gpu_subset: Optional[Sequence[str]] = None,
    pim_subset: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    vc_configs: Sequence[int] = (1, 2),
) -> Dict[int, Dict[str, Dict[str, float]]]:
    """Mode switches (normalized to FCFS, geomean), conflicts per switch,
    and MEM drain latency per switch (Figure 10).

    Returns ``{num_vcs: {policy: {"switches_vs_fcfs", "conflicts_per_switch",
    "drain_latency"}}}``.
    """
    gpu_subset = list(gpu_subset or rodinia_ids())
    pim_subset = list(pim_subset or pim_ids())
    policies = list(policies or PAPER_POLICY_ORDER)
    if "FCFS" not in policies:
        policies = ["FCFS"] + policies
    out: Dict[int, Dict[str, Dict[str, float]]] = {}
    for num_vcs in vc_configs:
        fcfs_spec = PolicySpec("FCFS")
        fcfs_switches = {
            (gid, pid): max(1, runner.competitive(gid, pid, fcfs_spec, num_vcs=num_vcs).mode_switches)
            for gid in gpu_subset
            for pid in pim_subset
        }
        out[num_vcs] = {}
        for name in policies:
            spec = PolicySpec(name)
            ratios: List[float] = []
            conflicts: List[float] = []
            drains: List[float] = []
            for gid in gpu_subset:
                for pid in pim_subset:
                    run = runner.competitive(gid, pid, spec, num_vcs=num_vcs)
                    ratios.append(max(run.mode_switches, 1) / fcfs_switches[(gid, pid)])
                    conflicts.append(run.conflicts_per_switch)
                    drains.append(run.drain_latency_per_switch)
            out[num_vcs][name] = {
                "switches_vs_fcfs": geometric_mean(ratios),
                "conflicts_per_switch": _mean(conflicts),
                "drain_latency": _mean(drains),
            }
    return out


# ---------------------------------------------------------------------------
# Figure 11 — collaborative LLM speedup
# ---------------------------------------------------------------------------


def fig11_llm_speedup(
    runner: Runner,
    policies: Optional[Sequence[str]] = None,
    vc_configs: Sequence[int] = (1, 2),
) -> Dict[int, Dict[str, float]]:
    """LLM speedup vs sequential execution per policy (Figure 11).

    The special key ``"Ideal"`` holds the perfect-overlap bound.
    """
    policies = list(policies or PAPER_POLICY_ORDER)
    out: Dict[int, Dict[str, float]] = {}
    for num_vcs in vc_configs:
        out[num_vcs] = {}
        ideal = None
        for name in policies:
            spec = collaborative_policy(name, num_vcs)
            run = runner.collaborative(spec, num_vcs=num_vcs)
            out[num_vcs][name] = run.speedup
            ideal = run.ideal_speedup
        if ideal is not None:
            out[num_vcs]["Ideal"] = ideal
    return out


# ---------------------------------------------------------------------------
# Figure 13 — intensity extremes
# ---------------------------------------------------------------------------


def fig13_intensity_extremes(
    runner: Runner,
    gpu_subset: Sequence[str] = ("G10", "G6", "G11", "G17", "G19"),
    pim_subset: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    vc_configs: Sequence[int] = (1, 2),
) -> Dict[int, Dict[str, Dict[str, Dict[str, float]]]]:
    """Fairness/throughput per *GPU* kernel, averaged over PIM kernels
    (Figure 13 — the orthogonal slice of Figure 8).

    Returns ``{num_vcs: {policy: {gpu_id: {"fairness", "throughput"}}}}``.
    """
    pim_subset = list(pim_subset or pim_ids())
    policies = list(policies or PAPER_POLICY_ORDER)
    out: Dict[int, Dict[str, Dict[str, Dict[str, float]]]] = {}
    for num_vcs in vc_configs:
        out[num_vcs] = {}
        for name in policies:
            spec = PolicySpec(name)
            per_gpu: Dict[str, Dict[str, float]] = {}
            for gid in gpu_subset:
                runs = [
                    runner.competitive(gid, pid, spec, num_vcs=num_vcs) for pid in pim_subset
                ]
                per_gpu[gid] = {
                    "fairness": _mean(r.fairness for r in runs),
                    "throughput": _mean(r.throughput for r in runs),
                }
            out[num_vcs][name] = per_gpu
    return out


# ---------------------------------------------------------------------------
# Figure 14a — F3FS ablation
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


def fig14a_ablation(
    runner: Runner,
    pim_id: str = "P2",
    gpu_subset: Optional[Sequence[str]] = None,
    num_vcs: int = 2,
) -> List[Dict[str, float]]:
    """Incremental impact of F3FS components on P2 and the LLM (Figure 14a).

    GPU kernels exclude kmeans (G11), which starves under FR-FCFS-Cap in
    the paper's runs.  Returns one dict per stage with the stage label,
    fairness index, throughput, and LLM speedup.
    """
    gpu_subset = [g for g in (gpu_subset or rodinia_ids()) if g != "G11"]
    rows: List[Dict[str, float]] = []
    for stage in ABLATION_STAGES:
        spec = PolicySpec(stage["policy"], **stage["params"])
        runs = [runner.competitive(gid, pim_id, spec, num_vcs=num_vcs) for gid in gpu_subset]
        llm = runner.collaborative(spec, num_vcs=num_vcs)
        rows.append(
            {
                "label": stage["label"],
                "fairness": _mean(r.fairness for r in runs),
                "throughput": _mean(r.throughput for r in runs),
                "llm_speedup": llm.speedup,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 14b — interconnect queue-size sensitivity
# ---------------------------------------------------------------------------


def fig14b_queue_sensitivity(
    runner_factory,
    queue_sizes: Sequence[int] = (32, 64, 128),
    gpu_subset: Optional[Sequence[str]] = None,
    pim_subset: Optional[Sequence[str]] = None,
) -> Dict[int, Dict[str, float]]:
    """F3FS sensitivity to NoC queue size under VC2 (Figure 14b).

    ``runner_factory(queue_size)`` must return a Runner whose scale uses
    that queue size.  Queue sizes are the scaled analog of the paper's
    256/512/1024 sweep around the 512-entry baseline.
    """
    gpu_subset = list(gpu_subset or rodinia_ids())
    pim_subset = list(pim_subset or pim_ids())
    spec = PolicySpec("F3FS")
    out: Dict[int, Dict[str, float]] = {}
    for size in queue_sizes:
        runner = runner_factory(size)
        runs = [
            runner.competitive(gid, pid, spec, num_vcs=2)
            for gid in gpu_subset
            for pid in pim_subset
        ]
        out[size] = {
            "fairness": _mean(r.fairness for r in runs),
            "throughput": _mean(r.throughput for r in runs),
        }
    return out


# ---------------------------------------------------------------------------
# Figure tables — the one definition ``repro figure``, ``repro report`` and
# ``benchmarks/test_fig*.py`` render from
# ---------------------------------------------------------------------------

#: Figure 5's GPU co-runners for the default (quick) runs.
FIG5_GPU_CORUNNERS: Tuple[str, ...] = ("G6", "G15")
#: Figure 13's default kernels (compute-intensive G10 plus two
#: memory-intensive picks) and policies.
FIG13_GPU_SUBSET: Tuple[str, ...] = ("G10", "G6", "G17")
FIG13_POLICY_SUBSET: Tuple[str, ...] = ("FR-FCFS", "FR-RR-FCFS", "G&I", "F3FS")


class Figure(NamedTuple):
    """How one figure's table is computed, flattened and laid out."""

    #: ``compute(runner, gpus, pims, policies) -> data``.
    compute: Callable
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
        compute=lambda runner, gpus, pims, policies: fig4_characterization(runner, gpus, pims),
        rows=lambda data: [
            {"group": group, "kernel": kid, **metrics}
            for group, kernels in data.items()
            for kid, metrics in kernels.items()
        ],
        columns=lambda gpus: ["group", "kernel", "noc_rate", "mc_rate", "blp", "rbhr"],
    ),
    "fig5": Figure(
        compute=lambda runner, gpus, pims, policies: fig5_corun_slowdown(
            runner, suite=gpus, gpu_corunners=FIG5_GPU_CORUNNERS
        ),
        rows=lambda data: [{"corunner": k, "avg_speedup": v} for k, v in data.items()],
        columns=lambda gpus: ["corunner", "avg_speedup"],
    ),
    "fig6": Figure(
        compute=fig6_mem_arrival,
        rows=lambda data: [
            {"config": config, "policy": policy, **per_gpu, "mean": _mean(per_gpu.values())}
            for config, policy, per_gpu in _by_policy(data)
        ],
        columns=lambda gpus: ["config", "policy", *gpus, "mean"],
    ),
    "fig8": Figure(
        compute=fig8_fairness_throughput,
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
        compute=fig10_switch_overheads,
        rows=lambda data: [
            {"config": config, "policy": policy, **metrics}
            for config, policy, metrics in _by_policy(data)
        ],
        columns=lambda gpus: [
            "config", "policy", "switches_vs_fcfs", "conflicts_per_switch", "drain_latency"
        ],
    ),
    "fig11": Figure(
        compute=lambda runner, gpus, pims, policies: fig11_llm_speedup(runner, policies),
        rows=lambda data: [
            {"config": config, "policy": policy, "speedup": value}
            for config, policy, value in _by_policy(data)
        ],
        columns=lambda gpus: ["config", "policy", "speedup"],
    ),
    "fig13": Figure(
        compute=fig13_intensity_extremes,
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
        compute=lambda runner, gpus, pims, policies: fig14a_ablation(runner, gpu_subset=gpus),
        rows=list,
        columns=lambda gpus: ["label", "fairness", "throughput", "llm_speedup"],
    ),
}


def figure_table(
    name: str,
    runner: Runner,
    gpus: Optional[Sequence[str]] = None,
    pims: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
) -> Tuple[object, List[Dict], List[str]]:
    """Compute figure ``name`` and return ``(data, rows, columns)``.

    An empty or missing subset takes the figure's default.
    """
    figure = FIGURES[name]
    gpus = list(gpus or figure.gpus)
    data = figure.compute(
        runner, gpus, list(pims or figure.pims), list(policies or figure.policies)
    )
    return data, figure.rows(data), figure.columns(gpus)


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


def format_table(rows: Sequence[Mapping[str, object]], columns: Sequence[str]) -> str:
    """Align rows of dicts into a fixed-width text table."""
    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    widths = {c: len(c) for c in columns}
    rendered = []
    for row in rows:
        line = {c: cell(row.get(c, "")) for c in columns}
        for c in columns:
            widths[c] = max(widths[c], len(line[c]))
        rendered.append(line)
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    divider = "  ".join("-" * widths[c] for c in columns)
    body = [
        "  ".join(line[c].ljust(widths[c]) for c in columns) for line in rendered
    ]
    return "\n".join([header, divider, *body])
