"""Engine throughput benchmark (``repro bench``).

Runs fixed co-run scenarios through :class:`~repro.sim.system.GPUSystem`
and reports simulated cycles per wall-clock second and (optionally) a
per-stage wall-clock breakdown.  The output is the payload written to
``BENCH_engine.json`` by the CLI and the perf smoke benchmark.

Scenarios
---------
``corun_horizon``
    A finite G10 (compute-heavy) x P1 (streaming PIM) co-run simulated
    for a fixed 100k-cycle horizon — the fixed-window methodology used by
    the paper's timeline figures.  Once both kernels complete, the tail
    of the window is idle, so this tracks the cost of an empty step.
``corun_saturated``
    A memory-intensive G17 x looping P1 co-run that keeps every queue
    busy, so this tracks the engine's busy-path (active-set) throughput.
``saturated_corun``
    The same pairing with *both* kernels looping and a GPU-heavy 8/2 SM
    split, so the MEM queues stay deep for the whole window.  This is the
    regime where scheduling cost dominates; it tracks the indexed
    per-bank scheduler and the SM due-event batching.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.config import SystemConfig
from repro.core.policies import PolicySpec
from repro.engine_soa import create_system
from repro.request import reset_request_ids
from repro.sim.system import GPUSystem
from repro.workloads import get_gpu_kernel, get_pim_kernel


@dataclass(frozen=True)
class BenchScenario:
    """One reproducible engine benchmark configuration."""

    name: str
    gpu_kernel: str
    pim_kernel: str
    loop_pim: bool
    max_cycles: int
    policy: str = "FR-FCFS"
    loop_gpu: bool = False
    gpu_sms: Optional[int] = None  # SMs for the GPU kernel (default: half)
    num_vcs: int = 1
    description: str = ""


SCENARIOS: Dict[str, BenchScenario] = {
    scenario.name: scenario
    for scenario in (
        BenchScenario(
            name="corun_horizon",
            gpu_kernel="G10",
            pim_kernel="P1",
            loop_pim=False,
            max_cycles=100_000,
            description="finite co-run over a fixed 100k-cycle window "
            "(compute phases + idle tail: exercises empty steps)",
        ),
        BenchScenario(
            name="corun_saturated",
            gpu_kernel="G17",
            pim_kernel="P1",
            loop_pim=True,
            max_cycles=50_000,
            description="memory-intensive co-run with a looping PIM kernel "
            "(always busy: exercises the active-set busy path)",
        ),
        BenchScenario(
            name="saturated_corun",
            gpu_kernel="G17",
            pim_kernel="P1",
            loop_pim=True,
            loop_gpu=True,
            gpu_sms=8,
            max_cycles=50_000,
            description="both kernels loop with a GPU-heavy 8/2 SM split: "
            "deep MEM queues every cycle (exercises the indexed per-bank "
            "scheduler and SM due-event batching)",
        ),
    )
}


def resolve_scenario(name: str, source: str = "scenario") -> str:
    """Validate a benchmark scenario name.

    Raises ``ValueError`` naming the offending value and the valid
    choices, with ``source`` identifying where the bad value came from.
    """
    if name not in SCENARIOS:
        raise ValueError(
            f"unknown {source} {name!r}: valid choices are "
            + ", ".join(sorted(SCENARIOS))
        )
    return name


#: Scenarios accepted by ``repro trace``: every benchmark scenario plus a
#: trace-friendly variant of the examples/mode_timeline.py co-run (F3FS
#: under VC2, both kernels looping — frequent mode phases to look at).
TRACE_SCENARIOS: Dict[str, BenchScenario] = {
    **SCENARIOS,
    "mode_timeline": BenchScenario(
        name="mode_timeline",
        gpu_kernel="G19",
        pim_kernel="P1",
        loop_pim=True,
        loop_gpu=True,
        gpu_sms=8,
        max_cycles=30_000,
        policy="F3FS",
        num_vcs=2,
        description="the examples/mode_timeline.py co-run (G19 x P1 under "
        "VC2): alternating MEM/PIM phases, made for looking at traces",
    ),
}


def sm_split(scenario: BenchScenario, sms: int) -> Tuple[int, int]:
    """``(gpu_sms, pim_sms)`` for ``scenario`` on ``sms`` SMs.

    Raises ``ValueError`` when either kernel would get no SM.
    """
    gpu_sms = scenario.gpu_sms if scenario.gpu_sms is not None else sms // 2
    if not 0 < gpu_sms < sms:
        raise ValueError(
            f"scenario {scenario.name} needs at least {max(gpu_sms, 1) + 1} SMs"
        )
    return gpu_sms, sms - gpu_sms


def build_scenario_system(
    scenario: BenchScenario,
    channels: int = 8,
    sms: int = 10,
    scale: float = 0.12,
    seed: int = 1,
    policy: Optional[PolicySpec] = None,
) -> GPUSystem:
    """Build the system for a scenario (``policy`` overrides the default).

    Shared by the benchmark harness and ``repro trace``; resets the global
    request-id counter so repeated builds are bit-reproducible.
    """
    reset_request_ids()
    config = SystemConfig.scaled(num_channels=channels, num_sms=sms)
    if scenario.num_vcs != config.num_virtual_channels:
        config = config.replace(num_virtual_channels=scenario.num_vcs)
    gpu_sms, pim_sms = sm_split(scenario, sms)
    system = create_system(
        config,
        policy if policy is not None else PolicySpec(scenario.policy),
        seed=seed,
        scale=scale,
    )
    system.add_kernel(
        get_gpu_kernel(scenario.gpu_kernel), num_sms=gpu_sms, loop=scenario.loop_gpu
    )
    system.add_kernel(
        get_pim_kernel(scenario.pim_kernel), num_sms=pim_sms, loop=scenario.loop_pim
    )
    return system


def _timed_run(system: GPUSystem, max_cycles: int) -> Dict:
    """Time a run: simulated cycles, wall seconds and throughput."""
    start = time.perf_counter()
    result = system.run(max_cycles=max_cycles, until_all_complete_once=False)
    wall = time.perf_counter() - start
    return {
        "cycles": result.cycles,
        "wall_seconds": round(wall, 4),
        "cycles_per_sec": round(result.cycles / wall, 1) if wall else 0.0,
    }


def run_engine_bench(
    scenario_names: Optional[list] = None,
    channels: int = 8,
    sms: int = 10,
    scale: float = 0.12,
    seed: int = 1,
    stage_breakdown: bool = True,
) -> Dict:
    """Run the engine benchmark and return the BENCH_engine.json payload.

    Each scenario's ``fast`` entry holds the timed run; with
    ``stage_breakdown`` a second, instrumented run adds ``stages``.
    """
    names = [resolve_scenario(n) for n in (scenario_names or list(SCENARIOS))]
    payload: Dict = {
        "benchmark": "engine_throughput",
        "config": {"channels": channels, "sms": sms, "scale": scale, "seed": seed},
        "scenarios": {},
    }
    for name in names:
        scenario = SCENARIOS[name]
        system = build_scenario_system(scenario, channels, sms, scale, seed)
        entry: Dict = {
            "description": scenario.description,
            "fast": _timed_run(system, scenario.max_cycles),
        }

        if stage_breakdown:
            instrumented = build_scenario_system(scenario, channels, sms, scale, seed)
            counters = instrumented.enable_perf_counters()
            instrumented.run(
                max_cycles=scenario.max_cycles, until_all_complete_once=False
            )
            entry["stages"] = counters.breakdown()

        payload["scenarios"][name] = entry
    return payload
