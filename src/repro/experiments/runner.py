"""Experiment drivers (Section III methodology).

:class:`Runner` executes the paper's three run types on a scaled system:

* **standalone** — one kernel alone (baselines for every speedup);
* **competitive** — a GPU kernel and a PIM kernel from different
  applications, each looping until both completed once (Section III-B);
* **collaborative** — the LLM scenario: QKV GEMM on the GPU SMs
  overlapped with MHA on PIM, run to completion once.

SM allocations mirror the paper proportionally: the full machine for GPU
standalone runs (80 SMs → ``gpu_sms_full``), a small allocation for the
PIM kernel and the GPU-8 characterization (8 SMs → ``pim_sms``), and the
remainder for the GPU kernel under co-execution (72 SMs → ``gpu_sms_corun``).

Standalone baselines are cached (optionally on disk) because every figure
reuses them.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.config import SystemConfig
from repro.core.policies import PolicySpec
from repro.gpu.kernel import KernelSpec
from repro.gpu.warp_traces import WarpTraceCache
from repro.metrics.fairness import (
    collaborative_speedup,
    fairness_index,
    ideal_collaborative_speedup,
    system_throughput,
)
from repro.sim.results import SimResult
from repro.sim.system import GPUSystem
from repro.workloads import get_gpu_kernel, get_pim_kernel, llm_kernels

#: Policy used for standalone baselines (the paper's characterization runs
#: use FR-FCFS; baselines must not depend on the policy under test).
BASELINE_POLICY = PolicySpec("FR-FCFS")


#: Requests simulated by finished systems after which a runner runs a
#: full garbage collection before building the next system.  A finished
#: system leaves ~0.5 MB of cyclic garbage, plus up to ~0.7 MB per
#: thousand requests it simulated.
GC_AFTER_REQUESTS = 2048


def _load_duration_cache(path: str) -> Dict[str, int]:
    """Read a ``REPRO_CACHE`` duration file; unreadable counts as empty."""
    try:
        with open(path) as fh:
            return {k: int(v) for k, v in json.load(fh).items()}
    except (OSError, ValueError, AttributeError, TypeError) as exc:
        print(f"warning: ignoring unreadable duration cache {path} ({exc})", file=sys.stderr)
        return {}


@dataclass(frozen=True)
class ExperimentScale:
    """Scaled-system knobs (see DESIGN.md section 5)."""

    num_channels: int = 8
    gpu_sms_full: int = 10  # "80 SMs" analog
    gpu_sms_corun: int = 8  # "72 SMs" analog
    pim_sms: int = 2  # "8 SMs" analog (also the GPU-8 allocation)
    noc_queue_size: int = 64  # "512 entries" analog
    workload_scale: float = 0.25
    seed: int = 1
    max_cycles: int = 3_000_000
    #: Starvation cutoff: a contended kernel still unfinished after this
    #: many times its standalone duration is scored by elapsed time (its
    #: speedup is then <= 1/starvation_factor, i.e. effectively starved —
    #: the paper reports these as fairness index 0).
    starvation_factor: int = 30
    #: Model DRAM refresh (fidelity extension; off in the paper sweeps).
    refresh_enabled: bool = False

    def __post_init__(self) -> None:
        # Fail fast with the offending field named: a bad cell should be
        # quarantined by the sweep supervisor on first sight (ValueError
        # is non-retryable), not retried or half-simulated.
        for name in (
            "num_channels",
            "gpu_sms_full",
            "gpu_sms_corun",
            "pim_sms",
            "noc_queue_size",
            "max_cycles",
            "starvation_factor",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(
                    f"ExperimentScale.{name} must be a positive integer (got {value!r})"
                )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ValueError(
                f"ExperimentScale.seed must be a non-negative integer (got {self.seed!r})"
            )
        scale = self.workload_scale
        if isinstance(scale, bool) or not isinstance(scale, (int, float)) or not scale > 0:
            raise ValueError(
                f"ExperimentScale.workload_scale must be > 0 (got {scale!r})"
            )

    def config(self, num_vcs: int = 1, noc_queue_size: Optional[int] = None) -> SystemConfig:
        base = SystemConfig.scaled(
            num_channels=self.num_channels,
            num_sms=self.gpu_sms_full,
            noc_queue_size=noc_queue_size or self.noc_queue_size,
        )
        return base.replace(
            num_virtual_channels=num_vcs, refresh_enabled=self.refresh_enabled
        )


@dataclass
class CompetitiveOutcome:
    """Metrics of one GPU/PIM co-execution run."""

    gpu_id: str
    pim_id: str
    policy: str
    num_vcs: int
    gpu_speedup: float
    pim_speedup: float
    mode_switches: int
    conflicts_per_switch: float
    drain_latency_per_switch: float
    mem_arrival_rate: float  # MEM requests/cycle at the controllers
    cycles: int

    @property
    def fairness(self) -> float:
        return fairness_index(self.gpu_speedup, self.pim_speedup)

    @property
    def throughput(self) -> float:
        return system_throughput((self.gpu_speedup, self.pim_speedup))


@dataclass
class CollaborativeOutcome:
    """Metrics of one LLM collaborative run (Figure 11)."""

    policy: str
    num_vcs: int
    speedup: float
    ideal_speedup: float
    cycles: int
    gpu_standalone: int
    pim_standalone: int


def competitive_key(
    scale: ExperimentScale, gid: str, pid: str, policy: PolicySpec, num_vcs: int
) -> str:
    """Content address of one competitive grid cell, computable without a Runner."""
    from repro.store import store_key

    return store_key(
        "competitive",
        scale,
        num_vcs,
        policy=policy,
        workloads={"gpu_workload": get_gpu_kernel(gid), "pim_workload": get_pim_kernel(pid)},
        gpu=gid,
        pim=pid,
    )


class Runner:
    """Executes and caches the paper's experiment types."""

    def __init__(
        self,
        scale: ExperimentScale = ExperimentScale(),
        cache_path: Optional[str] = None,
        perf_counters: bool = False,
        store=None,
        watchdog_window: Optional[int] = None,
    ):
        self.scale = scale
        #: With a window set, every system this runner builds gets a
        #: no-progress watchdog: a livelocked cell raises a structured
        #: SimulationStalled (quarantined by the sweep supervisor) instead
        #: of burning its whole cycle budget.  Observe-only — results are
        #: bit-identical with or without it, so it stays out of the
        #: result-store fingerprint.
        self.watchdog_window = watchdog_window
        #: Shared EngineCounters across every system this runner builds
        #: (engine wall-clock per stage, aggregated over all runs).
        self.perf = None
        if perf_counters:
            from repro.perf.counters import EngineCounters

            self.perf = EngineCounters()
        #: Optional content-addressed result store (repro.store): every
        #: completed standalone SimResult and competitive outcome is
        #: written through it, and looked up before simulating.
        self.store = store
        if self.store is not None and self.store.counters is None:
            self.store.counters = self.perf
        #: How the last competitive() call was satisfied: "memo" (this
        #: runner's in-memory cache), "hit" (result store), "miss" (fresh
        #: simulation), or None when no store is attached.
        self.store_last: Optional[str] = None
        #: Warp programs recorded by any system this runner builds and
        #: replayed by all of them (see repro.gpu.warp_traces): a sweep
        #: or fabric worker shares traces across baselines and cells.
        self.traces = WarpTraceCache()
        self._uncollected_requests = 0
        self._standalone_cache: Dict[str, SimResult] = {}
        self._competitive_cache: Dict[Tuple[str, str, str, int], CompetitiveOutcome] = {}
        self._duration_cache: Dict[str, int] = {}
        self.cache_path = cache_path or os.environ.get("REPRO_CACHE")
        if self.cache_path and os.path.exists(self.cache_path):
            self._duration_cache = _load_duration_cache(self.cache_path)

    # -- cache helpers ------------------------------------------------------

    def _save_cache(self) -> None:
        # Write-then-rename: other runners (sweep workers) read the same
        # path at construction and must never see a truncated file.
        if self.cache_path:
            tmp = f"{self.cache_path}.{os.getpid()}.tmp"
            try:
                with open(tmp, "w") as fh:
                    json.dump(self._duration_cache, fh)
                os.replace(tmp, self.cache_path)
            finally:
                if os.path.exists(tmp):  # the write failed part-way
                    os.unlink(tmp)

    def _build_system(self, config: SystemConfig, policy: PolicySpec) -> GPUSystem:
        from repro.engine_soa import create_system

        # Finished systems are cyclic garbage (stage tables and buffer
        # hooks point back at them) that only a full collection frees.
        # Collect once enough simulated work has piled up, so a worker
        # holds a bounded amount of it whatever the collector's own
        # thresholds do, without paying a full pass per tiny cell.
        if self._uncollected_requests >= GC_AFTER_REQUESTS:
            self._uncollected_requests = 0
            gc.collect()

        system = create_system(
            config,
            policy,
            seed=self.scale.seed,
            scale=self.scale.workload_scale,
            traces=self.traces,
        )
        if self.perf is not None:
            system.perf = self.perf
        if self.watchdog_window is not None:
            system.enable_watchdog(self.watchdog_window)
        return system

    def _simulate(self, system: GPUSystem, max_cycles: int) -> SimResult:
        result = system.run(max_cycles=max_cycles)
        self._uncollected_requests += sum(k.requests_injected for k in result.kernels.values())
        return result

    def _standalone_key(self, label: str, sms: int, num_vcs: int) -> str:
        """Key of a baseline in the in-memory and ``REPRO_CACHE`` duration
        caches: every scale field a standalone run depends on."""
        s = self.scale
        refresh = "|refresh" if s.refresh_enabled else ""
        return (
            f"{label}|sms={sms}|vc={num_vcs}|ch={s.num_channels}|q={s.noc_queue_size}"
            f"|scale={s.workload_scale}|seed={s.seed}{refresh}"
        )

    # -- standalone runs ---------------------------------------------------

    def _standalone_store_key(self, label: str, spec: KernelSpec, sms: int, num_vcs: int) -> str:
        from repro.store import store_key

        return store_key(
            "standalone", self.scale, num_vcs, label=label, sms=sms, workloads={"workload": spec}
        )

    def _run_standalone(self, label: str, spec: KernelSpec, sms: int, num_vcs: int) -> SimResult:
        key = self._standalone_key(label, sms, num_vcs)
        cached = self._standalone_cache.get(key)
        if cached is not None:
            return cached
        store_key = None
        if self.store is not None:
            from repro.sim.export import result_from_dict

            store_key = self._standalone_store_key(label, spec, sms, num_vcs)
            payload = self.store.get(store_key, kind="standalone")
            if payload is not None:
                result = result_from_dict(payload)
                self._standalone_cache[key] = result
                self._duration_cache[key] = result.kernels[0].first_duration
                return result
        system = self._build_system(self.scale.config(num_vcs), BASELINE_POLICY)
        system.add_kernel(spec, num_sms=sms)
        result = self._simulate(system, self.scale.max_cycles)
        if not result.all_completed:
            raise RuntimeError(f"standalone run {label} did not complete in budget")
        self._standalone_cache[key] = result
        self._duration_cache[key] = result.kernels[0].first_duration
        self._save_cache()
        if self.store is not None:
            from repro.sim.export import result_to_dict

            self.store.put(
                store_key,
                result_to_dict(result),
                meta={"kind": "standalone", "label": key},
            )
        return result

    def standalone_duration(self, label: str, spec: KernelSpec, sms: int, num_vcs: int) -> int:
        key = self._standalone_key(label, sms, num_vcs)
        if key in self._duration_cache:
            return self._duration_cache[key]
        return self._run_standalone(label, spec, sms, num_vcs).kernels[0].first_duration

    def gpu_standalone(self, gid: str, sms: Optional[int] = None, num_vcs: int = 1) -> SimResult:
        sms = sms if sms is not None else self.scale.gpu_sms_full
        return self._run_standalone(gid, get_gpu_kernel(gid), sms, num_vcs)

    def pim_standalone(self, pid: str, num_vcs: int = 1) -> SimResult:
        return self._run_standalone(pid, get_pim_kernel(pid), self.scale.pim_sms, num_vcs)

    # -- competitive co-execution ---------------------------------------------

    def competitive(
        self,
        gid: str,
        pid: str,
        policy: PolicySpec,
        num_vcs: int = 1,
    ) -> CompetitiveOutcome:
        """One GPU/PIM pair under a policy (Section III-B competitive)."""
        cache_key = (gid, pid, repr(policy), num_vcs)
        cached = self._competitive_cache.get(cache_key)
        if cached is not None:
            self.store_last = "memo" if self.store is not None else None
            return cached
        store_key = None
        if self.store is not None:
            store_key = self.competitive_store_key(gid, pid, policy, num_vcs)
            fields = self.store.get(store_key, kind="competitive")
            if fields is not None:
                outcome = CompetitiveOutcome(**fields)
                self._competitive_cache[cache_key] = outcome
                self.store_last = "hit"
                return outcome
        s = self.scale
        gpu_alone = self.standalone_duration(gid, get_gpu_kernel(gid), s.gpu_sms_full, num_vcs)
        pim_alone = self.standalone_duration(pid, get_pim_kernel(pid), s.pim_sms, num_vcs)

        system = self._build_system(s.config(num_vcs), policy)
        gpu_run = system.add_kernel(get_gpu_kernel(gid), num_sms=s.gpu_sms_corun, loop=True)
        pim_run = system.add_kernel(get_pim_kernel(pid), num_sms=s.pim_sms, loop=True)
        budget = min(s.max_cycles, s.starvation_factor * max(gpu_alone, pim_alone))
        result = self._simulate(system, budget)

        gpu_first = result.kernels[gpu_run.kernel_id].first_duration
        pim_first = result.kernels[pim_run.kernel_id].first_duration
        gpu_speedup = gpu_alone / (gpu_first if gpu_first else result.cycles)
        pim_speedup = pim_alone / (pim_first if pim_first else result.cycles)
        mem_arrivals = result.kernels[gpu_run.kernel_id].mc_arrivals
        outcome = CompetitiveOutcome(
            gpu_id=gid,
            pim_id=pid,
            policy=policy.label(),
            num_vcs=num_vcs,
            gpu_speedup=gpu_speedup,
            pim_speedup=pim_speedup,
            mode_switches=result.mode_switches,
            conflicts_per_switch=result.additional_conflicts_per_switch,
            drain_latency_per_switch=result.mem_drain_latency_per_switch,
            mem_arrival_rate=mem_arrivals / result.cycles if result.cycles else 0.0,
            cycles=result.cycles,
        )
        self._competitive_cache[cache_key] = outcome
        if self.store is not None:
            from dataclasses import asdict

            self.store.put(
                store_key,
                asdict(outcome),
                meta={
                    "kind": "competitive",
                    "label": f"{gid}|{pid}|{policy.label()}|vc{num_vcs}",
                },
            )
            self.store_last = "miss"
        return outcome

    def competitive_store_key(
        self, gid: str, pid: str, policy: PolicySpec, num_vcs: int
    ) -> str:
        """Content address of one competitive grid cell (see repro.store)."""
        return competitive_key(self.scale, gid, pid, policy, num_vcs)

    def gpu_pair(self, gid_big: str, gid_small: str, policy: PolicySpec = BASELINE_POLICY) -> float:
        """Speedup of ``gid_big`` on the co-run SMs while ``gid_small`` runs
        on the small allocation (Figure 5's GPU-vs-GPU interference bars).

        Returns the big kernel's speedup relative to its full-machine
        standalone run.
        """
        s = self.scale
        big_alone = self.standalone_duration(gid_big, get_gpu_kernel(gid_big), s.gpu_sms_full, 1)
        system = self._build_system(s.config(1), policy)
        big_run = system.add_kernel(get_gpu_kernel(gid_big), num_sms=s.gpu_sms_corun, loop=True)
        system.add_kernel(get_gpu_kernel(gid_small), num_sms=s.pim_sms, loop=True)
        budget = min(s.max_cycles, s.starvation_factor * big_alone)
        result = self._simulate(system, budget)
        first = result.kernels[big_run.kernel_id].first_duration
        return big_alone / (first if first else result.cycles)

    # -- collaborative co-execution -------------------------------------------

    def collaborative(
        self,
        policy: PolicySpec,
        num_vcs: int = 1,
    ) -> CollaborativeOutcome:
        """The GPT-3-like QKV + MHA overlap (Section III-B collaborative)."""
        s = self.scale
        qkv, mha = llm_kernels()
        gpu_alone = self.standalone_duration("llm-qkv", qkv, s.gpu_sms_full, num_vcs)
        pim_alone = self.standalone_duration("llm-mha", mha, s.pim_sms, num_vcs)

        system = self._build_system(s.config(num_vcs), policy)
        system.add_kernel(qkv, num_sms=s.gpu_sms_corun)
        system.add_kernel(mha, num_sms=s.pim_sms)
        budget = min(s.max_cycles, s.starvation_factor * (gpu_alone + pim_alone))
        result = self._simulate(system, budget)
        concurrent = result.cycles if result.all_completed else budget
        return CollaborativeOutcome(
            policy=policy.label(),
            num_vcs=num_vcs,
            speedup=collaborative_speedup(gpu_alone, pim_alone, concurrent),
            ideal_speedup=ideal_collaborative_speedup(gpu_alone, pim_alone),
            cycles=result.cycles,
            gpu_standalone=gpu_alone,
            pim_standalone=pim_alone,
        )
