"""Experiment drivers (Section III methodology).

A *cell* (:class:`GridTask`, content address :func:`cell_key`) is one
simulation of one of four kinds, which :meth:`Runner.run` turns into its
outcome from memory, else the result store, else a fresh simulation:

* **standalone** — one kernel alone (baselines for every speedup);
* **competitive** — a GPU kernel and a PIM kernel from different
  applications, each looping until both completed once (Section III-B);
* **collaborative** — the LLM scenario: QKV GEMM on the GPU SMs
  overlapped with MHA on PIM, run to completion once;
* **gpu_pair** — two GPU kernels co-running (Figure 5's GPU-vs-GPU bars).

SM allocations mirror the paper proportionally: the full machine for GPU
standalone runs (80 SMs → ``gpu_sms_full``), a small allocation for the
PIM kernel and the GPU-8 characterization (8 SMs → ``pim_sms``), and the
remainder for the GPU kernel under co-execution (72 SMs → ``gpu_sms_corun``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import TYPE_CHECKING, Dict, NamedTuple, Tuple

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
from repro.workloads import PIM_SUITE, get_gpu_kernel, get_pim_kernel, llm_kernels

if TYPE_CHECKING:  # the engine loads only when a cell is simulated (_build_system)
    from repro.sim.system import GPUSystem, KernelRun

#: Policy used for standalone baselines (the paper's characterization runs
#: use FR-FCFS; baselines must not depend on the policy under test).
BASELINE_POLICY = PolicySpec("FR-FCFS")

#: Kernel ids of the collaborative LLM scenario's two stages.
LLM_STAGES = ("llm-qkv", "llm-mha")


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

    def config(self, num_vcs: int = 1) -> SystemConfig:
        base = SystemConfig.scaled(
            num_channels=self.num_channels,
            num_sms=self.gpu_sms_full,
            noc_queue_size=self.noc_queue_size,
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


@dataclass
class PairOutcome:
    """One GPU/GPU co-run (Figure 5): ``gpu_id``'s speedup on the co-run
    SMs beside ``corunner``, relative to its full-machine standalone run."""

    gpu_id: str
    corunner: str
    speedup: float
    cycles: int


#: How each kind's outcome is rebuilt from its store document value.
_LOADERS = {
    "competitive": lambda value: CompetitiveOutcome(**value),
    "standalone": SimResult.from_payload,
    "collaborative": lambda value: CollaborativeOutcome(**value),
    "gpu_pair": lambda value: PairOutcome(**value),
}

#: The cell kinds (see the module docstring).
CELL_KINDS = tuple(_LOADERS)

#: The :class:`ExperimentScale` SM-allocation fields a standalone cell may name.
STANDALONE_SMS = ("gpu_sms_full", "gpu_sms_corun", "pim_sms")

#: The :class:`ExperimentScale` fields a cell's ``scale_params`` may name.
SCALE_FIELDS = frozenset(f.name for f in fields(ExperimentScale))


def outcome_value(outcome) -> Dict:
    """A cell outcome as its (JSON) store document value."""
    if isinstance(outcome, SimResult):
        from repro.sim.export import result_to_dict

        return result_to_dict(outcome)
    return asdict(outcome)


def load_outcome(kind: str, value: Dict):
    """The inverse of :func:`outcome_value` for a cell of ``kind``."""
    return _LOADERS[kind](value)


@dataclass(frozen=True)
class GridTask:
    """One cell, picklable.

    ``gpu_id`` runs on the GPU SMs and ``pim_id`` on the small (PIM) SM
    allocation: a PIM kernel in a competitive cell, the MHA stage in a
    collaborative one (:data:`LLM_STAGES`), the co-running GPU kernel in
    a ``gpu_pair``.  A standalone cell runs kernel ``gpu_id`` (any
    workload id) alone under the baseline policy, on the SMs that the
    :class:`ExperimentScale` field ``sms`` names (``gpu_sms_full``,
    ``gpu_sms_corun`` or ``pim_sms``).

    ``scale_params`` names a scale variant: sorted ``(ExperimentScale
    field, value)`` pairs the cell runs with in place of the sweep's
    (Figure 14b's queue sizes, the refresh table's refresh switch).
    """

    gpu_id: str
    pim_id: str = ""
    policy_name: str = BASELINE_POLICY.name
    policy_params: Tuple[Tuple[str, object], ...] = ()
    num_vcs: int = 1
    kind: str = "competitive"
    sms: str = ""
    scale_params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in CELL_KINDS:
            raise ValueError(f"unknown cell kind {self.kind!r}; known: {list(CELL_KINDS)}")
        if self.kind == "standalone" and self.sms not in STANDALONE_SMS:
            raise ValueError(
                f"standalone cell needs sms in {list(STANDALONE_SMS)}, not {self.sms!r}"
            )
        for name, _ in self.scale_params:
            if name not in SCALE_FIELDS:
                raise ValueError(f"unknown scale field {name!r} in scale_params")

    @property
    def policy(self) -> PolicySpec:
        return PolicySpec(self.policy_name, **dict(self.policy_params))

    @property
    def label(self) -> str:
        """Human-readable cell name (journal, failures, store meta).

        A policy with parameters names them in their stored order, e.g.
        ``G17|P2|F3FS(current_mode_first=False)|vc2``, and a scale variant
        appends its pairs, e.g. ``G17|P1|F3FS|vc2|noc_queue_size=32``, so
        cells that differ only in parameters have distinct labels.
        """
        variant = "".join(f"|{k}={v}" for k, v in self.scale_params)
        if self.kind == "standalone":
            return f"standalone:{self.gpu_id}|{self.sms}|vc{self.num_vcs}{variant}"
        policy = self.policy_name
        if self.policy_params:
            policy += "(" + ",".join(f"{k}={v}" for k, v in self.policy_params) + ")"
        label = f"{self.gpu_id}|{self.pim_id}|{policy}|vc{self.num_vcs}{variant}"
        return label if self.kind == "competitive" else f"{self.kind}:{label}"


def make_cell(
    kind: str,
    gpu_id: str,
    pim_id: str = "",
    policy: PolicySpec = BASELINE_POLICY,
    num_vcs: int = 1,
    sms: str = "",
) -> GridTask:
    """A :class:`GridTask` from a policy spec (parameters in canonical order)."""
    params = tuple(sorted(policy.params.items()))
    return GridTask(gpu_id, pim_id, policy.name, params, num_vcs, kind, sms)


def kernel_spec(kernel_id: str) -> KernelSpec:
    """The workload a cell names: an LLM stage, a PIM-suite id or a Rodinia id."""
    if kernel_id in LLM_STAGES:
        return llm_kernels()[LLM_STAGES.index(kernel_id)]
    if kernel_id in PIM_SUITE:
        return PIM_SUITE[kernel_id]
    return get_gpu_kernel(kernel_id)


def cell_scale(scale: ExperimentScale, task: GridTask) -> ExperimentScale:
    """The scale ``task`` runs at: ``scale`` with its ``scale_params``."""
    return replace(scale, **dict(task.scale_params)) if task.scale_params else scale


def cell_key(scale: ExperimentScale, task: GridTask) -> str:
    """Content address of one cell (see :mod:`repro.store`), computable
    without a Runner: the one key every dispatcher and the store use.  A
    scale variant is keyed as its plain cell at the variant's scale."""
    from repro.store import store_key

    scale = cell_scale(scale, task)
    if task.kind == "standalone":
        return store_key(
            "standalone",
            scale,
            task.num_vcs,
            label=task.gpu_id,
            sms=getattr(scale, task.sms),
            workloads={"workload": kernel_spec(task.gpu_id)},
        )
    return store_key(
        task.kind,
        scale,
        task.num_vcs,
        policy=task.policy,
        workloads={
            "gpu_workload": kernel_spec(task.gpu_id),
            "pim_workload": kernel_spec(task.pim_id),
        },
        gpu=task.gpu_id,
        pim=task.pim_id,
    )


class CoRun(NamedTuple):
    """One competitive cell's co-run system, built but not yet run."""

    system: GPUSystem
    gpu_run: KernelRun
    pim_run: KernelRun
    gpu_alone: int  # standalone durations the speedups are relative to
    pim_alone: int
    budget: int  # the cell's cycle budget


class Runner:
    """Executes and caches the paper's experiment types."""

    def __init__(
        self,
        scale: ExperimentScale = ExperimentScale(),
        perf_counters: bool = False,
        store=None,
    ):
        self.scale = scale
        #: Shared EngineCounters across every system this runner builds
        #: (engine wall-clock per stage, aggregated over all runs).
        self.perf = None
        if perf_counters:
            from repro.perf.counters import EngineCounters

            self.perf = EngineCounters()
        #: Optional content-addressed result store (repro.store): every
        #: cell outcome (baselines included) is looked up there before
        #: simulating and written through it after.
        self.store = store
        #: Warp programs recorded by any system this runner builds and
        #: replayed by all of them (see repro.gpu.warp_traces): a sweep
        #: or fabric worker shares traces across baselines and cells.
        self.traces = WarpTraceCache()
        #: cell -> (outcome, "hit" or "miss": how it was first found).
        self._memo: Dict[GridTask, Tuple[object, str]] = {}
        #: scale -> the child Runner that runs scale-variant cells there.
        self._variants: Dict[ExperimentScale, Runner] = {}

    # -- the cell executor -------------------------------------------------

    def run(self, task: GridTask) -> Tuple[object, str]:
        """Execute any cell: ``(outcome, how)``, where ``how`` says how it
        was satisfied — ``"memo"`` (this runner's memory), ``"hit"`` (the
        result store) or ``"miss"`` (simulated now).  A scale variant runs
        as its plain cell on :meth:`at_scale` of its scale."""
        if task.scale_params:
            return self.at_scale(cell_scale(self.scale, task)).run(replace(task, scale_params=()))
        entry = self._memo.get(task)
        if entry is not None:
            return entry[0], "memo"
        if task.kind == "competitive":
            # Through the public method, so its wrappers and overrides
            # see every competitive cell.
            self.competitive(task.gpu_id, task.pim_id, task.policy, num_vcs=task.num_vcs)
        else:
            self._cached(task)
        return self._memo[task]

    def at_scale(self, scale: ExperimentScale) -> Runner:
        """The Runner for ``scale``: this one if it is this runner's scale,
        else one child per scale sharing the store, traces and counters,
        so a variant's baselines simulate at the variant's scale."""
        if scale == self.scale:
            return self
        child = self._variants.get(scale)
        if child is None:
            child = Runner(scale, store=self.store)
            child.perf, child.traces = self.perf, self.traces
            self._variants[scale] = child
        return child

    def _cached(self, task: GridTask):
        """The cell's outcome from memory, else the store, else a fresh
        simulation (written through the store)."""
        entry = self._memo.get(task)
        if entry is None:
            key = cell_key(self.scale, task)
            value = self.store.get(key, kind=task.kind) if self.store is not None else None
            if value is not None:
                entry = (load_outcome(task.kind, value), "hit")
            else:
                outcome = getattr(self, f"_simulate_{task.kind}")(task)
                if self.store is not None:
                    self.store.put(
                        key, outcome_value(outcome), meta={"kind": task.kind, "label": task.label}
                    )
                entry = (outcome, "miss")
            self._memo[task] = entry
        return entry[0]

    def _build_system(self, config: SystemConfig, policy: PolicySpec) -> GPUSystem:
        from repro.engine_soa import create_system

        # A finished system holds no reference cycle, so dropping it frees
        # it at once; no collection pass is needed between builds.
        system = create_system(
            config,
            policy,
            seed=self.scale.seed,
            scale=self.scale.workload_scale,
            traces=self.traces,
        )
        if self.perf is not None:
            system.perf = self.perf
        return system

    # -- standalone runs ---------------------------------------------------

    def standalone(self, kernel_id: str, sms: str = "gpu_sms_full", num_vcs: int = 1) -> SimResult:
        """``kernel_id`` alone on the SM allocation field ``sms``."""
        return self._cached(make_cell("standalone", kernel_id, num_vcs=num_vcs, sms=sms))

    def standalone_duration(self, kernel_id: str, sms: str, num_vcs: int) -> int:
        """First-run cycles of :meth:`standalone`: the baseline a speedup divides."""
        return self.standalone(kernel_id, sms, num_vcs).kernels[0].first_duration

    def _simulate_standalone(self, task: GridTask) -> SimResult:
        system = self._build_system(self.scale.config(task.num_vcs), BASELINE_POLICY)
        system.add_kernel(kernel_spec(task.gpu_id), num_sms=getattr(self.scale, task.sms))
        result = system.run(max_cycles=self.scale.max_cycles)
        if not result.all_completed:
            raise RuntimeError(f"standalone run {task.gpu_id} did not complete in budget")
        return result

    # -- competitive co-execution ---------------------------------------------

    def competitive(
        self,
        gid: str,
        pid: str,
        policy: PolicySpec,
        num_vcs: int = 1,
    ) -> CompetitiveOutcome:
        """One GPU/PIM pair under a policy (Section III-B competitive)."""
        return self._cached(make_cell("competitive", gid, pid, policy, num_vcs))

    def _simulate_competitive(self, task: GridTask) -> CompetitiveOutcome:
        gid, pid, policy, num_vcs = task.gpu_id, task.pim_id, task.policy, task.num_vcs
        system, gpu_run, pim_run, gpu_alone, pim_alone, budget = self.competitive_system(
            gid, pid, policy, num_vcs
        )
        result = system.run(max_cycles=budget)

        gpu_first = result.kernels[gpu_run.kernel_id].first_duration
        pim_first = result.kernels[pim_run.kernel_id].first_duration
        mem_arrivals = result.kernels[gpu_run.kernel_id].mc_arrivals
        return CompetitiveOutcome(
            gpu_id=gid,
            pim_id=pid,
            policy=policy.label(),
            num_vcs=num_vcs,
            gpu_speedup=gpu_alone / (gpu_first if gpu_first else result.cycles),
            pim_speedup=pim_alone / (pim_first if pim_first else result.cycles),
            mode_switches=result.mode_switches,
            conflicts_per_switch=result.additional_conflicts_per_switch,
            drain_latency_per_switch=result.mem_drain_latency_per_switch,
            mem_arrival_rate=mem_arrivals / result.cycles if result.cycles else 0.0,
            cycles=result.cycles,
        )

    def competitive_system(
        self, gid: str, pid: str, policy: PolicySpec, num_vcs: int = 1
    ) -> CoRun:
        """Build the co-run system :meth:`competitive` runs for one cell.

        Both kernels loop; the budget is the starvation cutoff over the
        slower standalone baseline (simulated first if not yet known).
        ``repro trace`` runs the same system with telemetry attached.
        """
        s = self.scale
        gpu_alone = self.standalone_duration(gid, "gpu_sms_full", num_vcs)
        pim_alone = self.standalone_duration(pid, "pim_sms", num_vcs)
        system = self._build_system(s.config(num_vcs), policy)
        gpu_run = system.add_kernel(get_gpu_kernel(gid), num_sms=s.gpu_sms_corun, loop=True)
        pim_run = system.add_kernel(get_pim_kernel(pid), num_sms=s.pim_sms, loop=True)
        budget = min(s.max_cycles, s.starvation_factor * max(gpu_alone, pim_alone))
        return CoRun(system, gpu_run, pim_run, gpu_alone, pim_alone, budget)

    # -- GPU/GPU co-execution ----------------------------------------------------

    def _simulate_gpu_pair(self, task: GridTask) -> PairOutcome:
        s = self.scale
        big_alone = self.standalone_duration(task.gpu_id, "gpu_sms_full", task.num_vcs)
        system = self._build_system(s.config(task.num_vcs), task.policy)
        big_run = system.add_kernel(get_gpu_kernel(task.gpu_id), num_sms=s.gpu_sms_corun, loop=True)
        system.add_kernel(get_gpu_kernel(task.pim_id), num_sms=s.pim_sms, loop=True)
        budget = min(s.max_cycles, s.starvation_factor * big_alone)
        result = system.run(max_cycles=budget)
        first = result.kernels[big_run.kernel_id].first_duration
        return PairOutcome(
            gpu_id=task.gpu_id,
            corunner=task.pim_id,
            speedup=big_alone / (first if first else result.cycles),
            cycles=result.cycles,
        )

    # -- collaborative co-execution -------------------------------------------

    def collaborative(
        self,
        policy: PolicySpec,
        num_vcs: int = 1,
    ) -> CollaborativeOutcome:
        """The GPT-3-like QKV + MHA overlap (Section III-B collaborative)."""
        return self._cached(make_cell("collaborative", *LLM_STAGES, policy, num_vcs))

    def _simulate_collaborative(self, task: GridTask) -> CollaborativeOutcome:
        s = self.scale
        num_vcs = task.num_vcs
        qkv, mha = llm_kernels()
        gpu_alone = self.standalone_duration(task.gpu_id, "gpu_sms_full", num_vcs)
        pim_alone = self.standalone_duration(task.pim_id, "pim_sms", num_vcs)

        system = self._build_system(s.config(num_vcs), task.policy)
        system.add_kernel(qkv, num_sms=s.gpu_sms_corun)
        system.add_kernel(mha, num_sms=s.pim_sms)
        budget = min(s.max_cycles, s.starvation_factor * (gpu_alone + pim_alone))
        result = system.run(max_cycles=budget)
        concurrent = result.cycles if result.all_completed else budget
        return CollaborativeOutcome(
            policy=task.policy_name,
            num_vcs=num_vcs,
            speedup=collaborative_speedup(gpu_alone, pim_alone, concurrent),
            ideal_speedup=ideal_collaborative_speedup(gpu_alone, pim_alone),
            cycles=result.cycles,
            gpu_standalone=gpu_alone,
            pim_standalone=pim_alone,
        )
