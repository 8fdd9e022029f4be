"""End-to-end system model (Figure 1 / Figure 7).

``GPUSystem`` wires the full memory path::

    SMs -> per-SM output buffers -> iSlip crossbar
        -> interconnect->L2 queues (per channel)
        -> L2 slice (MEM) / bypass (PIM)
        -> L2->DRAM queues (per channel)
        -> memory controller (MEM-Q / PIM-Q + policy)
        -> DRAM banks / PIM executor

Every buffer is a :class:`~repro.noc.vc.VCBuffer`: with
``config.num_virtual_channels == 1`` the system is the paper's **VC1**
baseline (PIM bursts head-of-line-block MEM requests); with ``2`` it is the
**VC2** proposal (separate MEM/PIM queues at every hop, round-robin
service, half capacity each).

The engine is cycle-driven: ``run`` ticks ``step`` once per cycle,
processing stages downstream-first so a request moves at most one hop per
cycle.  Active-set scheduling (see ``docs/performance.md``) keeps the
per-cycle cost proportional to the amount of actual work instead of the
machine size: every inter-stage buffer notifies the engine when it turns
non-empty or empty (``VCBuffer.watch``), so each stage loop visits only the
channels/SMs that can make progress this cycle.  Controllers and SMs that
sleep on a future self-event park on a wake heap and leave the loops
entirely, and DRAM completions come due from a heap of
``(cycle, channel)`` entries instead of being polled.  A PIM op retires
as it issues: it has no completion event.

A finished system holds no reference cycle, so reference counting frees
it as soon as the last outside reference goes; no garbage-collector pass
is needed (``tests/test_system_lifetime.py``).
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.l1 import L1Cache
from repro.cache.l2 import L2Slice, LookupResult
from repro.config import SystemConfig
from repro.core.controller import NEVER, MemoryController
from repro.core.policies import PolicySpec
from repro.dram.channel import Channel
from repro.dram.storage import DataStore
from repro.gpu.kernel import KernelInstance, KernelSpec, LaunchContext
from repro.gpu.sm import SM
from repro.gpu.warp_traces import WarpTraceCache
from repro.noc.islip import ISlipArbiter
from repro.noc.mesh import MeshFabric
from repro.noc.vc import VCBuffer
from repro.obs import events as obs_events
from repro.pim.executor import PIMExecutor
from repro.request import Mode, Request
from repro.resilience.watchdog import Watchdog, stall_window
from repro.sim.results import KernelResult, SimResult

#: Words (32 B DRAM accesses) per modelled L2 entry.  The slice caches
#: individual DRAM words (see repro.cache.l2 docstring).
WORD_BYTES = 32


class KernelRun:
    """A kernel bound to a set of SMs, optionally re-launched in a loop."""

    def __init__(
        self,
        spec: KernelSpec,
        kernel_id: int,
        sm_indices: Sequence[int],
        loop: bool,
    ) -> None:
        self.spec = spec
        self.kernel_id = kernel_id
        self.sm_indices = list(sm_indices)
        self.loop = loop
        self.instance: Optional[KernelInstance] = None
        self.first_duration: Optional[int] = None
        self.completions = 0
        self.running = False


class GPUSystem:
    """The complete simulated GPU + PIM-enabled memory system."""

    #: The clock ticks every cycle, so nothing is ever skipped.  Kept only
    #: because benchmarks/suite/traced.py reads it.
    cycles_skipped = 0

    def __init__(
        self,
        config: SystemConfig,
        policy: PolicySpec,
        seed: int = 0,
        functional: bool = False,
        scale: float = 1.0,
        traces: Optional[WarpTraceCache] = None,
    ) -> None:
        self.config = config
        self.policy_spec = policy
        self.seed = seed
        self.scale = scale
        #: Recorded warp programs (see repro.gpu.warp_traces): relaunches
        #: replay instead of regenerating.  A Runner passes one cache to
        #: every system it builds; a system built alone gets its own.
        self.traces = traces if traces is not None else WarpTraceCache()
        self.mapper = config.mapper
        self.store = DataStore() if functional else None

        timings = config.timings
        vcs = config.num_virtual_channels
        self.channels: List[Channel] = []
        self.pim_execs: List[PIMExecutor] = []
        self.controllers: List[MemoryController] = []
        self.l2_slices: List[L2Slice] = []
        self.input_buffers: List[VCBuffer] = []  # interconnect -> L2
        self.dram_queues: List[VCBuffer] = []  # L2 -> DRAM (MC ingress)
        self.writebacks: List[deque] = []

        slice_words = max(
            config.l2_assoc, config.l2_size_bytes // WORD_BYTES // config.num_channels
        )
        for ch in range(config.num_channels):
            channel = Channel(ch, config.banks_per_channel, timings)
            pim_exec = PIMExecutor(
                channel,
                fus_per_channel=config.pim_fus_per_channel,
                rf_entries_per_bank=config.rf_entries_per_bank,
                store=self.store,
                functional=functional,
            )
            controller = MemoryController(
                channel,
                pim_exec,
                policy.create(),
                mem_queue_size=config.mem_queue_size,
                pim_queue_size=config.pim_queue_size,
                refresh_enabled=config.refresh_enabled,
            )
            self.channels.append(channel)
            self.pim_execs.append(pim_exec)
            self.controllers.append(controller)
            self.l2_slices.append(
                L2Slice(
                    slice_bytes=slice_words,
                    assoc=config.l2_assoc,
                    line_bytes=1,
                    mshr_capacity=config.l2_mshrs_per_slice,
                    channel_index=ch,
                    mapper=self.mapper,
                )
            )
            self.input_buffers.append(
                VCBuffer(config.noc_queue_size, vcs, name=f"noc->l2[{ch}]")
            )
            self.dram_queues.append(
                VCBuffer(config.noc_queue_size, vcs, name=f"l2->dram[{ch}]")
            )
            self.writebacks.append(deque())

        self.sm_buffers = [
            VCBuffer(config.sm_output_queue_size, vcs, name=f"sm[{i}]")
            for i in range(config.num_sms)
        ]
        self.sms = []
        for i in range(config.num_sms):
            l1 = None
            if config.l1_enabled:
                l1 = L1Cache(
                    capacity_words=max(config.l1_assoc, config.l1_size_bytes // WORD_BYTES),
                    assoc=config.l1_assoc,
                )
            self.sms.append(
                SM(
                    i,
                    self.sm_buffers[i],
                    max_outstanding=config.max_outstanding_per_sm,
                    l1=l1,
                    l1_latency=config.l1_latency,
                )
            )
        if config.noc_topology == "mesh":
            self.crossbar = None
            self.mesh = MeshFabric(
                num_sms=config.num_sms,
                num_channels=config.num_channels,
                num_vcs=vcs,
                router_buffer=config.mesh_router_buffer,
            )
        else:
            self.crossbar = ISlipArbiter(config.num_sms, config.num_channels)
            self.mesh = None

        self.cycle = 0
        self.runs: List[KernelRun] = []
        self._next_kernel_id = 0
        self._free_sms = deque(range(config.num_sms))
        self._reply_heap: List[Tuple[int, int, Request]] = []
        self._reply_seq = itertools.count()
        self.replies_sent = 0
        self._kernel_inflight: Dict[int, int] = {}
        # Per kernel, the cycle its last PIM op lands: PIM ops retire at
        # issue, so a kernel is done only once this cycle has come too.
        self._pim_done: Dict[int, int] = {}
        self._injected: Dict[int, int] = {}
        self._awaiting_first = 0  # runs without a first completion yet
        self.timeline = None  # optional metrics.timeline.TimelineSampler

        # -- active-set scheduling state (docs/performance.md) -------------
        # Stage loops visit members in ascending order (iteration order is
        # simulated behaviour — it fixes reply sequence numbers), so they
        # walk sorted() copies, which also lets them discard as they go.
        self._l2_active = set()  # channels: input_buffers non-empty
        self._ingress_active = set()  # channels: dram_queues non-empty
        self._wb_active = set()  # channels: pending writebacks
        self._xbar_active = set()  # SMs: sm_buffers non-empty
        self._mc_active = set(range(config.num_channels))
        self._sm_active = set()
        # Sleeping controllers (kind 0) / SMs (kind 1) with a self-scheduled
        # future event; entries are lazy-deleted (stale wakes are no-ops).
        self._wake_heap: List[Tuple[int, int, int]] = []
        # (cycle, channel) entries, one per issued MEM operation.
        # Operations completing on one channel in one cycle share a visit.
        self._completion_heap: List[Tuple[int, int]] = []
        # Telemetry on: (completion, id, request) per PIM op, folded on landing.
        self._pim_folds: List[Tuple[int, int, Request]] = []
        for ch in range(config.num_channels):
            self.input_buffers[ch].watch(self._l2_active, ch)
            self.dram_queues[ch].watch(self._ingress_active, ch)
        for i, buffer in enumerate(self.sm_buffers):
            buffer.watch(self._xbar_active, i)

        # -- observability (repro.perf / repro.obs) ------------------------
        self.perf = None  # optional repro.perf.counters.EngineCounters
        self.telemetry = None  # optional repro.obs.telemetry.Telemetry
        # The no-progress guard, always armed: one int compare per step.
        self.watchdog = Watchdog(stall_window(config))

    @property
    def steps_executed(self) -> int:
        """``step`` calls so far: one per cycle (read by
        benchmarks/suite/traced.py)."""
        return self.cycle

    def backlog(self) -> int:
        """Requests buffered between stages: SM outputs, interconnect->L2
        and L2->DRAM queues, plus pending writebacks."""
        return (
            sum(len(buffer) for buffer in self.sm_buffers)
            + sum(len(buffer) for buffer in self.input_buffers)
            + sum(len(queue) for queue in self.dram_queues)
            + sum(len(pending) for pending in self.writebacks)
        )

    # -- kernel management -------------------------------------------------

    def add_kernel(self, spec: KernelSpec, num_sms: int, loop: bool = False) -> KernelRun:
        """Assign a kernel to ``num_sms`` SM slots (launched at run start)."""
        if num_sms < 1:
            raise ValueError("a kernel needs at least one SM")
        if len(self._free_sms) < num_sms:
            raise ValueError(
                f"not enough free SMs: requested {num_sms}, available {len(self._free_sms)}"
            )
        indices = [self._free_sms.popleft() for _ in range(num_sms)]
        run = KernelRun(spec, self._next_kernel_id, indices, loop)
        self._next_kernel_id += 1
        self.runs.append(run)
        self._kernel_inflight[run.kernel_id] = 0
        self._pim_done[run.kernel_id] = 0
        self._injected[run.kernel_id] = 0
        self._awaiting_first += 1
        return run

    def _launch(self, run: KernelRun) -> None:
        ctx = LaunchContext(
            mapper=self.mapper,
            num_channels=self.config.num_channels,
            banks_per_channel=self.config.banks_per_channel,
            num_sms=len(run.sm_indices),
            warps_per_sm=self.config.warps_per_sm,
            rng=None,  # each warp draws from its own stream (KernelInstance.generate)
            scale=self.scale,
            rf_entries_per_bank=self.config.rf_entries_per_bank,
            kernel_id=run.kernel_id,
        )
        # Warp programs go through the system's trace cache.
        run.instance = KernelInstance(
            run.spec, ctx, run.kernel_id, seed=self.seed, traces=self.traces
        )
        for slot, sm_index in enumerate(run.sm_indices):
            self.sms[sm_index].attach(run.instance, slot, self.cycle)
        self._sm_active.update(run.sm_indices)
        run.running = True
        if self.telemetry is not None:
            self.telemetry.emit(
                self.cycle,
                obs_events.KERNEL_LAUNCH,
                kernel=run.kernel_id,
                name=run.spec.name,
                sms=list(run.sm_indices),
            )

    # -- per-cycle stages -----------------------------------------------------

    def _stage_completions(self) -> None:
        heap = self._completion_heap
        cycle = self.cycle
        folds = self._pim_folds
        while folds and folds[0][0] <= cycle:  # telemetry on: PIM ops landed
            self.telemetry.record_completion(heapq.heappop(folds)[2], cycle)
        if not heap or heap[0][0] > cycle:
            return
        # Every issue queues its own completion cycle, so only the channels
        # popped here can complete this cycle.  They are processed in
        # ascending order (reply sequence numbers follow visit order).
        due = {heapq.heappop(heap)[1]}
        while heap and heap[0][0] <= cycle:
            due.add(heapq.heappop(heap)[1])
        # A completion does not wake the channel's controller: its drain
        # check and refresh already sleep until the cycle the last
        # in-flight operation lands, and no policy reads in-flight work.
        for ch in sorted(due):
            for request in self.controllers[ch].pop_completed(cycle):
                self._handle_completion(ch, request, cycle)

    def _handle_completion(self, ch: int, request: Request, cycle: int) -> None:
        """A MEM operation landed: count a store done, install a fill."""
        if request.is_writeback:
            return
        if self.telemetry is not None:
            self.telemetry.record_completion(request, cycle)
        if not request.is_load:
            self._kernel_inflight[request.kernel_id] -= 1
            return
        if request.is_l2_fill:
            waiting, writeback = self.l2_slices[ch].install(request)
            if writeback is not None:
                self.writebacks[ch].append(writeback)
                self._wb_active.add(ch)
            for waiter in waiting:
                self._schedule_reply(waiter, cycle + self.config.reply_latency)
        else:  # pragma: no cover - every DRAM load is a fill in this model
            self._schedule_reply(request, cycle + self.config.reply_latency)

    def _schedule_reply(self, request: Request, when: int) -> None:
        self.replies_sent += 1
        heapq.heappush(self._reply_heap, (when, next(self._reply_seq), request))

    def _stage_replies(self) -> None:
        cycle = self.cycle
        heap = self._reply_heap
        if not heap or heap[0][0] > cycle:
            return
        sms = self.sms
        sm_active = self._sm_active
        inflight = self._kernel_inflight
        telemetry = self.telemetry
        while heap and heap[0][0] <= cycle:
            _, _, request = heapq.heappop(heap)
            if sms[request.source].receive_reply(request, cycle):
                sm_active.add(request.source)  # the reply re-armed a warp
            inflight[request.kernel_id] -= 1
            if telemetry is not None:
                telemetry.record_return(request, cycle)

    def _stage_controllers(self) -> None:
        active = self._mc_active
        if not active:
            return
        cycle = self.cycle
        controllers = self.controllers
        wake_heap = self._wake_heap
        completion_heap = self._completion_heap
        for ch in sorted(active):
            controller = controllers[ch]
            # The tick's own wake gate, inlined: a gated tick does nothing.
            if controller._dirty or cycle >= controller._next_wake:
                request = controller.tick(cycle)
                if request is not None:
                    if request.is_pim:  # retired at issue (see _pim_done)
                        kernel_id = request.kernel_id
                        self._kernel_inflight[kernel_id] -= 1
                        end = request.cycle_completed
                        if end > self._pim_done[kernel_id]:
                            self._pim_done[kernel_id] = end
                        if self.telemetry is not None:
                            heapq.heappush(self._pim_folds, (end, request.id, request))
                    else:
                        heapq.heappush(completion_heap, (request.cycle_completed, ch))
                if controller._dirty:
                    continue  # must re-evaluate next cycle
            wake = controller._next_wake
            if wake <= cycle + 2:
                # A gated tick costs less than a wake-heap push and pop.
                continue
            active.discard(ch)
            if wake < NEVER:
                heapq.heappush(wake_heap, (wake, 0, ch))

    def _stage_mc_ingress(self) -> None:
        """Move one request per channel from the L2->DRAM queue into the MC."""
        active = self._ingress_active
        if not active:
            return
        cycle = self.cycle
        for ch in sorted(active):
            queue = self.dram_queues[ch]
            controller = self.controllers[ch]
            for lane in queue.order:
                if lane._items and controller.enqueue(lane._items[0], cycle):
                    queue.pop(lane)
                    if controller._dirty:  # not while a switch drains
                        self._mc_active.add(ch)
                    break

    def _stage_l2(self) -> None:
        """Per channel, sink one request from the interconnect->L2 queue."""
        active = self._l2_active
        if not active:
            return
        cycle = self.cycle
        telemetry = self.telemetry
        for ch in sorted(active):
            buffer = self.input_buffers[ch]
            slice_ = self.l2_slices[ch]
            mem_lane, pim_lane = self.dram_queues[ch].lanes
            for lane in buffer.order:
                if not lane._items:
                    continue
                head = lane._items[0]
                if head.is_pim:
                    if len(pim_lane._items) < pim_lane.capacity:
                        buffer.pop(lane)
                        if telemetry is not None:
                            head.cycle_l2_arrival = cycle
                        pim_lane.try_push(head)
                        break
                    continue  # PIM VC blocked; try the other VC's head
                # MEM request: a miss/forward will need L2->DRAM space.
                if len(mem_lane._items) < mem_lane.capacity:
                    outcome = slice_.lookup(head)
                    if outcome == LookupResult.BLOCKED:
                        continue  # MSHRs full: leave at head, try other VC
                    buffer.pop(lane)
                    if telemetry is not None:
                        head.cycle_l2_arrival = cycle
                    if outcome == LookupResult.HIT:
                        if head.is_load:
                            self._schedule_reply(head, cycle + self.config.l2_latency)
                        else:
                            self._kernel_inflight[head.kernel_id] -= 1
                            if telemetry is not None:
                                telemetry.record_l2_filtered(head, cycle)
                    elif outcome == LookupResult.MISS_SECONDARY:
                        pass  # merged; replied when the fill returns
                    else:  # MISS_PRIMARY or STORE_FORWARD
                        mem_lane.try_push(head)
                    break

    def _stage_writebacks(self) -> None:
        active = self._wb_active
        if not active:
            return
        for ch in sorted(active):
            pending = self.writebacks[ch]
            queue = self.dram_queues[ch].queue(Mode.MEM)
            if not queue.full:
                queue.try_push(pending.popleft())
                if not pending:
                    active.discard(ch)

    def _stage_crossbar(self) -> None:
        if self.mesh is not None:
            # The fabric must also run with empty SM buffers while flits
            # are still in flight between routers.
            if self._xbar_active or self.mesh.occupancy:
                self.mesh.step(self.cycle, self.sm_buffers, self.input_buffers)
        elif self._xbar_active:
            self.crossbar.step(self.sm_buffers, self.input_buffers, self._xbar_active)

    def _stage_sms(self) -> None:
        active = self._sm_active
        if not active:
            return
        cycle = self.cycle
        sms = self.sms
        wake_heap = self._wake_heap
        for i in sorted(active):
            sm = sms[i]
            if sm.instance is None:
                active.discard(i)
                continue
            before = sm.requests_injected
            issued = sm.step(cycle)
            if issued:
                sm.requests_injected = before + issued
                kernel_id = sm.instance.kernel_id
                self._injected[kernel_id] += issued
                self._kernel_inflight[kernel_id] += issued
            wake = sm._next_wake
            if wake <= cycle + 1:
                continue
            active.discard(i)
            if wake < NEVER:
                heapq.heappush(wake_heap, (wake, 1, i))

    def _stage_kernel_completion(self) -> None:
        cycle = self.cycle
        for run in self.runs:
            if not run.running:
                continue
            if self._kernel_inflight[run.kernel_id] != 0:
                continue
            if cycle < self._pim_done[run.kernel_id]:
                continue
            if not all(self.sms[i].is_done(cycle) for i in run.sm_indices):
                continue
            run.instance.cycle_finished = cycle
            duration = run.instance.duration
            if run.first_duration is None:
                run.first_duration = duration
                self._awaiting_first -= 1
            run.completions += 1
            run.running = False
            if self.telemetry is not None:
                self.telemetry.emit(
                    cycle,
                    obs_events.KERNEL_DRAIN,
                    kernel=run.kernel_id,
                    name=run.spec.name,
                    duration=duration,
                    completions=run.completions,
                )
            if run.loop:
                self._launch(run)

    # -- main loop -----------------------------------------------------------

    def attach_timeline(self, interval: int = 100) -> "TimelineSampler":
        """Record system state every ``interval`` cycles (see
        :mod:`repro.metrics.timeline`)."""
        from repro.metrics.timeline import TimelineSampler

        self.timeline = TimelineSampler(interval=interval)
        return self.timeline

    def step(self) -> None:
        """Advance the whole system by one cycle."""
        cycle = self.cycle
        wakes = self._wake_heap
        while wakes and wakes[0][0] <= cycle:
            _, kind, index = heapq.heappop(wakes)
            (self._sm_active if kind else self._mc_active).add(index)
        if self.timeline is not None and self.timeline.due(cycle):
            self.timeline.sample(self, cycle)
        if self.perf is None:
            self._stage_completions()
            self._stage_replies()
            self._stage_controllers()
            self._stage_mc_ingress()
            self._stage_l2()
            self._stage_writebacks()
            self._stage_crossbar()
            self._stage_sms()
            self._stage_kernel_completion()
        else:
            clock = self.perf.clock
            add = self.perf.add
            for name, method in _STAGES:
                start = clock()
                getattr(self, method)()
                add(name, clock() - start)
        if cycle >= self.watchdog.next_check:
            self.watchdog.scan(self)
        self.cycle = cycle + 1

    def enable_perf_counters(self) -> "EngineCounters":
        """Attach per-stage wall-clock counters (see :mod:`repro.perf`)."""
        from repro.perf.counters import EngineCounters

        self.perf = EngineCounters()
        return self.perf

    def enable_telemetry(
        self,
        ring_capacity: int = 65536,
        timeline_interval: Optional[int] = 100,
    ) -> "Telemetry":
        """Attach request-path telemetry (see :mod:`repro.obs`).

        The unified observability entry point: creates the
        :class:`~repro.obs.telemetry.Telemetry` hub (latency histograms +
        event ring), shares it with every memory controller, attaches a
        :class:`~repro.metrics.timeline.TimelineSampler` (unless one is
        already attached, or ``timeline_interval`` is None) for the trace
        writer's queue-occupancy counter tracks.

        Telemetry observes but never schedules: an enabled run is
        bit-identical to a disabled one (``tests/test_telemetry.py``).
        Call before :meth:`run`; idempotent.
        """
        if self.telemetry is not None:
            return self.telemetry
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry(ring_capacity=ring_capacity)
        self.telemetry = telemetry
        if timeline_interval is not None and self.timeline is None:
            self.attach_timeline(interval=timeline_interval)
        telemetry.timeline = self.timeline
        for controller in self.controllers:
            controller.telemetry = telemetry
        for ch, buffer in enumerate(self.input_buffers):
            buffer.watch_rejects(self._make_reject_emitter(ch))
        return telemetry

    def _make_reject_emitter(self, ch: int):
        # A weak reference: the buffers belong to the system, so a strong
        # one would make every telemetry-enabled system a reference cycle.
        system = weakref.ref(self)

        def on_reject() -> None:
            owner = system()
            owner.telemetry.emit(owner.cycle, obs_events.NOC_REJECT, channel=ch)

        return on_reject

    def run(
        self,
        max_cycles: int = 2_000_000,
        until_all_complete_once: bool = True,
    ) -> SimResult:
        """Launch all kernels and simulate.

        With ``until_all_complete_once`` (the paper's methodology) the run
        stops once every kernel has completed at least one launch; looping
        kernels are re-launched until then.
        """
        if not self.runs:
            raise ValueError("no kernels added")
        for run in self.runs:
            self._launch(run)
        while self.cycle < max_cycles:
            self.step()
            if until_all_complete_once and not self._awaiting_first:
                break
        for controller in self.controllers:
            controller.finalize(self.cycle)
        return self._collect_results()

    # -- energy accounting ---------------------------------------------------

    def energy_report(self, params=None) -> "EnergyBreakdown":
        """Event-energy breakdown of the whole run so far (nJ).

        See :mod:`repro.dram.power` for the model and its constants.
        """
        from repro.dram.power import EnergyAccountant, EnergyParams

        accountant = EnergyAccountant(params or EnergyParams())
        activates = sum(
            c.stats.mem_misses + c.stats.mem_conflicts for c in self.channels
        )
        reads = sum(c.stats.mem_reads for c in self.channels)
        writes = sum(c.stats.mem_writes for c in self.channels)
        pim_ops = sum(e.stats.dram_ops for e in self.pim_execs)
        pim_row_switches = sum(e.stats.row_switches for e in self.pim_execs)
        refreshes = sum(c.refresh.stats.refreshes_issued for c in self.controllers)
        if self.mesh is not None:
            # Multi-hop network: every hop pays link/router energy.
            noc_transfers = self.mesh.hops + self.mesh.transfers + self.replies_sent
        else:
            noc_transfers = self.crossbar.transfers + self.replies_sent
        return accountant.account(
            cycles=self.cycle,
            num_channels=self.config.num_channels,
            activates=activates,
            reads=reads,
            writes=writes,
            pim_ops=pim_ops,
            pim_banks=self.config.banks_per_channel,
            pim_row_switches=pim_row_switches,
            refreshes=refreshes,
            noc_transfers=noc_transfers,
        )

    # -- result collection -----------------------------------------------

    def _collect_results(self) -> SimResult:
        result = SimResult(cycles=self.cycle)
        for run in self.runs:
            kid = run.kernel_id
            kernel_result = KernelResult(
                kernel_id=kid,
                name=run.spec.name,
                is_pim=run.spec.is_pim,
                first_duration=run.first_duration,
                completions=run.completions,
                requests_injected=self._injected[kid],
            )
            for controller in self.controllers:
                kernel_result.mc_arrivals += controller.stats.kernel_mem_arrivals.get(kid, 0)
                kernel_result.mc_arrivals += controller.stats.kernel_pim_arrivals.get(kid, 0)
            for channel in self.channels:
                outcomes = channel.stats.kernel_outcomes.get(kid)
                if outcomes:
                    kernel_result.dram_row_hits += outcomes[0]
                    kernel_result.dram_row_misses += outcomes[1]
                    kernel_result.dram_row_conflicts += outcomes[2]
            for slice_ in self.l2_slices:
                kernel_result.l2_accesses += slice_.stats.kernel_accesses.get(kid, 0)
                kernel_result.l2_hits += slice_.stats.kernel_hits.get(kid, 0)
            if run.spec.is_pim:
                # Channel stats only track MEM row outcomes; PIM locality
                # comes from the executors.  With several concurrent PIM
                # kernels this attributes the aggregate to each, which is
                # exact for the single-PIM-kernel scenarios we model.
                ops = sum(e.stats.ops_executed for e in self.pim_execs)
                switches = sum(e.stats.row_switches for e in self.pim_execs)
                kernel_result.dram_row_hits = ops - switches
                kernel_result.dram_row_conflicts = switches
            result.kernels[kid] = kernel_result

        blps = [
            channel.bank_level_parallelism(executor.busy_intervals)
            for channel, executor in zip(self.channels, self.pim_execs)
        ]
        active = [c for c in blps if c > 0]
        result.bank_level_parallelism = sum(active) / len(active) if active else 0.0
        hits = sum(c.stats.mem_hits for c in self.channels)
        total = sum(c.stats.mem_accesses for c in self.channels)
        result.row_buffer_hit_rate = hits / total if total else 0.0

        drain_latencies: List[int] = []
        total_switches = 0
        switches_to_pim = 0
        extra_conflicts = 0
        mode_cycles = {Mode.MEM: 0, Mode.PIM: 0}
        for controller in self.controllers:
            stats = controller.stats
            total_switches += stats.switches
            switches_to_pim += stats.switches_to_pim
            extra_conflicts += stats.additional_conflicts
            drain_latencies.extend(stats.mem_drain_latencies)
            for mode, cycles in stats.mode_cycles.items():
                mode_cycles[mode] += cycles
        result.mode_switches = total_switches
        result.switches_to_pim = switches_to_pim
        result.additional_conflicts_per_switch = (
            extra_conflicts / switches_to_pim if switches_to_pim else 0.0
        )
        result.mem_drain_latency_per_switch = (
            sum(drain_latencies) / len(drain_latencies) if drain_latencies else 0.0
        )
        result.mode_cycles = mode_cycles
        result.noc_rejects = sum(b.total_rejects for b in self.input_buffers)
        if self.telemetry is not None:
            result.telemetry = self.telemetry.summary()
        return result


#: The per-cycle stages in order, as (counter name, method name) pairs, for
#: the timed path of ``GPUSystem.step``.  Method names rather than bound
#: methods: a table of bound methods kept on the system would be a
#: reference cycle, and a name still resolves to a subclass's override.
_STAGES = tuple(
    (name, f"_stage_{name}")
    for name in (
        "completions",
        "replies",
        "controllers",
        "mc_ingress",
        "l2",
        "writebacks",
        "crossbar",
        "sms",
        "kernel_completion",
    )
)
