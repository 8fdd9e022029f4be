"""Struct-of-arrays engine: ``SoAGPUSystem``.

A drop-in subclass of :class:`repro.sim.system.GPUSystem` that keeps the
hot per-cycle state in :class:`~repro.engine_soa.arrays.BankArrays` and
replaces the three hottest stage loops with fused implementations:

* **controllers** — FR-FCFS decide + issue collapsed into one pass over
  the bank arrays: the conflict-bit update, the all-stalled check, and
  the hit/oldest pick are masked reductions; the winning request's DRAM
  command schedule (the ``Bank.schedule`` math) is inlined on the array
  cells.
* **sms** — due-event processing with batched readiness classification,
  a full-output-queue fast path that skips the issue scan entirely
  (with no L1 and a single VC, nothing can issue into a full queue),
  and an inlined issue loop with direct queue access.
* **crossbar / l2 / mc_ingress / completions** — the single-VC cases of
  the object stages with the per-request indirection (``heads()`` lists,
  ``can_push``/``pop_matching`` dispatch) flattened out.

Exactness is the design invariant, not an aspiration: every fused path
replicates the object engine's statement order (queue removal before
rail updates, wake/dirty bookkeeping, stats and telemetry gating), and
every configuration a fused path does not cover — telemetry attached,
two virtual channels, mesh topology, refresh enabled, a policy other
than plain FR-FCFS — falls back to the inherited object implementation
mid-flight.  The object and SoA backends therefore produce byte-identical
``SimResult``/store fingerprints (``tests/test_engine_soa.py``).

Looping kernels additionally recycle the request objects of replayed
warp programs across relaunches (:mod:`repro.engine_soa.replay`).
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left
from collections import deque

import numpy as np

from repro.cache.l2 import LookupResult
from repro.config import SystemConfig
from repro.core.controller import NEVER, MemoryController
from repro.dram.bank import AccessKind
from repro.core.policies import PolicySpec
from repro.core.policies.frfcfs import FRFCFS
from repro.engine_soa.arrays import HIT_BIAS, NOSEQ, ArrayBankState, BankArrays, SoAMemQueue
from repro.engine_soa.handles import RequestArrays
from repro.engine_soa.kernels import load_kernels
from repro.engine_soa.ring import HandleRing
from repro.sim.activeset import DenseIndexSet
from repro.engine_soa.primitives import warp_ready_batch
from repro.engine_soa.replay import ReplayKernelInstance, RequestRecycler
from repro.gpu.kernel import KernelInstance, LaunchContext
from repro.gpu.sm import SM
from repro.request import Mode, Request, RequestType
from repro.sim.system import GPUSystem, KernelRun

#: Minimum popped due entries for the vectorized readiness classification;
#: below this the numpy gather costs more than the scalar checks.
_WARP_BATCH_MIN = 8

# AccessKind singletons hoisted out of the issue path.
_HIT = AccessKind.HIT
_MISS = AccessKind.MISS
_CONFLICT = AccessKind.CONFLICT


class _WakeFilteredController(MemoryController):
    """FR-FCFS controller whose ``enqueue`` drops provably-inert wakes.

    The dirty flag exists so an arrival can change the next decide.  For
    plain FR-FCFS (no refresh) most arrivals provably cannot:

    * while switching, the post-drain tick re-reads the queues anyway
      (and the drain-complete cycle only depends on in-flight work);
    * a PIM arrival behind an existing PIM head leaves both the FCFS head
      and the oldest-is-PIM comparison unchanged;
    * a MEM arrival in PIM mode with a live PIM head carries a larger
      ``mc_seq`` than that head, so the older-MEM switch check stays
      false until the head itself changes (our own issue);
    * the first PIM arrival in MEM mode has the largest ``mc_seq`` of
      any queued request, so oldest-is-other stays false while the MEM
      queue is non-empty (and MEM drain re-evaluates the fallback).

    In each retracted case the controller is already parked at (or
    active before) the next cycle its decide could change, so skipping
    the wake leaves the issue stream bit-identical.  Telemetry runs keep
    every wake — mc-blocked attribution snapshots depend on arrival-time
    state.
    """

    #: Under the all-fused array scheduler: ``(wake_array, channel, system)``.
    #: Enqueues that survive the retraction filter signal the array directly,
    #: replacing the active-set/wake-heap plumbing of the object stage.
    _soa_sched = None

    #: End of the current batched PIM drain window (``_fused_pim``): the
    #: batch pops the whole queue snapshot up front, but sequentially each
    #: op would stay queued until its issue tick — so while ``cycle`` is
    #: inside the window the queue is *logically* non-empty and the
    #: emptiness tests below must treat it that way.
    _pim_chain_until = 0

    #: Issue ticks of batch ops popped ahead of their logical pop cycle
    #: (ascending).  ``len`` after pruning entries ``<= cycle`` is the
    #: virtual pim_queue occupancy the ingress backpressure check adds to
    #: the physical length.  Set to a deque per fused controller.
    _chain_ticks = None

    def enqueue(self, request: Request, cycle: int) -> bool:
        dirty_before = self._dirty
        if not MemoryController.enqueue(self, request, cycle):
            return False
        if self.telemetry is not None:
            return True
        if self._switch_target is not None:
            self._dirty = dirty_before
        elif request.is_pim:
            if (
                len(self.pim_queue) > 1
                or (self.mode is Mode.MEM and self.mem_queue)
                or (self.mode is Mode.PIM and cycle < self._pim_chain_until)
            ):
                self._dirty = dirty_before
        elif self.mode is Mode.PIM and (
            self.pim_queue or cycle < self._pim_chain_until
        ):
            self._dirty = dirty_before
        if self._dirty and self._soa_sched is not None:
            wake, ch, system = self._soa_sched
            wake[ch] = 0
            system._ctl_min = 0
        return True


class _WakeFilteredSM(SM):
    """SM (no L1) whose ``receive_reply`` drops provably-inert wakes.

    A reply always decrements ``outstanding_loads``; that only matters if
    an issuable warp exists (the outstanding limit may now pass).  The
    other way a reply changes the next step is by re-arming its warp's
    phase advance, which pushes a due entry at ``max(compute_until,
    cycle)``: a push at ``cycle`` must be processed this very step, and a
    future push below the parked wake needs the earlier wake the dirty
    flag provides.  Every other reply leaves the next step a no-op, so
    the wake (and the step's full warp rescan) is skipped.
    """

    def receive_reply(self, request: Request, cycle: int) -> None:
        dirty_before = self._dirty
        SM.receive_reply(self, request, cycle)
        if self._issuable:
            return
        warp = self.warps[request.warp]
        if (
            not warp.done
            and not warp.pending
            and not (warp.wait_for_replies and warp.waiting_replies > 0)
        ):
            # The base method pushed a due entry at max(compute_until, cycle).
            until = warp.compute_until
            if until <= cycle or until < self._next_wake:
                return
        self._dirty = dirty_before


class SoAGPUSystem(GPUSystem):
    """GPUSystem with struct-of-arrays hot loops (see module docstring)."""

    def __init__(self, config: SystemConfig, policy: PolicySpec, **kwargs) -> None:
        super().__init__(config, policy, **kwargs)
        num_banks = config.banks_per_channel
        self._ba = BankArrays(config.num_channels, num_banks)
        self._timings = config.timings
        self._vc1 = config.num_virtual_channels == 1
        self._recycler = RequestRecycler()
        # Per-controller fused-path eligibility: plain FR-FCFS (subclasses
        # like FRFCFSCap override decide) and no refresh machinery.  The
        # telemetry gate is checked per call — it can be enabled later.
        self._fused_ctl = []
        for ch, controller in enumerate(self.controllers):
            queue = SoAMemQueue(num_banks, self._ba, ch)
            controller.mem_queue = queue
            for b, bank in enumerate(controller.channel.banks):
                bank.state = ArrayBankState(self._ba, ch, b, queue)
            fused = type(controller.policy) is FRFCFS and not controller.refresh.enabled
            self._fused_ctl.append(fused)
            # Empty for non-fused controllers (they never batch), so the
            # ingress occupancy check can read it unconditionally.
            controller._chain_ticks = deque()
            if fused:
                # Same object, stricter enqueue: drop wakes that cannot
                # change a decide (see _WakeFilteredController).
                controller.__class__ = _WakeFilteredController
        for sm in self.sms:
            if sm.l1 is None:
                # Same object, stricter receive_reply (no local L1 replies
                # to interact with): see _WakeFilteredSM.
                sm.__class__ = _WakeFilteredSM
        # Flag-array active sets (see DenseIndexSet): the fused stages
        # inline membership as direct ``_flags`` subscripts; the object
        # fallback paths keep using the OrderedIndexSet-compatible API.
        # The buffer watch hooks captured the original sets — re-watch.
        num_channels = config.num_channels
        num_sms = config.num_sms
        self._l2_active = DenseIndexSet(num_channels, self._l2_active)
        self._ingress_active = DenseIndexSet(num_channels, self._ingress_active)
        self._wb_active = DenseIndexSet(num_channels, self._wb_active)
        self._busy_channels = DenseIndexSet(num_channels, self._busy_channels)
        self._mc_active = DenseIndexSet(num_channels, self._mc_active)
        self._xbar_active = DenseIndexSet(num_sms, self._xbar_active)
        self._sm_active = DenseIndexSet(num_sms, self._sm_active)
        for ch in range(num_channels):
            self._watch_buffer(self.input_buffers[ch], self._l2_active, ch)
            self._watch_buffer(self.dram_queues[ch], self._ingress_active, ch)
        for i, buffer in enumerate(self.sm_buffers):
            self._watch_buffer(buffer, self._xbar_active, i)
        # Crossbar proposal registers (see _stage_crossbar): first/best
        # proposer per output and its head, reset after every grant pass.
        self._xp_in = [-1] * num_channels
        self._xp_head = [None] * num_channels
        # SMs parked on a full output buffer (see _fused_sm_step): the
        # crossbar grant loop wakes them the cycle a pop frees a slot —
        # the first cycle the object engine's retry scan could issue.
        # Only the fused crossbar fires that wake, so a mesh topology
        # keeps the object retry-every-cycle rule.
        self._sm_stalled = [False] * num_sms
        self._stall_park = self.mesh is None
        # Flag-scan universe sizes (the index at which a DenseIndexSet
        # scan hits the sentinel and stops).
        self._nch = num_channels
        self._nsm = num_sms
        # Stable object caches for the fused (single-VC) stage loops:
        # queue 0 of each VCBuffer, and the per-channel controller parts.
        self._sm_q0 = [b._queues[0] for b in self.sm_buffers]
        self._in_q0 = [b._queues[0] for b in self.input_buffers]
        self._dram_q0 = [b._queues[0] for b in self.dram_queues]
        self._ctl_refs = [(c, c.channel, c.pim_exec) for c in self.controllers]
        # Handle pipeline (engine_soa.ring / engine_soa.handles): with a
        # single VC, no mesh, and no L1 on any SM, every hop stage runs a
        # fused body, so the NoC hop queues can carry integer handles
        # into a pooled RequestArrays instead of Request objects — the
        # stages read routing fields from the pool's columns and
        # materialize the object only at the pipeline boundaries (L2
        # lookup, MC ingress, replies).  Telemetry (attachable mid-run)
        # migrates ring contents back into the BoundedQueues and routes
        # the stages to their object bodies (see enable_telemetry).
        self._pool = None
        self._rings_on = (
            self._vc1
            and self.mesh is None
            and all(sm.l1 is None for sm in self.sms)
        )
        if self._rings_on:
            self._pool = RequestArrays()
            self._recycler.pool = self._pool
            self._sm_rings = [HandleRing(q.capacity, q.name) for q in self._sm_q0]
            self._in_rings = [HandleRing(q.capacity, q.name) for q in self._in_q0]
            self._dram_rings = [HandleRing(q.capacity, q.name) for q in self._dram_q0]
        # Compiled decide kernel (engine_soa.kernels): auto-detected with
        # a pure-Python fallback (self._k_decide stays None).  The
        # per-channel pointer tables index straight into the persistent
        # BankArrays buffers, so a call passes five scalars and two
        # preallocated addresses — no per-cycle marshalling.
        self._kernels = load_kernels()
        self._k_decide = None
        if self._kernels is not None:
            a = self._ba
            self._nbk = num_banks
            tables = []
            for ch in range(num_channels):
                off8 = ch * num_banks * 8
                off1 = ch * num_banks
                tables.append(
                    array(
                        "q",
                        (
                            a.score.ctypes.data + off8,
                            a.accept_at.ctypes.data + off8,
                            a.bank_live.ctypes.data + off8,
                            a.open_row.ctypes.data + off8,
                            a.hit_seq.ctypes.data + off8,
                            a.conflict.ctypes.data + off1,
                            a.issued.ctypes.data + off1,
                        ),
                    )
                )
            self._k_tables = tables  # keep the arrays alive
            self._k_addr = [t.buffer_info()[0] for t in tables]
            self._k_out = array("q", (0, 0, 0, 0))
            self._k_out_addr = self._k_out.buffer_info()[0]
            self._k_decide = self._kernels.frfcfs_decide
        # All-fused array scheduler: when every controller is fused (and
        # telemetry is off), the controllers stage replaces the active-set
        # + wake-heap plumbing with one wake-cycle array — ``wake[ch] <=
        # cycle`` means "examine this cycle"; 0 means "dirty".  ``_ctl_min``
        # caches ``wake.min()`` so idle cycles cost one compare, and feeds
        # the quiescence/fast-forward contract (see ``_quiescent``).
        self._all_fused = all(self._fused_ctl)
        # Plain lists, not numpy: at 8-16 channels scalar compares beat
        # array-op dispatch overhead.
        self._ctl_wake = [0] * config.num_channels
        self._ctl_min = 0
        # NEVER until a fused issue lowers them: an idle channel must not
        # pin the stage-gating min at a stale-low value.
        self._comp_next = [NEVER] * config.num_channels
        # Lower bound on min(_comp_next): one compare gates the whole
        # completions stage on no-completion cycles (all-fused only).
        self._comp_min = NEVER
        if self._all_fused:
            for ch, controller in enumerate(self.controllers):
                controller._soa_sched = (self._ctl_wake, ch, self)

    # -- kernel launch ----------------------------------------------------

    def _create_instance(self, run: KernelRun, ctx: LaunchContext) -> KernelInstance:
        # Recycling only pays off on relaunches (and pins a pool handle
        # per request), so gate on looping runs.
        if run.loop:
            return ReplayKernelInstance(
                run.spec, ctx, run.kernel_id, self.seed, self.traces, self._recycler
            )
        return super()._create_instance(run, ctx)

    # -- completions -------------------------------------------------------

    def _stage_completions(self) -> None:
        cycle = self.cycle
        # ``_comp_next`` caches each busy channel's earliest completion so
        # the common no-completion cycle is one int compare instead of two
        # heap-head peeks; ``_comp_min`` is a lower bound on the whole
        # array, so most cycles return after a single compare.  Only valid
        # while every issue goes through the fused paths (which maintain
        # both); the object issue paths do not, so mixed-policy and
        # telemetry runs fall back to peeking.
        fast = self._all_fused and self.telemetry is None
        if fast and self._comp_min > cycle:
            return
        busy_flags = self._busy_channels._flags
        nch = self._nch
        find = busy_flags.index
        ch = find(True)
        if ch >= nch:
            if fast:
                self._comp_min = NEVER
            return
        refs = self._ctl_refs
        comp = self._comp_next
        while ch < nch:
            if fast and comp[ch] > cycle:
                ch = find(True, ch + 1)
                continue
            controller, channel, pim_exec = refs[ch]
            mem_flight = channel._in_flight
            pim_flight = pim_exec._in_flight
            if (not mem_flight or mem_flight[0][0] > cycle) and (
                not pim_flight or pim_flight[0][0] > cycle
            ):
                if not mem_flight and not pim_flight:
                    busy_flags[ch] = False
                    comp[ch] = NEVER
                else:
                    nxt = mem_flight[0][0] if mem_flight else NEVER
                    if pim_flight and pim_flight[0][0] < nxt:
                        nxt = pim_flight[0][0]
                    comp[ch] = nxt
                ch = find(True, ch + 1)
                continue
            if fast:
                # Inlined controller.pop_completed: pop the MEM heap and the
                # PIM flight deque directly (same order: MEM first, then
                # PIM, both FCFS-by-completion).  Unlike the object stage,
                # no controller wake: a completion changes neither queue
                # heads, bank rails, the PIM busy window, nor a parked
                # drain deadline, so no decide can.  PIM ops and stores
                # retire right here (the ``_handle_completion`` body minus
                # the load/fill branch); loads carry an L2 fill and keep
                # the full call.
                inflight = self._kernel_inflight
                heappop = heapq.heappop
                while mem_flight and mem_flight[0][0] <= cycle:
                    completion, _, request = heappop(mem_flight)
                    request.cycle_completed = completion
                    if request.is_load:
                        self._handle_completion(ch, request, cycle)
                    elif not request.is_writeback:
                        inflight[request.kernel_id] -= 1
                        slot = request._slot
                        if slot is not None:
                            slot[0] -= 1
                if pim_flight and pim_flight[0][0] <= cycle:
                    pending = pim_exec._pending
                    popleft = pim_flight.popleft
                    apply_issue = pim_exec._apply_issue
                    while pim_flight and pim_flight[0][0] <= cycle:
                        end, request = popleft()
                        request.cycle_completed = end
                        # Batch ops pair 1:1 with pending entries (both
                        # FCFS); after a horizon flush the surplus flight
                        # entries carry none.
                        if len(pending) > len(pim_flight):
                            apply_issue(pending.popleft())
                        inflight[request.kernel_id] -= 1
                        slot = request._slot
                        if slot is not None:
                            slot[0] -= 1
            else:
                done = controller.pop_completed(cycle)
                if done:
                    if self.telemetry is None:
                        inflight = self._kernel_inflight
                        for request in done:
                            if request.is_load:
                                self._handle_completion(ch, request, cycle)
                            elif not request.is_writeback:
                                inflight[request.kernel_id] -= 1
                                slot = request._slot
                                if slot is not None:
                                    slot[0] -= 1
                    else:
                        for request in done:
                            self._handle_completion(ch, request, cycle)
            # pop_completed rebuilds the PIM in-flight list: re-read both.
            mem_flight = channel._in_flight
            pim_flight = pim_exec._in_flight
            if not mem_flight and not pim_flight:
                busy_flags[ch] = False
                comp[ch] = NEVER
            else:
                nxt = mem_flight[0][0] if mem_flight else NEVER
                if pim_flight and pim_flight[0][0] < nxt:
                    nxt = pim_flight[0][0]
                comp[ch] = nxt
            ch = find(True, ch + 1)
        if fast:
            self._comp_min = min(comp)

    # -- replies -----------------------------------------------------------

    def _stage_replies(self) -> None:
        cycle = self.cycle
        heap = self._reply_heap
        if not heap or heap[0][0] > cycle:
            return
        sm_flags = self._sm_active._flags
        sms = self.sms
        telemetry = self.telemetry
        inflight = self._kernel_inflight
        while heap and heap[0][0] <= cycle:
            _, _, request = heapq.heappop(heap)
            sm = sms[request.source]
            sm.receive_reply(request, cycle)
            if sm._dirty:
                # A retracted (inert) wake leaves the SM parked on the wake
                # heap or already in the active set.
                sm_flags[request.source] = True
            # Inlined _finish_request.
            inflight[request.kernel_id] -= 1
            slot = request._slot
            if slot is not None:
                slot[0] -= 1
            if telemetry is not None:
                telemetry.record_return(request, cycle)

    # -- controllers -------------------------------------------------------

    def _stage_controllers(self) -> None:
        if self.telemetry is not None:
            # The object tick stamps mc_blocked telemetry per issue; the
            # fused path does not, so telemetry runs drop to the reference.
            super()._stage_controllers()
            return
        if self._all_fused:
            # Array scheduler: one compare on idle cycles, one masked scan
            # otherwise — no snapshot lists, no per-channel heap churn.
            wake = self._ctl_wake
            mc_flags = self._mc_active._flags
            nch = self._nch
            ch = mc_flags.index(True)
            if ch < nch:
                # Entries parked or woken under the object discipline
                # (step()'s wake-heap drain, the VC2 ingress): fold them
                # into the array and re-examine.
                while ch < nch:
                    wake[ch] = 0
                    mc_flags[ch] = False
                    ch = mc_flags.index(True, ch + 1)
                self._ctl_min = 0
            cycle = self.cycle
            if cycle < self._ctl_min:
                return
            controllers = self.controllers
            busy_flags = self._busy_channels._flags
            for ch, due in enumerate(wake):
                if due > cycle:
                    continue
                controller = controllers[ch]
                controller._dirty = False
                if self._fused_tick(controller, ch, cycle) is not None:
                    busy_flags[ch] = True
                wake[ch] = 0 if controller._dirty else controller._next_wake
            self._ctl_min = min(wake)
            return
        active = self._mc_active
        if not active:
            return
        cycle = self.cycle
        controllers = self.controllers
        wake_heap = self._wake_heap
        fused = self._fused_ctl
        for ch in active.snapshot():
            controller = controllers[ch]
            if not fused[ch]:
                if controller.tick(cycle) is not None:
                    self._busy_channels.add(ch)
                if controller._dirty:
                    continue
                wake = controller.next_wake_cycle(cycle)
                if wake <= cycle + 1:
                    continue
                active.discard(ch)
                if wake < NEVER:
                    heapq.heappush(wake_heap, (wake, 0, ch))
                continue
            # Fused FR-FCFS controller (refresh disabled): tick gate,
            # decide, and the next_wake_cycle parking test inlined.
            if controller._dirty or cycle >= controller._next_wake:
                controller._dirty = False
                if self._fused_tick(controller, ch, cycle) is not None:
                    self._busy_channels.add(ch)
            if controller._dirty:
                continue
            wake = controller._next_wake
            if wake <= cycle + 1:
                if (
                    controller._switch_target is not None
                    or controller.mem_queue._live
                    or controller.pim_queue
                ):
                    continue
                active.discard(ch)  # pure idle, no refresh: external wake only
                continue
            active.discard(ch)
            if wake < NEVER:
                heapq.heappush(wake_heap, (wake, 0, ch))

    def _fused_tick(self, c: MemoryController, ch: int, cycle: int):
        """``MemoryController.tick`` body for a refresh-free FR-FCFS
        controller (the dirty/wake gate ran in the stage loop).

        No refresh hook: fused controllers have refresh disabled, so
        ``_refresh_until`` stays 0 and the object tick would skip it too.
        """
        if c._switch_target is not None:
            if c._drain_done(cycle):
                c._finish_switch(cycle)
            else:
                c._next_wake = max(cycle + 1, c._drain_complete_cycle())
                return None
        if c.mode is Mode.MEM:
            return self._fused_mem(c, ch, cycle)
        return self._fused_pim(c, ch, cycle)

    def _fused_mem(self, c: MemoryController, ch: int, cycle: int):
        """FR-FCFS MEM-mode decide + issue over the bank arrays."""
        a = self._ba
        mem_queue = c.mem_queue
        if not mem_queue._live:
            if c.pim_queue:
                return self._fused_switch(c, Mode.PIM, cycle)
            # Both queues empty and no refresh: nothing internal can wake
            # this controller — park at NEVER; an enqueue (dirty) re-arms.
            c._next_wake = NEVER
            return None
        pim_queue = c.pim_queue
        decide = self._k_decide
        if decide is not None:
            # Compiled path: the decide body (conflict marking, masked
            # argmin, park-wake reduction) runs in _kernels.c over the
            # same array rows; outcomes map 1:1 onto the numpy branches.
            out = self._k_out
            decide(
                self._k_addr[ch],
                self._nbk,
                cycle,
                1 if pim_queue and pim_queue[0].mc_seq < mem_queue.head().mc_seq else 0,
                1 if a.has_conflict[ch] else 0,
                1 if a.has_issued[ch] else 0,
                self._k_out_addr,
            )
            a.has_conflict[ch] = out[0] != 0
            a.has_issued[ch] = out[1] != 0
            code = out[2]
            if code == 0:  # park at the earliest candidate accept
                c._next_wake = out[3]
                return None
            if code == 3:  # every working bank stalled behind older PIM
                return self._fused_switch(c, Mode.PIM, cycle)
            bank = out[3]
            if code == 1:  # row hit
                request = mem_queue.row_head(bank, int(a.open_row[ch, bank]))
            else:
                request = mem_queue.bank_head(bank)
            return self._fused_issue_mem(c, ch, bank, request, cycle)
        stalled = None
        if pim_queue and pim_queue[0].mc_seq < mem_queue.head().mc_seq:
            # Oldest overall is PIM: mark newly-stalled banks (pending work,
            # issued since the switch, open row with no pending hit) and
            # switch once every bank with work has stalled.
            live = a.bank_live[ch]
            conflict = a.conflict[ch]
            newly = (
                (live > 0)
                & a.issued[ch]
                & ~conflict
                & (a.open_row[ch] >= 0)
                & (a.hit_seq[ch] == NOSEQ)
            )
            if newly.any():
                conflict |= newly
                a.has_conflict[ch] = True
            if a.has_conflict[ch]:
                if not ((live > 0) & ~conflict).any():
                    return self._fused_switch(c, Mode.PIM, cycle)
                stalled = conflict
                masked = np.where(
                    (a.accept_at[ch] > cycle) | conflict, NOSEQ, a.score[ch]
                )
            else:
                masked = np.where(a.accept_at[ch] > cycle, NOSEQ, a.score[ch])
        else:
            # clear_conflict_bits(): both flags, every bank (the fills are
            # gated on the sticky any-bit-set flags).
            if a.has_conflict[ch]:
                a.conflict[ch].fill(False)
                a.has_conflict[ch] = False
            if a.has_issued[ch]:
                a.issued[ch].fill(False)
                a.has_issued[ch] = False
            masked = np.where(a.accept_at[ch] > cycle, NOSEQ, a.score[ch])
        # One argmin over the combined score: hits (< HIT_BIAS) beat
        # non-hits, older arrivals beat newer, NOSEQ means nothing ready.
        bank = int(masked.argmin())
        best = int(masked[bank])
        if best >= NOSEQ:
            # Every candidate bank (live work, not conflict-masked) has
            # accept_at in the future, and the decide inputs are static
            # until an enqueue (dirty) or our own issue: park at the
            # earliest candidate accept instead of re-ticking every cycle.
            candidates = a.bank_live[ch] > 0
            if stalled is not None:
                candidates &= ~stalled
            c._next_wake = int(np.where(candidates, a.accept_at[ch], NOSEQ).min())
            return None
        if best < HIT_BIAS:
            request = mem_queue.row_head(bank, int(a.open_row[ch, bank]))
        else:
            request = mem_queue.bank_head(bank)
        return self._fused_issue_mem(c, ch, bank, request, cycle)

    def _fused_issue_mem(
        self, c: MemoryController, ch: int, bank: int, request: Request, cycle: int
    ) -> Request:
        """Inlined ``mem_queue.remove`` + ``Channel.issue_mem`` + bookkeeping."""
        a = self._ba
        c.mem_queue.remove(request)
        t = self._timings
        channel = c.channel
        row = request.row
        open_row = int(a.open_row[ch, bank])
        next_col = int(a.next_col[ch, bank])
        is_write = request.type is RequestType.MEM_STORE
        # Bank.schedule: place PRE/ACT/column commands, advance the rails.
        act = None
        if open_row == row:
            kind = _HIT
            col = max(cycle, next_col, channel.next_col_bus)
            first_cmd = col
        elif open_row < 0:
            kind = _MISS
            act = max(cycle, int(a.act_ready[ch, bank]), channel.next_act)
            col = max(act + t.tRCD, next_col, channel.next_col_bus)
            first_cmd = act
        else:
            kind = _CONFLICT
            pre = max(cycle, int(a.pre_ready[ch, bank]))
            act = max(pre + t.tRP, int(a.act_ready[ch, bank]), channel.next_act)
            col = max(act + t.tRCD, next_col, channel.next_col_bus)
            first_cmd = pre
        if is_write:
            completion = col + t.tWL + t.burst_length
            write_recovery = completion + t.tWR
            read_to_pre = 0
        else:
            completion = col + t.tCL + t.burst_length
            write_recovery = 0
            read_to_pre = col + t.tRTP
        a.open_row[ch, bank] = row
        a.next_col[ch, bank] = col + t.tCCDl
        a.accept_at[ch, bank] = col
        if act is not None:
            pre_ready = act + t.tRAS
            act_ready = act
        else:
            pre_ready = int(a.pre_ready[ch, bank])
            act_ready = int(a.act_ready[ch, bank])
        pre_ready = max(pre_ready, read_to_pre, write_recovery)
        a.pre_ready[ch, bank] = pre_ready
        a.act_ready[ch, bank] = max(act_ready, pre_ready + t.tRP)
        if completion > int(a.busy_until[ch, bank]):
            a.busy_until[ch, bank] = completion
        channel.banks[bank].state.busy_intervals.append((first_cmd, completion))
        # Channel rails + stats + in-flight heap (Channel.issue_mem tail).
        channel.next_col_bus = col + t.burst_length
        if act is not None:
            channel.next_act = act + t.tRRD
        channel.stats.record_mem(kind, request)
        request.access_kind = kind.value
        request.cycle_issued = cycle
        channel._heap_seq += 1
        heapq.heappush(channel._in_flight, (completion, channel._heap_seq, request))
        if completion < self._comp_next[ch]:
            self._comp_next[ch] = completion
        if completion < self._comp_min:
            self._comp_min = completion
        # Controller tail: flags, digests, PIM uniformity, switch conflicts.
        a.issued[ch, bank] = True
        a.has_issued[ch] = True
        c.mem_queue.resync_hit(bank)
        pim_exec = c.pim_exec
        if pim_exec._rows_uniform and row != pim_exec.open_row:
            pim_exec._rows_uniform = False
        if c._pre_switch_rows:
            c._attribute_post_switch_conflict(request)
        c.stats.mem_issued += 1
        c._next_wake = cycle + 1
        c._dirty = True
        return request

    def _fused_pim(self, c: MemoryController, ch: int, cycle: int):
        """FR-FCFS PIM-mode decide + batched drain of the queued ops.

        The per-op object discipline is: issue the head, park at its
        completion (``end``), re-tick there, issue the next head, and so
        on — one scheduler round-trip per op.  During such a parked chain
        no external event can change a decide: MEM and trailing-PIM
        arrivals are provably inert (``_WakeFilteredController``), the MEM
        head is static while non-empty (PIM mode issues nothing from it),
        and any request arriving after the chain started carries a larger
        ``mc_seq`` than every op already queued — so the older-MEM switch
        condition for each queued op is fully determined when the chain
        starts.  The whole queue snapshot can therefore be drained in one
        pass, replaying the exact per-op sequence (issue cycle of op *i*
        is op *i-1*'s completion, so ``busy_cycles`` telescopes) and
        stopping where the sequential discipline would:

        * an op whose older-MEM switch condition fires is left queued and
          the controller parks at the previous op's issue tick + 1 — the
          cycle the sequential path re-ticks and begins the switch;
        * after draining the snapshot it parks at the last issue tick + 1,
          where the sequential path either finds new arrivals (and starts
          a new chain at the same cycle with the same rail state) or finds
          the queue empty and evaluates the MEM switch — both identical.
        """
        pim_queue = c.pim_queue
        if not pim_queue:
            if cycle < c._pim_chain_until:
                # Mid-window tick (a completion marked the controller dirty
                # while it sat in the active set): the drained queue is
                # logically still non-empty — re-park at the chain end.
                c._next_wake = c._pim_chain_until
                return None
            if c.mem_queue._live:
                return self._fused_switch(c, Mode.MEM, cycle)
            # Both queues empty and no refresh: nothing internal can wake
            # this controller — park at NEVER; an enqueue (dirty) re-arms.
            c._next_wake = NEVER
            return None
        head = pim_queue[0]
        pim_exec = c.pim_exec
        mem_head = c.mem_queue.head()
        mem_seq = mem_head.mc_seq if mem_head is not None else None
        if (
            mem_seq is not None
            and mem_seq < head.mc_seq
            and pim_exec.would_switch_row(head)
        ):
            return self._fused_switch(c, Mode.MEM, cycle)
        if cycle < pim_exec.busy_until:
            # The decide inputs are static until an enqueue (dirty) or our
            # own issue, and the busy gate holds until busy_until: park
            # there instead of re-ticking every cycle like the object.
            c._next_wake = pim_exec.busy_until
            return None
        # Batched drain (PIMExecutor.issue inlined per op).  Rails commit
        # immediately — they already hold their final values at every
        # logical issue tick; stats and functional execution are deferred
        # to each op's tick via the executor's pending queue, so a
        # simulation horizon cutting the window mid-chain observes exactly
        # the ops the object engine would have issued by then.
        t = self._timings
        ccdl = t.tCCDl
        in_flight = pim_exec._in_flight
        pending = pim_exec._pending
        # A timeline sampler reads queue occupancy at fixed cycles: keep
        # the per-tick drain so the sampled pim_queue depths match the
        # object engine (the parked chain still skips idle re-ticks).
        # VC2 runs use the object ingress, whose backpressure check can't
        # see the virtual occupancy of a drained chain — same cap.
        single = self.timeline is not None or not self._vc1
        chain_ticks = c._chain_ticks
        issued = 0
        first_end = 0
        tick = cycle  # issue cycle of the current op (= previous op's end)
        while True:
            pim_queue.popleft()
            next_col = pim_exec.next_col
            switched = False
            if head.pim_dram:
                if pim_exec.would_switch_row(head):
                    start = pim_exec._switch_row_rails(head.row, tick, t)
                    switched = True
                else:
                    start = tick if tick > next_col else next_col
                end = start + ccdl
                rf_only = False
            else:
                start = tick if tick > next_col else next_col
                end = start + 1
                rf_only = True
            pim_exec.next_col = end
            pim_exec.busy_until = end
            head.cycle_issued = tick
            in_flight.append((end, head))
            pending.append((tick, start, end, rf_only, switched, head))
            if tick > cycle:
                # Sequentially this op stays queued until its issue tick:
                # it still occupies a pim_queue slot for backpressure.
                chain_ticks.append(tick)
            if not issued:
                first_end = end
            issued += 1
            if single or not pim_queue:
                break
            nxt = pim_queue[0]
            if (
                mem_seq is not None
                and mem_seq < nxt.mc_seq
                and pim_exec.would_switch_row(nxt)
            ):
                break
            head = nxt
            tick = end
        # Park at the last issue tick + 1 (see docstring); not dirty — no
        # wake can move a parked PIM chain earlier.  The window marker
        # keeps arrival wakes inert while the drained queue is logically
        # still non-empty (see ``_WakeFilteredController``).
        c._next_wake = tick + 1
        c._pim_chain_until = tick + 1
        if first_end < self._comp_next[ch]:
            self._comp_next[ch] = first_end
        if first_end < self._comp_min:
            self._comp_min = first_end
        c.stats.pim_issued += issued
        return head

    def _collect_results(self):
        # Commit deferred issue stats for batch ops whose logical issue
        # tick falls inside the simulated window (see ``_fused_pim``);
        # later ops stay uncounted, as in the object engine.  ``step``
        # post-increments, so the last processed tick is ``cycle - 1``.
        final = self.cycle - 1
        for pim_exec in self.pim_execs:
            if pim_exec._pending:
                pim_exec.flush_issue_stats(final)
        return super()._collect_results()

    def _fused_switch(self, c: MemoryController, target: Mode, cycle: int):
        c._begin_switch(target, cycle)
        c._next_wake = max(cycle + 1, c._drain_complete_cycle())
        c._dirty = True
        return None

    # -- quiescence / fast-forward ----------------------------------------
    #
    # The array scheduler parks controllers outside the active set and the
    # wake heap, so the engine's quiescence contract must fold the array
    # in: a controller due at or before the current cycle blocks the skip
    # (it would act this step — the exact cases the object discipline kept
    # in the active set), and one parked further out bounds the jump the
    # same way a wake-heap entry would.

    def _quiescent(self) -> bool:
        if self._backlog or self._mc_active or self._sm_active:
            return False
        if (
            self._all_fused
            and self.telemetry is None
            and self._ctl_min <= self.cycle
        ):
            return False
        return self.mesh is None or not self.mesh.occupancy

    def _fast_forward_clock(self, limit: int) -> None:
        if self._all_fused and self.telemetry is None and self._ctl_min < limit:
            limit = self._ctl_min
        super()._fast_forward_clock(limit)

    def _finish_request(self, request: Request) -> None:
        self._kernel_inflight[request.kernel_id] -= 1
        # Return the request to its replay slot.  Whether the *object* is
        # reused is decided at replay time: requests that entered the
        # tombstone-indexed MEM queue are rebuilt fresh there (stale lazy
        # index references may survive), the rest are reused in place.
        slot = request._slot
        if slot is not None:
            slot[0] -= 1

    def enable_telemetry(self, *args, **kwargs):
        telemetry = super().enable_telemetry(*args, **kwargs)
        # Telemetry folds per-request hop stamps into its accounting;
        # recycled requests would carry stale stamps from earlier flights.
        self._recycler.disable_recycling()
        if self._rings_on:
            # Telemetry stages (and their buffer-watch hooks) work on the
            # BoundedQueues: migrate the in-flight handles back into the
            # object queues in FIFO order, carry the occupancy telemetry
            # over, and route the hop stages to their object bodies.
            self._rings_on = False
            pool = self._pool
            objs = pool.objs
            for rings, queues in (
                (self._sm_rings, self._sm_q0),
                (self._in_rings, self._in_q0),
                (self._dram_rings, self._dram_q0),
            ):
                for ring, queue in zip(rings, queues):
                    items = queue._items
                    for h in ring.snapshot():
                        request = objs[h]
                        items.append(request)
                        if request._slot is None:
                            pool.release(request)
                    queue.pushes += ring.pushes
                    if ring.peak_occupancy > queue.peak_occupancy:
                        queue.peak_occupancy = ring.peak_occupancy
                    ring.clear()
        if self._all_fused:
            # Telemetry routes the controllers stage to the object
            # implementation, which never reads the wake array: migrate
            # array-parked controllers into the active set so the object
            # discipline re-parks them on the wake heap.
            for ch in range(len(self.controllers)):
                self._mc_active.add(ch)
        return telemetry

    # -- MC ingress --------------------------------------------------------

    def _stage_mc_ingress(self) -> None:
        if not self._vc1:
            super()._stage_mc_ingress()
            return
        if self._rings_on:
            self._ring_ingress()
            return
        in_flags = self._ingress_active._flags
        nch = self._nch
        find = in_flags.index
        ch = find(True)
        if ch >= nch:
            return
        cycle = self.cycle
        dram_q0 = self._dram_q0
        controllers = self.controllers
        # The inlined admission below covers fused controllers with no
        # telemetry: plain FR-FCFS has a no-op ``on_enqueue`` and the
        # ingress already performed the capacity check, so the admission
        # body is the queue append, the arrival stamps/stats, and the
        # wake-retraction filter (see ``_WakeFilteredController``).
        fused_ctl = self._fused_ctl
        inline = self.telemetry is None
        all_fused = self._all_fused
        wake = self._ctl_wake
        mc_flags = self._mc_active._flags
        mode_pim = Mode.PIM
        mode_mem = Mode.MEM
        while ch < nch:
            items = dram_q0[ch]._items
            if not items:
                ch = find(True, ch + 1)
                continue
            head = items[0]
            c = controllers[ch]
            if head.is_pim:
                occupancy = len(c.pim_queue)
                ticks = c._chain_ticks
                if ticks:
                    # Batch ops not yet at their logical pop cycle still
                    # occupy pim_queue slots (see ``_fused_pim``).
                    while ticks and ticks[0] <= cycle:
                        ticks.popleft()
                    occupancy += len(ticks)
                if occupancy >= c.pim_queue_size:
                    ch = find(True, ch + 1)
                    continue
            elif c.mem_queue._live >= c.mem_queue_size:
                ch = find(True, ch + 1)
                continue
            # Inlined BoundedQueue.pop + the engine's on_pop watch hook.
            items.popleft()
            self._backlog -= 1
            if not items:
                in_flags[ch] = False
            if not (inline and fused_ctl[ch]):
                c.enqueue(head, cycle)
                if c._dirty and (self.telemetry is not None or not all_fused):
                    # A retracted (inert) wake leaves the controller parked
                    # on the wake heap or already in the active set.
                    mc_flags[ch] = True
                ch = find(True, ch + 1)
                continue
            head.mc_seq = c._next_seq
            c._next_seq += 1
            head.cycle_mc_arrival = cycle
            stats = c.stats
            kid = head.kernel_id
            if head.is_pim:
                c.pim_queue.append(head)
                stats.pim_arrivals += 1
                k = stats.kernel_pim_arrivals
                k[kid] = k.get(kid, 0) + 1
                retract = (
                    len(c.pim_queue) > 1
                    or (c.mode is mode_mem and c.mem_queue._live)
                    or (c.mode is mode_pim and cycle < c._pim_chain_until)
                )
            else:
                c.mem_queue.append(head)
                stats.mem_arrivals += 1
                k = stats.kernel_mem_arrivals
                k[kid] = k.get(kid, 0) + 1
                retract = c.mode is mode_pim and (
                    c.pim_queue or cycle < c._pim_chain_until
                )
            dirty = c._dirty
            if c._switch_target is None and not retract:
                dirty = True
                c._dirty = True
            if dirty:
                if all_fused:
                    wake[ch] = 0
                    self._ctl_min = 0
                else:
                    mc_flags[ch] = True
            ch = find(True, ch + 1)

    def _ring_ingress(self) -> None:
        """The fused ingress over handle rings (telemetry is off by mode)."""
        in_flags = self._ingress_active._flags
        nch = self._nch
        find = in_flags.index
        ch = find(True)
        if ch >= nch:
            return
        cycle = self.cycle
        rings = self._dram_rings
        controllers = self.controllers
        pool = self._pool
        objs = pool.objs
        pim_col = pool.is_pim
        free = pool._free
        fused_ctl = self._fused_ctl
        all_fused = self._all_fused
        wake = self._ctl_wake
        mc_flags = self._mc_active._flags
        mode_pim = Mode.PIM
        mode_mem = Mode.MEM
        while ch < nch:
            ring = rings[ch]
            head_i = ring.head
            if head_i == ring.tail:
                ch = find(True, ch + 1)
                continue
            h = ring.buf[head_i & ring.mask]
            c = controllers[ch]
            if pim_col[h]:
                occupancy = len(c.pim_queue)
                ticks = c._chain_ticks
                if ticks:
                    # Batch ops not yet at their logical pop cycle still
                    # occupy pim_queue slots (see ``_fused_pim``).
                    while ticks and ticks[0] <= cycle:
                        ticks.popleft()
                    occupancy += len(ticks)
                if occupancy >= c.pim_queue_size:
                    ch = find(True, ch + 1)
                    continue
            elif c.mem_queue._live >= c.mem_queue_size:
                ch = find(True, ch + 1)
                continue
            # Pop the ring; the request leaves the NoC here, so this is a
            # materialization boundary (and a transient handle's release).
            ring.head = head_i + 1
            self._backlog -= 1
            if ring.head == ring.tail:
                in_flags[ch] = False
            head = objs[h]
            if head._slot is None:
                head._handle = -1
                objs[h] = None
                free.append(h)
            if not fused_ctl[ch]:
                c.enqueue(head, cycle)
                if c._dirty and not all_fused:
                    # A retracted (inert) wake leaves the controller parked
                    # on the wake heap or already in the active set.
                    mc_flags[ch] = True
                ch = find(True, ch + 1)
                continue
            head.mc_seq = c._next_seq
            c._next_seq += 1
            head.cycle_mc_arrival = cycle
            stats = c.stats
            kid = head.kernel_id
            if head.is_pim:
                c.pim_queue.append(head)
                stats.pim_arrivals += 1
                k = stats.kernel_pim_arrivals
                k[kid] = k.get(kid, 0) + 1
                retract = (
                    len(c.pim_queue) > 1
                    or (c.mode is mode_mem and c.mem_queue._live)
                    or (c.mode is mode_pim and cycle < c._pim_chain_until)
                )
            else:
                c.mem_queue.append(head)
                stats.mem_arrivals += 1
                k = stats.kernel_mem_arrivals
                k[kid] = k.get(kid, 0) + 1
                retract = c.mode is mode_pim and (
                    c.pim_queue or cycle < c._pim_chain_until
                )
            dirty = c._dirty
            if c._switch_target is None and not retract:
                dirty = True
                c._dirty = True
            if dirty:
                if all_fused:
                    wake[ch] = 0
                    self._ctl_min = 0
                else:
                    mc_flags[ch] = True
            ch = find(True, ch + 1)

    # -- L2 ----------------------------------------------------------------

    def _stage_l2(self) -> None:
        if not self._vc1 or self.telemetry is not None:
            super()._stage_l2()
            return
        if self._rings_on:
            self._ring_l2()
            return
        l2_flags = self._l2_active._flags
        nch = self._nch
        find = l2_flags.index
        ch = find(True)
        if ch >= nch:
            return
        cycle = self.cycle
        l2_latency = self.config.l2_latency
        in_q0 = self._in_q0
        dram_q0 = self._dram_q0
        l2_slices = self.l2_slices
        in_flags = self._ingress_active._flags
        hit, blocked, secondary = (
            LookupResult.HIT,
            LookupResult.BLOCKED,
            LookupResult.MISS_SECONDARY,
        )
        while ch < nch:
            queue = in_q0[ch]
            items = queue._items
            if not items:
                ch = find(True, ch + 1)
                continue
            head = items[0]
            dram_queue = dram_q0[ch]
            dram_items = dram_queue._items
            # Single VC: PIM forward and MEM miss share one L2->DRAM queue.
            if len(dram_items) >= dram_queue.capacity:
                ch = find(True, ch + 1)
                continue
            forward = True
            if not head.is_pim:
                outcome = l2_slices[ch].lookup(head)
                if outcome == blocked:
                    ch = find(True, ch + 1)
                    continue  # MSHRs full: head stays put
                if outcome == hit:
                    forward = False
                    if head.is_load:
                        self._schedule_reply(head, cycle + l2_latency)
                    else:
                        self._finish_request(head)
                elif outcome == secondary:
                    forward = False  # merged; replied when the fill returns
            # Inlined pop (+ on_pop hook) from the interconnect->L2 queue.
            items.popleft()
            self._backlog -= 1
            if not items:
                l2_flags[ch] = False
            if forward:  # inlined try_push (+ on_push hook) into L2->DRAM
                dram_items.append(head)
                dram_queue.pushes += 1
                occupancy = len(dram_items)
                if occupancy > dram_queue.peak_occupancy:
                    dram_queue.peak_occupancy = occupancy
                self._backlog += 1
                in_flags[ch] = True
            ch = find(True, ch + 1)

    def _ring_l2(self) -> None:
        """The fused L2 sink over handle rings.

        PIM requests forward on their ``is_pim`` column alone — the
        object is only materialized for MEM lookups (the tag/MSHR state
        keys on it) and released when a hit or MSHR merge takes the
        request out of the NoC.
        """
        l2_flags = self._l2_active._flags
        nch = self._nch
        find = l2_flags.index
        ch = find(True)
        if ch >= nch:
            return
        cycle = self.cycle
        l2_latency = self.config.l2_latency
        in_rings = self._in_rings
        dram_rings = self._dram_rings
        l2_slices = self.l2_slices
        in_flags = self._ingress_active._flags
        pool = self._pool
        objs = pool.objs
        pim_col = pool.is_pim
        free = pool._free
        hit, blocked, secondary = (
            LookupResult.HIT,
            LookupResult.BLOCKED,
            LookupResult.MISS_SECONDARY,
        )
        while ch < nch:
            ring = in_rings[ch]
            head_i = ring.head
            if head_i == ring.tail:
                ch = find(True, ch + 1)
                continue
            dram_ring = dram_rings[ch]
            # Single VC: PIM forward and MEM miss share one L2->DRAM queue.
            if dram_ring.tail - dram_ring.head >= dram_ring.capacity:
                ch = find(True, ch + 1)
                continue
            h = ring.buf[head_i & ring.mask]
            forward = True
            head = None
            if not pim_col[h]:
                head = objs[h]
                outcome = l2_slices[ch].lookup(head)
                if outcome == blocked:
                    ch = find(True, ch + 1)
                    continue  # MSHRs full: head stays put
                if outcome == hit:
                    forward = False
                    if head.is_load:
                        self._schedule_reply(head, cycle + l2_latency)
                    else:
                        self._finish_request(head)
                elif outcome == secondary:
                    forward = False  # merged; replied when the fill returns
            ring.head = head_i + 1
            self._backlog -= 1
            if ring.head == ring.tail:
                l2_flags[ch] = False
            if forward:
                tail = dram_ring.tail
                dram_ring.buf[tail & dram_ring.mask] = h
                dram_ring.tail = tail + 1
                dram_ring.pushes += 1
                occupancy = tail + 1 - dram_ring.head
                if occupancy > dram_ring.peak_occupancy:
                    dram_ring.peak_occupancy = occupancy
                self._backlog += 1
                in_flags[ch] = True
            elif head._slot is None:
                # Hit/merge: the request leaves the NoC without reaching
                # the MC — release a transient handle here.
                head._handle = -1
                objs[h] = None
                free.append(h)
            ch = find(True, ch + 1)

    # -- crossbar ----------------------------------------------------------

    def _stage_crossbar(self) -> None:
        if self.mesh is not None or not self._vc1:
            super()._stage_crossbar()
            return
        if self._rings_on:
            self._ring_crossbar()
            return
        x_flags = self._xbar_active._flags
        nsm = self._nsm
        find = x_flags.index
        i = find(True)
        if i >= nsm:
            return
        # Single-VC iSlip: each input offers exactly one head to one
        # output, so every grant is accepted and the request/grant/accept
        # phases collapse into one pass.  can_push is evaluated against
        # pre-transfer occupancy for every proposal, as in the object
        # arbiter (at most one push per output per cycle, so a proposal
        # admitted here cannot overflow).  Collisions resolve incrementally
        # against the grant pointer (min clockwise distance — the same
        # winner the object arbiter's scan picks), so the per-cycle state
        # is two preallocated registers per output, no dict or lists.
        xbar = self.crossbar
        sm_q0 = self._sm_q0
        in_q0 = self._in_q0
        grant_ptr = xbar._grant_ptr
        num_inputs = xbar.num_inputs
        prop_in = self._xp_in
        prop_head = self._xp_head
        touched = None
        while i < nsm:
            items = sm_q0[i]._items
            if not items:
                i = find(True, i + 1)
                continue
            head = items[0]
            out = head.channel
            out_queue = in_q0[out]
            if len(out_queue._items) >= out_queue.capacity:
                i = find(True, i + 1)
                continue
            prev = prop_in[out]
            if prev < 0:
                prop_in[out] = i
                prop_head[out] = head
                if touched is None:
                    touched = [out]
                else:
                    touched.append(out)
            else:
                pointer = grant_ptr[out]
                if (i - pointer) % num_inputs < (prev - pointer) % num_inputs:
                    prop_in[out] = i
                    prop_head[out] = head
            i = find(True, i + 1)
        if touched is None:
            return
        l2_flags = self._l2_active._flags
        stalled = self._sm_stalled
        sm_flags = self._sm_active._flags
        sms = self.sms
        for out in touched:
            chosen = prop_in[out]
            head = prop_head[out]
            prop_in[out] = -1
            prop_head[out] = None
            # Inlined pop (+ on_pop) from the SM buffer ...
            in_items = sm_q0[chosen]._items
            in_items.popleft()
            self._backlog -= 1
            if not in_items:
                x_flags[chosen] = False
            if stalled[chosen]:
                # The SM parked on this full buffer: the freed slot is the
                # first chance its retry scan could succeed — wake it now
                # (the SM stage runs after the crossbar this same cycle).
                stalled[chosen] = False
                sm_flags[chosen] = True
                sms[chosen]._dirty = True
            # ... and try_push (+ on_push) into the interconnect->L2 queue.
            out_queue = in_q0[out]
            out_items = out_queue._items
            out_items.append(head)
            out_queue.pushes += 1
            occupancy = len(out_items)
            if occupancy > out_queue.peak_occupancy:
                out_queue.peak_occupancy = occupancy
            self._backlog += 1
            l2_flags[out] = True
            grant_ptr[out] = (chosen + 1) % num_inputs
            xbar.transfers += 1

    def _ring_crossbar(self) -> None:
        """The fused single-VC iSlip pass over handle rings.

        Identical arbitration to the deque body; the output port comes
        from the pool's ``channel`` column instead of the head object,
        and a grant moves one integer between rings.  The head registers
        (``_xp_head``) are unnecessary — a ring head is re-read at grant
        time with two array ops, and only this loop pops the rings.
        """
        x_flags = self._xbar_active._flags
        nsm = self._nsm
        find = x_flags.index
        i = find(True)
        if i >= nsm:
            return
        xbar = self.crossbar
        sm_rings = self._sm_rings
        in_rings = self._in_rings
        grant_ptr = xbar._grant_ptr
        num_inputs = xbar.num_inputs
        prop_in = self._xp_in
        chan_col = self._pool.channel
        touched = None
        while i < nsm:
            ring = sm_rings[i]
            head_i = ring.head
            if head_i == ring.tail:
                i = find(True, i + 1)
                continue
            out = chan_col[ring.buf[head_i & ring.mask]]
            out_ring = in_rings[out]
            if out_ring.tail - out_ring.head >= out_ring.capacity:
                i = find(True, i + 1)
                continue
            prev = prop_in[out]
            if prev < 0:
                prop_in[out] = i
                if touched is None:
                    touched = [out]
                else:
                    touched.append(out)
            else:
                pointer = grant_ptr[out]
                if (i - pointer) % num_inputs < (prev - pointer) % num_inputs:
                    prop_in[out] = i
            i = find(True, i + 1)
        if touched is None:
            return
        l2_flags = self._l2_active._flags
        stalled = self._sm_stalled
        sm_flags = self._sm_active._flags
        sms = self.sms
        for out in touched:
            chosen = prop_in[out]
            prop_in[out] = -1
            in_ring = sm_rings[chosen]
            head_i = in_ring.head
            h = in_ring.buf[head_i & in_ring.mask]
            in_ring.head = head_i + 1
            self._backlog -= 1
            if in_ring.head == in_ring.tail:
                x_flags[chosen] = False
            if stalled[chosen]:
                # The SM parked on this full buffer: the freed slot is the
                # first chance its retry scan could succeed — wake it now
                # (the SM stage runs after the crossbar this same cycle).
                stalled[chosen] = False
                sm_flags[chosen] = True
                sms[chosen]._dirty = True
            out_ring = in_rings[out]
            tail = out_ring.tail
            out_ring.buf[tail & out_ring.mask] = h
            out_ring.tail = tail + 1
            out_ring.pushes += 1
            occupancy = tail + 1 - out_ring.head
            if occupancy > out_ring.peak_occupancy:
                out_ring.peak_occupancy = occupancy
            self._backlog += 1
            l2_flags[out] = True
            grant_ptr[out] = (chosen + 1) % num_inputs
            xbar.transfers += 1

    # -- writebacks --------------------------------------------------------

    def _stage_writebacks(self) -> None:
        if not self._rings_on:
            super()._stage_writebacks()
            return
        wb_flags = self._wb_active._flags
        nch = self._nch
        find = wb_flags.index
        ch = find(True)
        if ch >= nch:
            return
        cycle = self.cycle
        pool = self._pool
        rings = self._dram_rings
        in_flags = self._ingress_active._flags
        writebacks = self.writebacks
        while ch < nch:
            ring = rings[ch]
            if ring.tail - ring.head < ring.capacity:
                pending = writebacks[ch]
                request = pending.popleft()
                # Writebacks are always transient (no replay slot):
                # acquired here, released at MC ingress.  The object
                # path's try_push hook adds one backlog that the stage
                # immediately re-subtracts — net zero, so no adjustment.
                h = pool.acquire(request, cycle)
                tail = ring.tail
                ring.buf[tail & ring.mask] = h
                ring.tail = tail + 1
                ring.pushes += 1
                occupancy = tail + 1 - ring.head
                if occupancy > ring.peak_occupancy:
                    ring.peak_occupancy = occupancy
                in_flags[ch] = True
                if not pending:
                    wb_flags[ch] = False
            ch = find(True, ch + 1)

    # -- SMs ---------------------------------------------------------------

    def _stage_sms(self) -> None:
        if not self._vc1:
            super()._stage_sms()
            return
        sm_flags = self._sm_active._flags
        nsm = self._nsm
        find = sm_flags.index
        i = find(True)
        if i >= nsm:
            return
        cycle = self.cycle
        sms = self.sms
        wake_heap = self._wake_heap
        rings_on = self._rings_on
        while i < nsm:
            sm = sms[i]
            if sm.instance is None:
                sm_flags[i] = False
                i = find(True, i + 1)
                continue
            before = sm.requests_injected
            # L1-enabled SMs keep the object step (local reply heap, hit
            # path); the common no-L1 configuration takes the fused step
            # (handle-ring variant when the hop pipeline is on).
            issued = (
                self._ring_sm_step(sm, self._sm_rings[i], cycle)
                if rings_on
                else sm.step(cycle)
                if sm.l1 is not None
                else self._fused_sm_step(sm, self._sm_q0[i], cycle)
            )
            if issued:
                sm.requests_injected = before + issued
                kernel_id = sm.instance.kernel_id
                self._injected[kernel_id] += issued
                self._kernel_inflight[kernel_id] += issued
            if sm._dirty:
                i = find(True, i + 1)
                continue
            # No L1 means no local-reply heap: _next_wake is the whole
            # next_event_cycle contract.
            wake = sm._next_wake if sm.l1 is None else sm.next_event_cycle()
            if wake <= cycle + 1:
                i = find(True, i + 1)
                continue
            sm_flags[i] = False
            if wake < NEVER:
                heapq.heappush(wake_heap, (wake, 1, i))
            i = find(True, i + 1)

    def _fused_sm_step(self, sm, out_queue, cycle: int) -> int:
        """``SM.step`` without an L1: no local replies, every issue pushes."""
        if not sm._dirty and cycle < sm._next_wake:
            return 0
        sm._dirty = False
        due = sm._due
        if due and due[0][0] <= cycle:
            self._fused_advance_due(sm, cycle)
        issuable = sm._issuable
        if not issuable:
            sm._next_wake = due[0][0] if due else cycle + 1_000_000
            return 0
        items = out_queue._items
        capacity = out_queue.capacity
        if len(items) >= capacity:
            # Full output queue: with no L1, every candidate fails the push
            # check and the scan is a no-op.  The object engine retries
            # every cycle, but each retry before a crossbar pop is provably
            # a no-op (only this SM pushes to its buffer), so park at the
            # due head and let the grant loop wake us on the pop — the
            # same cycle the object rescan would first succeed (the
            # crossbar stage runs before the SM stage).
            if self._stall_park:
                self._sm_stalled[sm.index] = True
                sm._next_wake = due[0][0] if due else cycle + 1_000_000
            else:
                sm._next_wake = cycle + 1
            return 0
        issued = 0
        slots = 0
        warps = sm.warps
        num_warps = len(warps)
        issue_width = sm.issue_width
        max_outstanding = sm.max_outstanding
        sm_index = sm.index
        if len(issuable) == 1:
            # Rotation is irrelevant for a single candidate; skip the sort
            # (the loop below may remove the member, so don't iterate the
            # live set).
            order = (next(iter(issuable)),)
        else:
            base = sm._issue_rotation
            order = sorted(issuable)
            if base:
                split = bisect_left(order, base)
                order = order[split:] + order[:split]
        xbar_flags = self._xbar_active._flags
        for warp_index in order:
            if slots >= issue_width:
                break
            if len(items) >= capacity:
                break  # queue filled mid-scan: nothing else can issue
            warp = warps[warp_index]
            request = warp.pending[0]
            if request.is_load and sm.outstanding_loads >= max_outstanding:
                continue
            warp.pending.popleft()
            if request.cycle_created < 0:
                request.cycle_created = cycle
            request.source = sm_index
            request.warp = warp_index
            request.cycle_noc_entry = cycle
            # Inlined try_push (+ on_push hook) into the SM output buffer.
            items.append(request)
            out_queue.pushes += 1
            occupancy = len(items)
            if occupancy > out_queue.peak_occupancy:
                out_queue.peak_occupancy = occupancy
            self._backlog += 1
            xbar_flags[sm_index] = True
            if request.is_load:
                sm.outstanding_loads += 1
                if warp.wait_for_replies:
                    warp.waiting_replies += 1
            issued += 1
            slots += 1
            sm._issue_rotation = (warp_index + 1) % num_warps
            if not warp.pending:
                issuable.remove(warp_index)
                if not (warp.wait_for_replies and warp.waiting_replies > 0):
                    heapq.heappush(
                        due,
                        (
                            warp.compute_until if warp.compute_until > cycle else cycle + 1,
                            warp_index,
                        ),
                    )
        if slots:
            if len(items) >= capacity and self._stall_park:
                # Filled the queue mid-scan: every retry before a crossbar
                # pop is a no-op — same park as the full-at-entry case.
                self._sm_stalled[sm_index] = True
                sm._next_wake = due[0][0] if due else cycle + 1_000_000
            else:
                sm._next_wake = cycle + 1
        else:
            # Nothing issued this step.  If issuable warps remain, every
            # one was a load blocked on the outstanding limit (a store or
            # a fitting load would have issued — the output queue had
            # space, so the scan ran to completion).  Only a reply
            # (``receive_reply`` marks the SM dirty) or a due event can
            # unblock either case: park at the due head instead of the
            # object's retry-every-cycle rescan.
            sm._next_wake = due[0][0] if due else cycle + 1_000_000
        return issued

    def _ring_sm_step(self, sm, ring, cycle: int) -> int:
        """``_fused_sm_step`` issuing into a handle ring.

        Identical control flow; the only deltas are the ring occupancy
        checks (``tail - head``) and the handle bind on push — a pinned
        request (replay-recycled) reuses its handle with one column
        refresh, everything else acquires a pool slot.
        """
        if not sm._dirty and cycle < sm._next_wake:
            return 0
        sm._dirty = False
        due = sm._due
        if due and due[0][0] <= cycle:
            self._fused_advance_due(sm, cycle)
        issuable = sm._issuable
        if not issuable:
            sm._next_wake = due[0][0] if due else cycle + 1_000_000
            return 0
        capacity = ring.capacity
        if ring.tail - ring.head >= capacity:
            # Full output ring: park at the due head and let the crossbar
            # grant loop wake us on the pop (see _fused_sm_step; the
            # ring mode implies a crossbar, so the wake always fires).
            self._sm_stalled[sm.index] = True
            sm._next_wake = due[0][0] if due else cycle + 1_000_000
            return 0
        issued = 0
        slots = 0
        warps = sm.warps
        num_warps = len(warps)
        issue_width = sm.issue_width
        max_outstanding = sm.max_outstanding
        sm_index = sm.index
        if len(issuable) == 1:
            order = (next(iter(issuable)),)
        else:
            base = sm._issue_rotation
            order = sorted(issuable)
            if base:
                split = bisect_left(order, base)
                order = order[split:] + order[:split]
        xbar_flags = self._xbar_active._flags
        pool = self._pool
        noc_col = pool.noc_entry
        buf = ring.buf
        mask = ring.mask
        for warp_index in order:
            if slots >= issue_width:
                break
            if ring.tail - ring.head >= capacity:
                break  # ring filled mid-scan: nothing else can issue
            warp = warps[warp_index]
            request = warp.pending[0]
            if request.is_load and sm.outstanding_loads >= max_outstanding:
                continue
            warp.pending.popleft()
            if request.cycle_created < 0:
                request.cycle_created = cycle
            request.source = sm_index
            request.warp = warp_index
            request.cycle_noc_entry = cycle
            h = request._handle
            if h < 0:
                h = pool.acquire(request, cycle)
            else:
                noc_col[h] = cycle  # pinned handle: refresh the flight stamp
            tail = ring.tail
            buf[tail & mask] = h
            ring.tail = tail + 1
            ring.pushes += 1
            occupancy = tail + 1 - ring.head
            if occupancy > ring.peak_occupancy:
                ring.peak_occupancy = occupancy
            self._backlog += 1
            xbar_flags[sm_index] = True
            if request.is_load:
                sm.outstanding_loads += 1
                if warp.wait_for_replies:
                    warp.waiting_replies += 1
            issued += 1
            slots += 1
            sm._issue_rotation = (warp_index + 1) % num_warps
            if not warp.pending:
                issuable.remove(warp_index)
                if not (warp.wait_for_replies and warp.waiting_replies > 0):
                    heapq.heappush(
                        due,
                        (
                            warp.compute_until if warp.compute_until > cycle else cycle + 1,
                            warp_index,
                        ),
                    )
        if slots:
            if ring.tail - ring.head >= capacity:
                # Filled the ring mid-scan: park as in the full-at-entry
                # case (the crossbar pop wakes us).
                self._sm_stalled[sm_index] = True
                sm._next_wake = due[0][0] if due else cycle + 1_000_000
            else:
                sm._next_wake = cycle + 1
        else:
            sm._next_wake = due[0][0] if due else cycle + 1_000_000
        return issued

    def _fused_advance_due(self, sm, cycle: int) -> None:
        """``SM._advance_due_warps`` with batched readiness classification.

        All due entries are popped up front (processing only ever pushes
        entries beyond ``cycle``, so the pop sequence matches the object
        loop).  Entries whose warp is immediately issuable — not done,
        pending requests, compute window elapsed — resolve to an
        idempotent ``issuable.add`` with no state change, so they can be
        classified in bulk and in any order; the rest run the exact
        scalar logic in pop order.
        """
        due = sm._due
        if not due or due[0][0] > cycle:
            return
        warps = sm.warps
        issuable = sm._issuable
        popped = []
        while due and due[0][0] <= cycle:
            popped.append(heapq.heappop(due)[1])
        if len(popped) >= _WARP_BATCH_MIN:
            count = len(popped)
            done = np.fromiter((warps[w].done for w in popped), dtype=bool, count=count)
            pending = np.fromiter(
                (len(warps[w].pending) for w in popped), dtype=np.int64, count=count
            )
            compute_until = np.fromiter(
                (warps[w].compute_until for w in popped), dtype=np.int64, count=count
            )
            ready = warp_ready_batch(done, pending, compute_until, cycle)
            if ready.all():
                issuable.update(popped)
                return
            rest = []
            for index, warp_index in enumerate(popped):
                if ready[index]:
                    issuable.add(warp_index)
                else:
                    rest.append(warp_index)
            popped = rest
        for warp_index in popped:
            warp = warps[warp_index]
            if warp.done:
                continue
            if warp.pending:
                if cycle >= warp.compute_until:
                    issuable.add(warp_index)
                else:
                    heapq.heappush(due, (warp.compute_until, warp_index))
                continue
            if warp.wait_for_replies and warp.waiting_replies > 0:
                continue  # receive_reply re-arms the warp
            if cycle < warp.compute_until:
                heapq.heappush(due, (warp.compute_until, warp_index))
                continue
            phase = next(warp.program, None)
            if phase is None:
                warp.done = True
                sm._live_warps -= 1
                continue
            warp.compute_until = cycle + phase.compute_cycles
            warp.wait_for_replies = phase.wait_for_replies
            warp.pending.extend(phase.requests)
            if warp.pending:
                if cycle >= warp.compute_until:
                    issuable.add(warp_index)
                else:
                    heapq.heappush(due, (warp.compute_until, warp_index))
            else:
                heapq.heappush(
                    due,
                    (
                        warp.compute_until if warp.compute_until > cycle else cycle + 1,
                        warp_index,
                    ),
                )
