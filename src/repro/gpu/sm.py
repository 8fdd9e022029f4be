"""Streaming multiprocessor (SM) model.

The paper's bottlenecks live in the memory path, so the SM is modelled as a
warp-level request injector with the properties that shape memory traffic:

* warps alternate compute phases and memory phases,
* load phases block a warp until all replies return,
* PIM/store phases are fire-and-forget, so a PIM kernel's injection rate
  is bounded only by the SM issue width (one request per cycle) and queue
  backpressure — which is exactly how PIM kernels saturate the
  interconnect (Section V),
* a bounded number of outstanding loads (MSHR-like limit),
* requests from one warp are issued in order (Orderlight [48] semantics;
  the per-SM FIFO plus per-channel FCFS PIM queues preserve PIM block
  order end to end).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.core.policies.base import NEVER
from repro.gpu.kernel import KernelInstance
from repro.noc.vc import VCBuffer
from repro.request import Request


class WarpState:
    """Execution state of one warp.

    ``due`` is the cycle of the warp's next phase boundary (a phase to
    advance, or a compute window whose end makes its requests issuable);
    ``NEVER`` while the warp is issuable, blocked on replies or done.
    ``issuable`` is set while the warp has requests and its compute
    window has ended.
    """

    __slots__ = (
        "index",
        "program",
        "compute_until",
        "pending",
        "waiting_replies",
        "wait_for_replies",
        "done",
        "due",
        "issuable",
    )

    def __init__(self, index: int, program) -> None:
        self.index = index
        self.program = program
        self.compute_until = 0
        self.pending: Deque[Request] = deque()
        self.waiting_replies = 0
        self.wait_for_replies = False
        self.done = False
        self.due = 0
        self.issuable = False


class SM:
    """One streaming multiprocessor issuing requests for one kernel."""

    def __init__(
        self,
        index: int,
        output: VCBuffer,
        max_outstanding: int = 64,
        issue_width: int = 1,
        l1=None,
        l1_latency: int = 28,
    ) -> None:
        self.index = index
        self.output = output
        self.max_outstanding = max_outstanding
        self.issue_width = issue_width
        self.l1 = l1  # optional repro.cache.l1.L1Cache
        self.l1_latency = l1_latency
        self._local_replies: List[Tuple[int, int, Request]] = []
        self._local_seq = itertools.count()
        self.warps: List[WarpState] = []
        self._live_warps = 0  # warps not yet done (O(1) is_done)
        self.instance: Optional[KernelInstance] = None
        self.sm_slot = 0
        self.outstanding_loads = 0
        self._issue_rotation = 0
        self.requests_injected = 0
        self.finish_cycle: Optional[int] = None
        # The wake contract (docs/performance.md): after a step, the SM
        # cannot act before ``_next_wake`` unless ``receive_reply`` marks
        # it dirty.
        self._next_wake = 0
        self._dirty = True

    # -- kernel binding ---------------------------------------------------

    def attach(self, instance: KernelInstance, sm_slot: int, cycle: int = 0) -> None:
        """Bind a kernel launch to this SM (slot = index within the launch)."""
        self.instance = instance
        self.sm_slot = sm_slot
        self.issue_width = instance.spec.issue_width(instance.ctx)
        warps = instance.spec.warps_per_sm(instance.ctx)
        self.warps = [WarpState(w, instance.warp_program(sm_slot, w)) for w in range(warps)]
        self._live_warps = len(self.warps)
        for warp in self.warps:
            # Every warp must advance its first phase.
            warp.compute_until = warp.due = cycle
        self.outstanding_loads = 0
        self.finish_cycle = None
        self._next_wake = cycle
        self._dirty = True
        if instance.cycle_launched is None:
            instance.cycle_launched = cycle

    @property
    def idle(self) -> bool:
        return self.instance is None

    def is_done(self, cycle: int) -> bool:
        # A done warp's program is exhausted, so its pending deque can
        # never refill: live-warp count zero implies all(done, no pending).
        if self.instance is None:
            return True
        return self.outstanding_loads == 0 and self._live_warps == 0

    # -- execution -----------------------------------------------------------

    def step(self, cycle: int) -> int:
        """Advance due warps and issue up to ``issue_width`` requests.

        Returns the number of requests pushed into the output buffer.
        Warps whose ``due`` has come advance first, in warp order: a phase
        advance builds the phase's requests, and the global request-id
        stream follows that order.  Then one round-robin pass from
        ``_issue_rotation`` issues from the issuable warps and sets
        ``_next_wake``: the next cycle while a warp issued or is still
        issuable, else the earliest warp ``due`` or pending L1 local
        reply (``NEVER`` if there is none).
        """
        if self.instance is None:
            return 0
        if not self._dirty and cycle < self._next_wake:
            return 0
        local = self._local_replies
        if local and local[0][0] <= cycle:
            self._deliver_local_replies(cycle)
        self._dirty = False
        warps = self.warps
        for warp in warps:
            if warp.due <= cycle:
                self._advance(warp, cycle)
        issued = 0  # requests injected into the NoC (returned to caller)
        slots = 0  # issue slots consumed, including L1-hit loads
        wake = NEVER
        num_warps = len(warps)
        width = self.issue_width
        l1 = self.l1
        lanes = self.output.lanes
        base = self._issue_rotation
        # Negative indices wrap: this visits base, ..., num_warps - 1, 0,
        # ..., base - 1 without building a rotated list.
        for position in range(base - num_warps, base):
            warp = warps[position]
            if not warp.issuable:
                if warp.due < wake:
                    wake = warp.due
                continue
            # Issuing now, or blocked on buffer space / the outstanding-load
            # limit: either way, step again next cycle.
            wake = cycle + 1
            if slots >= width:
                continue
            request = warp.pending[0]
            if request.is_load and self.outstanding_loads >= self.max_outstanding:
                continue
            l1_hit = l1 is not None and request.is_load and l1.lookup_load(request.address)
            lane = lanes[request.is_pim]
            items = lane._items
            if not l1_hit and len(items) >= lane.capacity:
                continue
            warp.pending.popleft()
            if request.cycle_created < 0:
                request.cycle_created = cycle
            request.source = self.index
            request.warp = warp.index
            if l1_hit:
                # Satisfied locally after the L1 hit latency; no NoC trip.
                self.outstanding_loads += 1
                if warp.wait_for_replies:
                    warp.waiting_replies += 1
                heapq.heappush(local, (cycle + self.l1_latency, next(self._local_seq), request))
            else:
                if l1 is not None and request.type.value == "mem_store":
                    l1.note_store(request.address)
                request.cycle_noc_entry = cycle
                # The space was checked above: push without a second
                # test (BoundedQueue.try_push's append and push hook).
                items.append(request)
                if len(items) == 1 and lane.on_push is not None:
                    lane.on_push()
                if request.is_load:
                    self.outstanding_loads += 1
                    if warp.wait_for_replies:
                        warp.waiting_replies += 1
                issued += 1
            slots += 1
            self._issue_rotation = (warp.index + 1) % num_warps
            if not warp.pending:
                warp.issuable = False
                if not (warp.wait_for_replies and warp.waiting_replies):
                    # Phase complete and not blocked: advance the next
                    # phase once the compute window (or next step) comes.
                    until = warp.compute_until
                    warp.due = until if until > cycle else cycle + 1
        if local and local[0][0] < wake:
            wake = local[0][0]
        self._next_wake = wake
        return issued

    def _advance(self, warp: WarpState, cycle: int) -> None:
        """Handle a warp whose ``due`` has come: at most one phase advance
        per step (a refreshed ``due`` lies after ``cycle``)."""
        warp.due = NEVER
        if not warp.pending:
            if warp.wait_for_replies and warp.waiting_replies:
                return  # blocked: receive_reply re-arms the warp
            if cycle < warp.compute_until:
                warp.due = warp.compute_until
                return
            phase = next(warp.program, None)
            if phase is None:
                warp.done = True
                self._live_warps -= 1
                return
            warp.compute_until = cycle + phase.compute_cycles
            warp.wait_for_replies = phase.wait_for_replies
            warp.pending.extend(phase.requests)
            if not warp.pending:
                # Pure-compute phase: advance again when it ends (at the
                # earliest next step, preserving one phase per step).
                until = warp.compute_until
                warp.due = until if until > cycle else cycle + 1
                return
        if cycle >= warp.compute_until:
            warp.issuable = True
        else:
            warp.due = warp.compute_until

    def _deliver_local_replies(self, cycle: int) -> None:
        heap = self._local_replies
        while heap and heap[0][0] <= cycle:
            _, _, request = heapq.heappop(heap)
            self.receive_reply(request, cycle)

    def receive_reply(self, request: Request, cycle: int) -> bool:
        """A load reply returned (from the memory subsystem or the L1).

        Returns True, and marks the SM dirty, only when the reply re-armed
        its warp.  Any other reply leaves the SM asleep: a sleeping SM has
        no issuable warp, so the load count, the warp's reply count and
        the L1 line a reply changes cannot alter its next step.
        """
        self.outstanding_loads -= 1
        if self.outstanding_loads < 0:
            raise RuntimeError(f"SM {self.index}: reply without outstanding load")
        if self.l1 is not None and request.is_load:
            self.l1.install(request.address)
        warp = self.warps[request.warp]
        if warp.wait_for_replies and warp.waiting_replies > 0:
            warp.waiting_replies -= 1
            if warp.waiting_replies:
                return False
        if warp.done or warp.pending:
            return False
        # Fully unblocked: re-arm the warp's phase advance.  Replies are
        # delivered before this cycle's SM stage runs, so a ``due`` of
        # ``cycle`` advances the warp this very step.
        until = warp.compute_until
        due = until if until > cycle else cycle
        if due < warp.due:
            warp.due = due
        self._dirty = True
        return True
