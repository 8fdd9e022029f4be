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
from bisect import bisect_left
from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.core.policies.base import NEVER
from repro.gpu.kernel import KernelInstance, Phase
from repro.noc.vc import VCBuffer
from repro.request import Request


class WarpState:
    """Execution state of one warp."""

    __slots__ = (
        "index",
        "program",
        "compute_until",
        "pending",
        "waiting_replies",
        "wait_for_replies",
        "done",
    )

    def __init__(self, index: int, program) -> None:
        self.index = index
        self.program = program
        self.compute_until = 0
        self.pending: Deque[Request] = deque()
        self.waiting_replies = 0
        self.wait_for_replies = False
        self.done = False

    def blocked_on_replies(self) -> bool:
        return self.wait_for_replies and self.waiting_replies > 0 and not self.pending


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
        # Wake-up optimization: skip cycles where no warp can progress.
        self._next_wake = 0
        self._dirty = True
        # Per-warp event batching: instead of scanning every warp each
        # step, warps park on a due heap of (cycle, warp_index) entries —
        # compute-phase ends and reply unblocks — and move into the
        # issuable set (pending requests, compute done) when their entry
        # comes due.  Entries are lazy: a popped entry re-checks the
        # warp's state, so duplicates are harmless no-ops.
        self._due: List[Tuple[int, int]] = []
        self._issuable: set = set()

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
            warp.compute_until = cycle
        # Every warp must advance its first phase: seed one due entry each.
        # (Ascending warp index at equal cycles is already a valid heap.)
        self._due = [(cycle, w) for w in range(warps)]
        self._issuable = set()
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
        The stage only visits warps with a due event (phase boundary,
        compute-phase end, reply unblock) plus the issuable set; warps
        deep in a compute phase or blocked on replies cost nothing.  The
        visit order — due warps by (cycle, index), issuable warps in
        round-robin order from ``_issue_rotation`` — matches the previous
        all-warp scan exactly, so issue sequences are bit-identical.
        """
        if self.instance is None:
            return 0
        if self._local_replies:
            self._deliver_local_replies(cycle)
        if not self._dirty and cycle < self._next_wake:
            return 0
        self._dirty = False
        due = self._due
        if due and due[0][0] <= cycle:
            self._advance_due_warps(cycle)
        issued = 0  # requests injected into the NoC (returned to caller)
        slots = 0  # issue slots consumed, including L1-hit loads
        issuable = self._issuable
        if issuable:
            num_warps = len(self.warps)
            base = self._issue_rotation
            # Round-robin over the issuable warps only: ascending index,
            # split circularly at the rotation point.  Non-issuable warps
            # were skipped by the old scan, so the candidate order is
            # unchanged.
            order = sorted(issuable)
            if base:
                split = bisect_left(order, base)
                order = order[split:] + order[:split]
            warps = self.warps
            width = self.issue_width
            l1 = self.l1
            lanes = self.output.lanes
            for warp_index in order:
                if slots >= width:
                    break
                warp = warps[warp_index]
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
                request.warp = warp_index
                if l1_hit:
                    # Satisfied locally after the L1 hit latency; no NoC trip.
                    self.outstanding_loads += 1
                    if warp.wait_for_replies:
                        warp.waiting_replies += 1
                    heapq.heappush(
                        self._local_replies,
                        (cycle + self.l1_latency, next(self._local_seq), request),
                    )
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
                self._issue_rotation = (warp_index + 1) % num_warps
                if not warp.pending:
                    issuable.remove(warp_index)
                    if not (warp.wait_for_replies and warp.waiting_replies > 0):
                        # Phase complete and not blocked: advance the next
                        # phase once the compute window (or next step) comes.
                        heapq.heappush(
                            due,
                            (warp.compute_until if warp.compute_until > cycle else cycle + 1, warp_index),
                        )
        if slots or issuable:
            # Actively issuing, or an issuable warp is blocked on buffer
            # space / the outstanding-load limit — retry next cycle.
            self._next_wake = cycle + 1
        else:
            # All warps are computing, waiting on replies, or done: sleep
            # until the next due event; a reply that re-arms a warp (via
            # receive_reply) marks the SM dirty.
            self._next_wake = due[0][0] if due else NEVER
        return issued

    def _advance_due_warps(self, cycle: int) -> None:
        """Process due events: phase advances and issuable transitions.

        Each popped entry re-checks the warp, so stale duplicates are
        no-ops.  At most one phase is advanced per warp per step (the
        refreshed due entry is at ``cycle + 1`` or later), matching the
        previous per-step scan.
        """
        due = self._due
        warps = self.warps
        while due and due[0][0] <= cycle:
            _, warp_index = heapq.heappop(due)
            warp = warps[warp_index]
            if warp.done:
                continue
            if warp.pending:
                if cycle >= warp.compute_until:
                    self._issuable.add(warp_index)
                else:
                    heapq.heappush(due, (warp.compute_until, warp_index))
                continue
            if warp.blocked_on_replies():
                continue  # receive_reply re-arms the warp
            if cycle < warp.compute_until:
                heapq.heappush(due, (warp.compute_until, warp_index))
                continue
            phase = next(warp.program, None)
            if phase is None:
                warp.done = True
                self._live_warps -= 1
                continue
            self._load_phase(warp, phase, cycle)
            if warp.pending:
                if cycle >= warp.compute_until:
                    self._issuable.add(warp_index)
                else:
                    heapq.heappush(due, (warp.compute_until, warp_index))
            else:
                # Pure-compute phase: advance again when it ends (at the
                # earliest next step, preserving one-phase-per-step).
                heapq.heappush(
                    due,
                    (warp.compute_until if warp.compute_until > cycle else cycle + 1, warp_index),
                )

    @staticmethod
    def _load_phase(warp: WarpState, phase: Phase, cycle: int) -> None:
        warp.compute_until = cycle + phase.compute_cycles
        warp.wait_for_replies = phase.wait_for_replies
        warp.pending.extend(phase.requests)

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
        # delivered before this cycle's SM stage runs, so an entry at
        # ``cycle`` advances the warp this very step — exactly when the
        # old all-warp scan would have.
        heapq.heappush(
            self._due,
            (warp.compute_until if warp.compute_until > cycle else cycle, request.warp),
        )
        self._dirty = True
        return True

    def next_event_cycle(self) -> int:
        """Wake-heap contract: earliest cycle a future ``step`` could act.

        Valid when the SM is clean (``_dirty`` False): the in-step wake gate
        skips every cycle before ``_next_wake``, and pending L1-hit replies
        (delivered ahead of that gate) are the only earlier self-events.
        """
        wake = self._next_wake
        local = self._local_replies
        if local and local[0][0] < wake:
            return local[0][0]
        return wake
