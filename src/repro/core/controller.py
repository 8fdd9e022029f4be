"""PIM-aware memory controller (Figure 1, right-hand side).

One controller per channel.  It maintains separate MEM and PIM queues
(Table I: 64 entries each), runs a pluggable scheduling policy, and
implements the MEM/PIM *mode switch* mechanics the paper analyses
(Section VI):

* **MEM → PIM**: all in-flight MEM requests must drain before the first
  PIM request issues.  Banks that finish early sit idle (Figure 9); the
  controller records the drain latency and the idle bank-cycles of every
  such switch.
* **PIM → MEM**: the lock-step PIM executor finishes its current op; PIM
  leaves every bank's row buffer pointing at PIM rows, so MEM requests
  that would have hit their pre-switch rows now conflict — the controller
  attributes those as *additional conflicts per switch* (Figure 10b).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.core.memq import BankIndexedMemQueue
from repro.core.policies.base import NEVER, SchedulingPolicy
from repro.dram.channel import Channel
from repro.dram.refresh import RefreshTimer
from repro.obs import events as obs_events
from repro.pim.executor import PIMExecutor
from repro.request import Mode, Request


@dataclass
class SwitchRecord:
    """Bookkeeping for one completed mode switch."""

    cycle_started: int
    cycle_completed: int
    direction: Mode  # the mode switched *to*
    drain_latency: int
    idle_bank_cycles: int


@dataclass
class ControllerStats:
    """Per-controller counters used by the paper's figures."""

    mem_arrivals: int = 0
    pim_arrivals: int = 0
    mem_issued: int = 0
    pim_issued: int = 0
    mem_rejected: int = 0  # enqueue attempts bounced off a full queue
    pim_rejected: int = 0
    switches: int = 0
    switches_to_pim: int = 0
    switch_records: List[SwitchRecord] = field(default_factory=list)
    additional_conflicts: int = 0  # post-switch conflicts on pre-switch rows
    mode_cycles: Dict[Mode, int] = field(default_factory=lambda: {Mode.MEM: 0, Mode.PIM: 0})
    # Arrival counts per kernel, for per-application arrival rates (Fig 6).
    kernel_mem_arrivals: Dict[int, int] = field(default_factory=dict)
    kernel_pim_arrivals: Dict[int, int] = field(default_factory=dict)

    @property
    def mem_drain_latencies(self) -> List[int]:
        return [
            record.drain_latency
            for record in self.switch_records
            if record.direction is Mode.PIM
        ]

    def conflicts_per_switch(self) -> float:
        if not self.switches_to_pim:
            return 0.0
        return self.additional_conflicts / self.switches_to_pim


class MemoryController:
    """Memory controller for one channel."""

    def __init__(
        self,
        channel: Channel,
        pim_exec: PIMExecutor,
        policy: SchedulingPolicy,
        mem_queue_size: int = 64,
        pim_queue_size: int = 64,
        refresh_enabled: bool = False,
    ) -> None:
        self.channel = channel
        self.pim_exec = pim_exec
        self.policy = policy
        self.mem_queue_size = mem_queue_size
        self.pim_queue_size = pim_queue_size
        timings = channel.timings
        self.refresh = RefreshTimer(
            timings.tREFI, timings.tRFC, enabled=refresh_enabled
        )
        self._refresh_until = 0

        # MEM requests live in a per-bank index (arrival order per bank and
        # per open row) so FR-FCFS-family decisions cost O(banks with work)
        # instead of O(queue).  It is list-compatible for read access:
        # truthiness, len(), [0], and arrival-order iteration.
        self.mem_queue = BankIndexedMemQueue(len(channel.banks))
        self.pim_queue: Deque[Request] = deque()
        self.mode: Mode = Mode.MEM
        self.stats = ControllerStats()

        # Mode-switch state machine.
        self._switch_target: Optional[Mode] = None
        self._switch_started = -1

        # Additional-conflict attribution: rows open before the last
        # MEM->PIM switch, consumed on the first MEM access per bank after
        # returning to MEM mode.
        self._pre_switch_rows: Dict[int, int] = {}

        # Arrival sequence numbers (the "age" used by oldest-first).
        self._next_seq = 0

        # The wake contract (docs/performance.md): after a tick, the
        # controller cannot act before ``_next_wake`` unless an enqueue
        # outside a switch drain marks it dirty (see _sleeps_on_pim);
        # completions do not.
        self._next_wake = 0
        self._dirty = True
        self._last_mode_cycle = 0

        # Optional repro.obs.telemetry.Telemetry, shared with the system;
        # None keeps every telemetry hook on its zero-cost path.
        self.telemetry = None

        policy.attach(self)

    # -- queue admission -----------------------------------------------------

    def can_accept(self, request: Request) -> bool:
        if request.is_pim:
            return len(self.pim_queue) < self.pim_queue_size
        return len(self.mem_queue) < self.mem_queue_size

    def enqueue(self, request: Request, cycle: int) -> bool:
        """Admit a request into the MEM or PIM queue; False if full."""
        if request.is_pim:
            if len(self.pim_queue) >= self.pim_queue_size:
                self.stats.pim_rejected += 1
                return False
            request.mc_seq = self._next_seq
            self._next_seq += 1
            request.cycle_mc_arrival = cycle
            self.pim_queue.append(request)
            self.stats.pim_arrivals += 1
            k = self.stats.kernel_pim_arrivals
            k[request.kernel_id] = k.get(request.kernel_id, 0) + 1
        else:
            if len(self.mem_queue) >= self.mem_queue_size:
                self.stats.mem_rejected += 1
                return False
            request.mc_seq = self._next_seq
            self._next_seq += 1
            request.cycle_mc_arrival = cycle
            self.mem_queue.append(request)
            self.stats.mem_arrivals += 1
            k = self.stats.kernel_mem_arrivals
            k[request.kernel_id] = k.get(request.kernel_id, 0) + 1
        if self.telemetry is not None:
            # Snapshot the other-mode cycle counter; the delta at issue time
            # is the mode-blocked share of this request's MC wait.
            request.mc_blocked_base = self.mode_cycles_upto(
                Mode.MEM if request.is_pim else Mode.PIM, cycle
            )
        if self._switch_target is None and not self._dirty and not self._sleeps_on_pim(cycle):
            # A switch drain waits only on in-flight work: an arrival cannot
            # end it sooner, and the decision after it sees the arrival.
            self._dirty = True
        return True

    def _sleeps_on_pim(self, cycle: int) -> bool:
        """Whether a sleeping PIM-mode controller stays asleep through an
        arrival: its wake comes no later than the executor frees or the
        epoch turns, and the policy still rules out a switch (see tick)."""
        wake = self._next_wake
        return (
            self.mode is Mode.PIM
            and cycle + 1 < wake <= self.pim_exec.busy_until
            and wake <= self.policy.next_epoch_cycle(cycle)
            and not self.policy.may_switch_from_pim(self, cycle)
        )

    # -- views used by policies ----------------------------------------------

    def oldest_overall(self) -> Optional[Request]:
        mem_head = self.mem_queue.head()
        pim_head = self.pim_queue[0] if self.pim_queue else None
        if mem_head is None:
            return pim_head
        if pim_head is None:
            return mem_head
        return mem_head if mem_head.mc_seq < pim_head.mc_seq else pim_head

    def pim_ready(self, cycle: int) -> bool:
        return bool(self.pim_queue) and self.pim_exec.can_issue(cycle)

    def clear_conflict_bits(self) -> None:
        for bank in self.channel.banks:
            bank.state.conflict_bit = False
            bank.state.issued_since_switch = False

    @property
    def is_switching(self) -> bool:
        return self._switch_target is not None

    # -- completions -----------------------------------------------------------

    def pop_completed(self, cycle: int) -> List[Request]:
        """Take the MEM operations that finished by ``cycle`` (a PIM op is
        complete as issued).

        Leaves the controller clean.  No policy reads in-flight work, and
        the two waits that do (a switch drain and a refresh waiting for
        quiet banks) sleep until ``_drain_complete_cycle()`` or the
        executor's ``busy_until``: the cycle the last operation lands.
        """
        return self.channel.pop_completed(cycle)

    # -- mode switch machinery ---------------------------------------------

    def _begin_switch(self, target: Mode, cycle: int) -> None:
        if target is self.mode:
            raise ValueError("switching to the current mode")
        self._switch_target = target
        self._switch_started = cycle
        if self.telemetry is not None:
            self.telemetry.emit(
                cycle,
                obs_events.MODE_SWITCH_BEGIN,
                channel=self.channel.index,
                to=target.value,
            )
        if target is Mode.PIM:
            # Remember where each bank's row buffer points so post-PIM MEM
            # conflicts on those rows can be attributed to the switch.
            self._pre_switch_rows = {
                bank.index: bank.open_row
                for bank in self.channel.banks
                if bank.open_row is not None
            }

    def _drain_done(self, cycle: int) -> bool:
        if self._switch_target is Mode.PIM:
            return self.channel.mem_in_flight() == 0
        return self.pim_exec.can_issue(cycle)

    def _drain_complete_cycle(self) -> int:
        if self._switch_target is Mode.PIM:
            return self.channel.drain_complete_cycle()
        return self.pim_exec.busy_until

    def _finish_switch(self, cycle: int) -> None:
        target = self._switch_target
        drain_latency = cycle - self._switch_started
        idle_bank_cycles = 0
        if target is Mode.PIM:
            # Banks that finished before the drain completed sat idle.
            for bank in self.channel.banks:
                idle_bank_cycles += max(0, cycle - max(bank.state.busy_until, self._switch_started))
        self.stats.switch_records.append(
            SwitchRecord(
                cycle_started=self._switch_started,
                cycle_completed=cycle,
                direction=target,
                drain_latency=drain_latency,
                idle_bank_cycles=idle_bank_cycles,
            )
        )
        self.stats.switches += 1
        if target is Mode.PIM:
            self.stats.switches_to_pim += 1
        else:
            # Entering MEM mode: make PIM occupancy visible to the banks.
            self.pim_exec.sync_banks()
        self._account_mode_cycles(cycle)
        self.mode = target
        self._switch_target = None
        self.clear_conflict_bits()
        if self.telemetry is not None:
            self.telemetry.emit(
                cycle,
                obs_events.MODE_SWITCH_END,
                channel=self.channel.index,
                mode=target.value,
                drain_latency=drain_latency,
                idle_bank_cycles=idle_bank_cycles,
            )
        self.policy.on_switch(target, cycle)

    def _account_mode_cycles(self, cycle: int) -> None:
        self.stats.mode_cycles[self.mode] += cycle - self._last_mode_cycle
        self._last_mode_cycle = cycle

    def mode_cycles_upto(self, mode: Mode, cycle: int) -> int:
        """Cycles spent in ``mode`` from the start of the run to ``cycle``.

        ``stats.mode_cycles`` is only settled at switch completion; this
        adds the in-progress residency (a switch drain counts toward the
        mode being left, matching ``_account_mode_cycles``).  The delta of
        two snapshots bounds the other-mode blocking a request saw while
        queued — the telemetry layer's ``mc_blocked`` hop.
        """
        total = self.stats.mode_cycles[mode]
        if self.mode is mode:
            total += cycle - self._last_mode_cycle
        return total

    def _attribute_post_switch_conflict(self, request: Request) -> None:
        """Count a conflict caused by the previous PIM phase (Figure 10b)."""
        expected = self._pre_switch_rows.pop(request.bank, None)
        if expected is None:
            return
        if request.row == expected and request.access_kind != "hit":
            self.stats.additional_conflicts += 1

    # -- main decision loop -----------------------------------------------

    # -- refresh handling ----------------------------------------------------

    def _handle_refresh(self, cycle: int) -> bool:
        """Returns True when the controller is blocked by refresh."""
        if cycle < self._refresh_until:
            self._next_wake = self._refresh_until
            return True
        if not self.refresh.enabled:
            return False
        must = self.refresh.must_refresh(cycle)
        opportunistic = (
            self.refresh.should_refresh(cycle)
            and not self.mem_queue
            and not self.pim_queue
        )
        if not (must or opportunistic):
            return False
        # REF needs every bank quiet, like a mode switch's drain.
        if self.channel.mem_in_flight() or not self.pim_exec.can_issue(cycle):
            self._next_wake = max(
                cycle + 1,
                self.channel.drain_complete_cycle(),
                self.pim_exec.busy_until,
            )
            return True
        self._refresh_until = self.refresh.perform(cycle)
        if self.telemetry is not None:
            self.telemetry.emit(
                cycle,
                obs_events.REFRESH,
                channel=self.channel.index,
                until=self._refresh_until,
            )
        for bank in self.channel.banks:
            state = bank.state
            state.open_row = None
            state.accept_at = max(state.accept_at, self._refresh_until)
            state.act_ready = max(state.act_ready, self._refresh_until)
            state.pre_ready = max(state.pre_ready, self._refresh_until)
            state.next_col = max(state.next_col, self._refresh_until)
        self.pim_exec.open_row = None
        self.pim_exec.busy_until = max(self.pim_exec.busy_until, self._refresh_until)
        self.pim_exec.next_col = max(self.pim_exec.next_col, self._refresh_until)
        self._next_wake = self._refresh_until
        return True

    def tick(self, cycle: int) -> Optional[Request]:
        """Run one decision cycle; returns the request it issued, stamped
        with its completion cycle, or None.  A PIM op is complete as
        issued: ops run one at a time in issue order, so
        ``pim_exec.busy_until`` is all a drain or a refresh waits on."""
        if not self._dirty and cycle < self._next_wake:
            return None
        self._dirty = False

        # _handle_refresh is a no-op without refresh enabled or a REF in
        # progress; skip the call on the (default) refresh-free hot path.
        if (self.refresh.enabled or cycle < self._refresh_until) and self._handle_refresh(cycle):
            return None

        if self._switch_target is not None:
            if self._drain_done(cycle):
                self._finish_switch(cycle)
            else:
                self._next_wake = max(cycle + 1, self._drain_complete_cycle())
                return None

        policy = self.policy
        decision = policy.decide(self, cycle)
        if decision.kind == "idle":
            if not self.mem_queue and not self.pim_queue:
                self._next_wake = self._empty_wake(cycle)
                return None
            # Sleep until the next event that can change the decision.
            # Enqueues mark the controller dirty (but see _sleeps_on_pim);
            # otherwise a decision changes only when a bank frees, the PIM
            # executor frees (PIM mode: MEM-mode decisions never read it),
            # refresh accrues an obligation, or the policy's epoch turns.
            # When every bank already accepts (None), the banks bound
            # nothing; a bank event lies after ``cycle``, so it is never 0.
            wake = self.channel.next_bank_event(cycle) or NEVER
            if self.mode is Mode.PIM:
                wake = min(wake, max(cycle + 1, self.pim_exec.busy_until))
            if self.refresh.enabled:
                wake = min(wake, self.refresh.next_due_cycle())
            self._next_wake = min(wake, policy.next_epoch_cycle(cycle))
            return None
        if decision.kind == "switch":
            self._begin_switch(decision.target, cycle)
            # Sleep until the drain completes: the last in-flight
            # operation's completion cycle.
            self._next_wake = max(cycle + 1, self._drain_complete_cycle())
            return None
        if decision.kind == "mem":
            request = decision.request
            if self.mode is not Mode.MEM:
                raise RuntimeError("policy issued MEM in PIM mode")
            self.mem_queue.remove(request)
            self.channel.issue_mem(request, cycle)
            self.channel.banks[request.bank].state.issued_since_switch = True
            self.pim_exec.note_mem_issue(request)
            self._attribute_post_switch_conflict(request)
            self.stats.mem_issued += 1
        else:  # "pim"
            if self.mode is not Mode.PIM:
                raise RuntimeError("policy issued PIM in MEM mode")
            request = self.pim_queue.popleft()
            self.pim_exec.issue(request, cycle)
            self.stats.pim_issued += 1
        if self.telemetry is not None and request.mc_blocked_base >= 0:
            request.mc_blocked_cycles = (
                self.mode_cycles_upto(
                    Mode.MEM if request.is_pim else Mode.PIM, cycle
                )
                - request.mc_blocked_base
            )
        policy.on_issue(request, cycle)
        if not self.mem_queue and not self.pim_queue:
            self._next_wake = self._empty_wake(cycle)
            return request
        if request.is_pim:
            # No decision issues before the executor frees; unless the
            # policy allows a switch they are all idle (bank frees and
            # refresh accruals change none), up to an epoch turning.
            wake = min(self.pim_exec.busy_until, policy.next_epoch_cycle(cycle))
            if wake > cycle + 1 and not policy.may_switch_from_pim(self, cycle):
                self._next_wake = wake
                return request
        self._next_wake = cycle + 1
        self._dirty = True
        return request

    def _empty_wake(self, cycle: int) -> int:
        """The wake of a controller left with both queues empty and no
        switch in progress.

        Every decision until a request arrives is idle, and an arrival
        marks the controller dirty, so only refresh can make it act:
        ``NEVER`` with refresh off, else the next cycle while a refresh is
        owed, or the cycle the next one accrues.
        """
        refresh = self.refresh
        if not refresh.enabled:
            return NEVER
        return cycle + 1 if refresh.backlog else refresh.next_due_cycle()

    def finalize(self, cycle: int) -> None:
        """Close out time-based accounting at the end of a simulation."""
        self._account_mode_cycles(cycle)
