"""All-bank lock-step PIM execution within one channel.

In PIM mode a single PIM request executes on *all* banks simultaneously
(Section II-A): the same row index is activated in every bank and the op is
applied at the request's column in each bank.  Requests execute strictly in
FCFS order (correctness of the block structure); a row change between
consecutive ops costs a precharge + activate on every bank.

The executor shares the channel's :class:`~repro.dram.bank.Bank` objects so
that a PIM phase leaves the banks' row buffers pointing at PIM rows —
that is exactly the locality loss MEM requests observe after a mode switch
(Figure 9).  For speed, per-bank state is only touched on row switches;
per-op bookkeeping is O(1) at the executor level (PIM occupies all banks,
so one busy interval covers the whole channel).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, List, Optional, Tuple

from repro.pim.fu import FunctionalUnit

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.dram.channel import Channel
    from repro.dram.storage import DataStore
    from repro.request import Request


@dataclass
class PIMStats:
    ops_executed: int = 0
    rf_only_ops: int = 0  # register-file-only ops (no DRAM column access)
    row_switches: int = 0
    busy_cycles: int = 0

    @property
    def dram_ops(self) -> int:
        return self.ops_executed - self.rf_only_ops


class PIMExecutor:
    """Lock-step PIM engine for one channel."""

    def __init__(
        self,
        channel: "Channel",
        fus_per_channel: int,
        rf_entries_per_bank: int,
        store: Optional["DataStore"] = None,
        functional: bool = False,
    ) -> None:
        num_banks = channel.num_banks
        if num_banks % fus_per_channel:
            raise ValueError("banks must divide evenly among FUs")
        self.channel = channel
        self.store = store
        self.functional = functional and store is not None
        banks_per_fu = num_banks // fus_per_channel
        self.fus: List[FunctionalUnit] = []
        for i in range(fus_per_channel):
            banks = list(range(i * banks_per_fu, (i + 1) * banks_per_fu))
            self.fus.append(FunctionalUnit(i, banks, rf_entries_per_bank))
        self._fu_of_bank = {}
        for fu in self.fus:
            for bank in fu.banks:
                self._fu_of_bank[bank] = fu

        self.open_row: Optional[int] = None  # row open for PIM on all banks
        # True only when every bank's row buffer is known to point at
        # ``open_row`` (set after a lock-step row switch, cleared when a MEM
        # issue moves a bank elsewhere).  Lets ``would_switch_row`` skip the
        # per-bank scan on the hot PIM-mode decision path; False merely
        # means "scan to find out", so the flag is always safe.
        self._rows_uniform = True
        self.busy_until = 0
        self.next_col = 0
        self.stats = PIMStats()
        # Ops execute lock-step FCFS, so completion cycles are appended in
        # non-decreasing order: completion pops are always a prefix.
        self._in_flight: Deque[Tuple[int, "Request"]] = deque()
        # Merged channel-wide busy intervals (each counts all banks busy).
        self.busy_intervals: List[Tuple[int, int]] = []

    # -- queries -----------------------------------------------------------

    def can_issue(self, cycle: int) -> bool:
        """PIM issues one op at a time, lock-step across banks."""
        return cycle >= self.busy_until

    def would_switch_row(self, request: "Request") -> bool:
        """Whether this request needs a row change (block boundary)."""
        if self.open_row != request.row:
            return True
        if self._rows_uniform:
            return False
        # A MEM phase may have moved some bank off the PIM row.
        row = request.row
        for bank in self.channel.banks:
            if bank.state.open_row != row:
                return True
        self._rows_uniform = True  # scan proved the banks are aligned again
        return False

    def note_mem_issue(self, request: "Request") -> None:
        """Record that a MEM issue may have moved a bank off the PIM row.

        Called by the controller on every MEM issue; a MEM access leaves
        its bank's row buffer on its own row, so uniformity only survives
        accesses to the PIM row itself.
        """
        if self._rows_uniform and request.row != self.open_row:
            self._rows_uniform = False

    def invalidate_row_cache(self) -> None:
        """Force the next ``would_switch_row`` to re-scan the banks.

        For callers that mutate ``bank.state.open_row`` directly (tests,
        hand-built scenarios) instead of going through the channel/executor.
        """
        self._rows_uniform = False

    def in_flight(self) -> int:
        return len(self._in_flight)

    def next_completion_cycle(self) -> Optional[int]:
        """Completion cycle of the earliest in-flight PIM op.

        Ops execute lock-step FCFS, so ``_in_flight`` is ordered by
        completion and the head is the next event.
        """
        return self._in_flight[0][0] if self._in_flight else None

    def drain_complete_cycle(self) -> int:
        return self.busy_until

    # -- execution -----------------------------------------------------------

    def issue(self, request: "Request", cycle: int) -> int:
        """Execute one PIM request on all banks; returns completion cycle."""
        if cycle < self.busy_until:
            raise RuntimeError(f"PIM executor busy until {self.busy_until}")
        op = request.pim_op
        timings = self.channel.timings

        if op.kind.accesses_dram:
            if self.would_switch_row(request):
                start = self._switch_row(request.row, cycle, timings)
            else:
                start = cycle if cycle > self.next_col else self.next_col
            duration = timings.tCCDl
        else:
            start = cycle if cycle > self.next_col else self.next_col
            duration = 1
            self.stats.rf_only_ops += 1

        end = start + duration
        self.next_col = end
        self.busy_until = end
        self.stats.ops_executed += 1
        self.stats.busy_cycles += end - cycle
        self._note_busy(start, end)

        if self.functional:
            self._execute_functional(request)

        request.cycle_issued = cycle
        self._in_flight.append((end, request))
        return end

    def _switch_row(self, row: int, cycle: int, timings) -> int:
        """Precharge + activate all banks onto the new PIM row."""
        self.stats.row_switches += 1
        banks = self.channel.banks
        open_banks = [bank for bank in banks if bank.state.open_row is not None]
        if open_banks:
            pre = max(cycle, max(bank.state.pre_ready for bank in open_banks))
            act = pre + timings.tRP
        else:
            act = max(cycle, max(bank.state.act_ready for bank in banks))
        start = act + timings.tRCD
        self.open_row = row
        self._rows_uniform = True
        for bank in banks:
            state = bank.state
            state.open_row = row
            pre_ready = act + timings.tRAS
            if pre_ready > state.pre_ready:
                state.pre_ready = pre_ready
            act_ready = state.pre_ready + timings.tRP
            if act_ready > state.act_ready:
                state.act_ready = act_ready
        return start

    def _note_busy(self, start: int, end: int) -> None:
        intervals = self.busy_intervals
        if intervals and start <= intervals[-1][1]:
            if end > intervals[-1][1]:
                intervals[-1] = (intervals[-1][0], end)
        else:
            intervals.append((start, end))

    def sync_banks(self) -> None:
        """Propagate PIM occupancy into the banks' rails.

        Called when the controller switches back to MEM mode: the first
        MEM commands must not be scheduled before the PIM phase's last op
        finished.  (During PIM mode no MEM issues happen, so per-op bank
        updates would be wasted work.)
        """
        end = self.busy_until
        for bank in self.channel.banks:
            state = bank.state
            if end > state.busy_until:
                state.busy_until = end
            if end > state.accept_at:
                state.accept_at = end
            if end > state.next_col:
                state.next_col = end

    def _execute_functional(self, request: "Request") -> None:
        """Apply the op's semantics on every bank at the request's column."""
        op = request.pim_op
        channel_index = self.channel.index
        for bank_index in range(self.channel.num_banks):
            fu = self._fu_of_bank[bank_index]
            dram_value = None
            if op.kind.accesses_dram:
                dram_value = self.store.read(channel_index, bank_index, request.row, request.column)
            result = fu.execute(bank_index, op, dram_value)
            if result is not None:
                self.store.write(channel_index, bank_index, request.row, request.column, result)

    def pop_completed(self, cycle: int) -> List["Request"]:
        flight = self._in_flight
        if not flight or flight[0][0] > cycle:
            return []
        done: List["Request"] = []
        while flight and flight[0][0] <= cycle:
            end, req = flight.popleft()
            req.cycle_completed = end
            done.append(req)
        return done

    def reset(self) -> None:
        for fu in self.fus:
            fu.reset()
        self.open_row = None
        self._rows_uniform = True
        self.busy_until = 0
        self.next_col = 0
        self.stats = PIMStats()
        self._in_flight.clear()
        self.busy_intervals.clear()
