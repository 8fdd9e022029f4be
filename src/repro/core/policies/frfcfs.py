"""First-Ready FCFS (FR-FCFS) [56] with PIM-aware mode switching.

Within the current mode, row-buffer hits are prioritized over the oldest
request.  Mode switching follows the paper's description (Section III-D,
policy 4): each bank maintains a *conflict bit* that is set when the bank's
next request is a row-buffer conflict while the globally oldest request
belongs to the other mode; the bank then stalls.  Once every bank with
pending requests has stalled, the controller switches modes.

In PIM mode the analogous trigger is a block boundary (the next PIM request
needs a row change) while the oldest request overall is a MEM request —
PIM executes lock-step on all banks, so one trigger covers all banks.
"""

from __future__ import annotations

from repro.core.policies.base import IDLE, ISSUE_PIM, Decision, SchedulingPolicy
from repro.request import Mode


class FRFCFS(SchedulingPolicy):
    name = "FR-FCFS"

    def decide(self, ctl, cycle):
        fallback = self.fallback_when_empty(ctl)
        if fallback is not None:
            return fallback
        if ctl.mode is Mode.MEM:
            return self._decide_mem(ctl, cycle)
        return self._decide_pim(ctl, cycle)

    # -- MEM mode ----------------------------------------------------------

    def _decide_mem(self, ctl, cycle):
        if not ctl.mem_queue:
            return IDLE
        oldest = ctl.oldest_overall()
        oldest_is_other = oldest is not None and oldest.mode is Mode.PIM

        if oldest_is_other:
            self._update_conflict_bits(ctl, cycle)
            if self._all_pending_banks_stalled(ctl):
                return Decision.switch(Mode.PIM)
        else:
            ctl.clear_conflict_bits()

        # Stalled banks are excluded; conflicts from banks that have not
        # issued since the switch are allowed their one activation.
        pick = self.frfcfs_pick(ctl, cycle, exclude_conflict_banks=True)
        return Decision.mem(pick) if pick is not None else IDLE

    def _update_conflict_bits(self, ctl, cycle) -> None:
        """Set the conflict bit on banks whose best request is a conflict.

        A bank has a pending row hit iff the per-bank index holds a live
        request for its open row — an O(1) lookup per bank, equivalent to
        scanning the bank's pending requests.
        """
        banks = ctl.channel.banks
        mem_queue = ctl.mem_queue
        for bank_index in mem_queue.banks_with_work():
            state = banks[bank_index].state
            if state.conflict_bit:
                continue
            if not state.issued_since_switch:
                continue  # the bank gets one activation per mode phase
            open_row = state.open_row
            if open_row is None:
                continue  # a miss, not a conflict
            if mem_queue.row_head(bank_index, open_row) is not None:
                continue  # a pending hit: the bank is not stalled
            state.conflict_bit = True

    @staticmethod
    def _all_pending_banks_stalled(ctl) -> bool:
        banks = ctl.channel.banks
        pending = False
        for bank_index in ctl.mem_queue.banks_with_work():
            pending = True
            if not banks[bank_index].state.conflict_bit:
                return False
        return pending

    # -- PIM mode -----------------------------------------------------------

    def _decide_pim(self, ctl, cycle):
        if not ctl.pim_queue:
            return IDLE
        head = ctl.pim_queue[0]
        oldest = ctl.oldest_overall()
        if (
            oldest is not None
            and oldest.mode is Mode.MEM
            and ctl.pim_exec.would_switch_row(head)
        ):
            return Decision.switch(Mode.MEM)
        return ISSUE_PIM if ctl.pim_ready(cycle) else IDLE

    def may_switch_from_pim(self, ctl, cycle):
        # _decide_pim's trigger (or the empty-queue fallback).
        mem_head = ctl.mem_queue.head()
        if mem_head is None or not ctl.pim_queue:
            return mem_head is not None
        head = ctl.pim_queue[0]
        return mem_head.mc_seq < head.mc_seq and ctl.pim_exec.would_switch_row(head)
