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
            if self.stall_conflict_banks(ctl):
                return Decision.switch(Mode.PIM)
        else:
            ctl.clear_conflict_bits()

        # Stalled banks are excluded; conflicts from banks that have not
        # issued since the switch are allowed their one activation.
        pick = self.frfcfs_pick(ctl, cycle, exclude_conflict_banks=True)
        return Decision.mem(pick) if pick is not None else IDLE

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
        mem_queue = ctl.mem_queue
        if not mem_queue or not ctl.pim_queue:
            return bool(mem_queue)
        head = ctl.pim_queue[0]
        return mem_queue[0].mc_seq < head.mc_seq and ctl.pim_exec.would_switch_row(head)
