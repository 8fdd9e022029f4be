"""First-Come First-Served.

Requests are serviced strictly in arrival order; the controller switches
modes whenever the oldest outstanding request is of the other type.  No
row-buffer-locality or bank-parallelism awareness (Section III-D policy 1).
"""

from __future__ import annotations

from repro.core.policies.base import IDLE, ISSUE_PIM, Decision, SchedulingPolicy
from repro.request import Mode


class FCFS(SchedulingPolicy):
    name = "FCFS"

    def decide(self, ctl, cycle):
        oldest = ctl.oldest_overall()
        if oldest is None:
            return IDLE
        wanted = oldest.mode
        if wanted is not ctl.mode:
            return Decision.switch(wanted)
        if wanted is Mode.PIM:
            return ISSUE_PIM if ctl.pim_ready(cycle) else IDLE
        # Strict order within MEM mode too: only the oldest MEM request may
        # issue; wait for its bank if it cannot accept yet.
        if ctl.channel.bank_can_accept(oldest.bank, cycle):
            return Decision.mem(oldest)
        return IDLE

    def may_switch_from_pim(self, ctl, cycle):
        # Only an older MEM request takes the controller out of PIM mode.
        mem_queue = ctl.mem_queue
        return bool(mem_queue) and (
            not ctl.pim_queue or mem_queue[0].mc_seq < ctl.pim_queue[0].mc_seq
        )
