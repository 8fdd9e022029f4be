"""MEM-First and PIM-First static-priority policies.

MEM-First always services MEM requests when any are present (policy used by
Chopim [13]); PIM-First is its mirror.  Both can starve the deprioritized
request type under saturation (Section VI-A).  FR-FCFS order is used within
MEM mode; PIM executes FCFS.
"""

from __future__ import annotations

from repro.core.policies.base import IDLE, ISSUE_PIM, Decision, SchedulingPolicy
from repro.request import Mode


class _StaticFirst(SchedulingPolicy):
    """Shared machinery; ``preferred`` names the favored mode."""

    preferred = Mode.MEM

    def decide(self, ctl, cycle):
        preferred_queue = ctl.mem_queue if self.preferred is Mode.MEM else ctl.pim_queue
        other_queue = ctl.pim_queue if self.preferred is Mode.MEM else ctl.mem_queue

        if preferred_queue:
            wanted = self.preferred
        elif other_queue:
            wanted = self.preferred.other
        else:
            return IDLE

        if wanted is not ctl.mode:
            return Decision.switch(wanted)
        if wanted is Mode.PIM:
            return ISSUE_PIM if ctl.pim_ready(cycle) else IDLE
        pick = self.frfcfs_pick(ctl, cycle)
        return Decision.mem(pick) if pick is not None else IDLE


class MEMFirst(_StaticFirst):
    name = "MEM-First"
    preferred = Mode.MEM


class PIMFirst(_StaticFirst):
    name = "PIM-First"
    preferred = Mode.PIM

    def may_switch_from_pim(self, ctl, cycle):
        # PIM mode is left only once the PIM queue runs dry.
        return not ctl.pim_queue and bool(ctl.mem_queue)
