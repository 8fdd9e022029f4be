"""First-Ready Round-Robin FCFS (FR-RR-FCFS) [31].

FR-FCFS modified for fairness: the controller cycles through modes on
row-buffer conflicts.  Priority order: (1) row-buffer hit first, (2) next
mode in round-robin order first, (3) oldest first within the current mode.

The conflict trigger mirrors FR-FCFS's per-bank mechanism (Section III-D):
a bank whose best pending request is a row conflict sets its conflict bit
and stalls; when every bank with pending requests has stalled — i.e. no
row hits remain anywhere — the controller rotates to the other mode.  The
difference from FR-FCFS is what the trigger checks and where the switch
goes: FR-FCFS only stalls banks when the *globally oldest* request belongs
to the other mode (so it can stay in one mode indefinitely while that mode
keeps the oldest request), whereas FR-RR-FCFS rotates modes regardless of
age, guaranteeing both request types regular service.

In PIM mode the analogous conflict is a block boundary (the next PIM
request needs a row change), at which point the controller rotates back
to MEM if MEM traffic is waiting.
"""

from __future__ import annotations

from repro.core.policies.base import IDLE, ISSUE_PIM, Decision, SchedulingPolicy
from repro.request import Mode


class FRRRFCFS(SchedulingPolicy):
    name = "FR-RR-FCFS"

    def __init__(self) -> None:
        # Rotation only triggers after at least one request was serviced in
        # the current mode; otherwise two conflict triggers (one per mode)
        # would ping-pong the controller without ever issuing anything.
        self._served_since_switch = True

    def on_switch(self, new_mode, cycle):
        self._served_since_switch = False

    def on_issue(self, request, cycle):
        self._served_since_switch = True

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
        if ctl.pim_queue and self._served_since_switch:
            if self.stall_conflict_banks(ctl):
                return Decision.switch(Mode.PIM)
        else:
            ctl.clear_conflict_bits()
        pick = self.frfcfs_pick(ctl, cycle, exclude_conflict_banks=True)
        return Decision.mem(pick) if pick is not None else IDLE

    # -- PIM mode -----------------------------------------------------------

    def _decide_pim(self, ctl, cycle):
        if not ctl.pim_queue:
            return IDLE
        head = ctl.pim_queue[0]
        if ctl.pim_exec.would_switch_row(head) and ctl.mem_queue and self._served_since_switch:
            return Decision.switch(Mode.MEM)
        return ISSUE_PIM if ctl.pim_ready(cycle) else IDLE

    def may_switch_from_pim(self, ctl, cycle):
        # A block boundary rotates once this mode has been served.
        if not ctl.mem_queue:
            return False
        if not ctl.pim_queue:
            return True
        return self._served_since_switch and ctl.pim_exec.would_switch_row(ctl.pim_queue[0])
