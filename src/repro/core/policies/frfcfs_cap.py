"""FR-FCFS-Cap [46]: FR-FCFS with a cap on row-hit bypasses.

A counter tracks how many row-buffer hits have been serviced while the
globally oldest request remains outstanding.  Once the counter reaches the
CAP (paper: 32, set empirically), row hits lose their priority and the
oldest request is serviced next — switching modes if it belongs to the
other mode.  This bounds the starvation FR-FCFS can inflict on low-locality
applications, at the cost of more frequent switches (Figure 10a).
"""

from __future__ import annotations

from repro.core.policies.base import IDLE, ISSUE_PIM, Decision, SchedulingPolicy
from repro.request import Mode

#: The paper's choice (Sections III-D, VII-B); the figures run with it.
DEFAULT_CAP = 32


class FRFCFSCap(SchedulingPolicy):
    name = "FR-FCFS-Cap"

    def __init__(self, cap: int = DEFAULT_CAP) -> None:
        if cap < 1:
            raise ValueError(f"FR-FCFS-Cap cap must be >= 1 (got {cap!r})")
        self.cap = cap
        self._bypasses = 0
        self._oldest_seq = -1

    def _note_oldest(self, oldest) -> None:
        seq = oldest.mc_seq if oldest is not None else -1
        if seq != self._oldest_seq:
            self._oldest_seq = seq
            self._bypasses = 0

    def decide(self, ctl, cycle):
        fallback = self.fallback_when_empty(ctl)
        if fallback is not None:
            return fallback
        oldest = ctl.oldest_overall()
        self._note_oldest(oldest)
        if oldest is None:
            return IDLE

        cap_hit = self._bypasses >= self.cap
        if cap_hit:
            # Serve the oldest request next, wherever it lives.
            if oldest.mode is not ctl.mode:
                return Decision.switch(oldest.mode)
            if oldest.mode is Mode.PIM:
                return ISSUE_PIM if ctl.pim_ready(cycle) else IDLE
            if ctl.channel.bank_can_accept(oldest.bank, cycle):
                return Decision.mem(oldest)
            return IDLE

        if ctl.mode is Mode.MEM:
            if not ctl.mem_queue:
                return IDLE
            pick = self.frfcfs_pick(ctl, cycle)
            return Decision.mem(pick) if pick is not None else IDLE
        if not ctl.pim_queue:
            return IDLE
        return ISSUE_PIM if ctl.pim_ready(cycle) else IDLE

    def may_switch_from_pim(self, ctl, cycle):
        # Only a reached cap switches, toward an older MEM request; decide()
        # restarts the count when the oldest request changed.
        mem_queue = ctl.mem_queue
        if not mem_queue or not ctl.pim_queue:
            return bool(mem_queue)
        seq = mem_queue[0].mc_seq
        cap_hit = seq == self._oldest_seq and self._bypasses >= self.cap
        return seq < ctl.pim_queue[0].mc_seq and cap_hit

    def on_issue(self, request, cycle):
        if request.mc_seq == self._oldest_seq:
            self._bypasses = 0
            self._oldest_seq = -1
        elif request.access_kind == "hit" or request.is_pim:
            # Row hits bypassing the oldest request are what the CAP limits;
            # lock-step PIM ops count as hits within their block.
            self._bypasses += 1
