"""First Mode-FR-FCFS (F3FS) — the paper's proposed policy (Section VII).

F3FS adds an arbitration stage in front of FR-FCFS that favors requests in
the *current* mode, implementing the priority order:

1. current mode first,
2. row-buffer hit first,
3. oldest first.

Within MEM mode requests are serviced FR-FCFS; PIM requests always execute
FCFS.  Favoring the current mode maximizes locality and minimizes mode
switches (throughput); to prevent starvation, F3FS caps the number of
requests serviced in the current mode that *bypass* an older request of the
other mode.  Age is the per-controller arrival sequence number
(``Request.mc_seq``).

Two independent CAPs — one per mode — allow asymmetric configurations:
equal CAPs promote fairness in competitive co-execution (paper default
256/256), while asymmetric CAPs (e.g. MEM/PIM = 256/128 under VC1) lower
collaborative execution time by prioritizing the slower kernel.

The ``current_mode_first`` flag exists for the Figure 14a ablation: with it
disabled, F3FS degenerates to FR-FCFS ordering across modes while keeping
the request-count CAP (the paper's intermediate design point).
"""

from __future__ import annotations

from typing import Optional

from repro.core.policies.base import IDLE, ISSUE_PIM, Decision, SchedulingPolicy
from repro.obs.events import CAP_BYPASS
from repro.request import Mode, Request

#: The paper's choice for competitive runs (Sections III-D, VII-B); the
#: figures run with it (the collaborative CAPs are set per VC config).
DEFAULT_CAP = 256


class F3FS(SchedulingPolicy):
    name = "F3FS"

    def __init__(
        self,
        mem_cap: int = DEFAULT_CAP,
        pim_cap: int = DEFAULT_CAP,
        current_mode_first: bool = True,
    ) -> None:
        if mem_cap < 1:
            raise ValueError(f"F3FS mem_cap must be >= 1 (got {mem_cap!r})")
        if pim_cap < 1:
            raise ValueError(f"F3FS pim_cap must be >= 1 (got {pim_cap!r})")
        self.caps = {Mode.MEM: mem_cap, Mode.PIM: pim_cap}
        self.current_mode_first = current_mode_first
        self._bypasses = 0

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _other_oldest(ctl) -> Optional[Request]:
        if ctl.mode is Mode.MEM:
            return ctl.pim_queue[0] if ctl.pim_queue else None
        return ctl.mem_queue[0] if ctl.mem_queue else None

    def _cap_reached(self, ctl) -> bool:
        return self._bypasses >= self.caps[ctl.mode]

    # -- decision -----------------------------------------------------------

    def decide(self, ctl, cycle):
        fallback = self.fallback_when_empty(ctl)
        if fallback is not None:
            return fallback
        if self._other_oldest(ctl) is not None and self._cap_reached(ctl):
            return Decision.switch(ctl.mode.other)
        if self.current_mode_first:
            return self._decide_current_mode(ctl, cycle)
        return self._decide_frfcfs_order(ctl, cycle)

    def _decide_current_mode(self, ctl, cycle):
        if ctl.mode is Mode.MEM:
            if not ctl.mem_queue:
                return IDLE
            pick = self.frfcfs_pick(ctl, cycle)
            return Decision.mem(pick) if pick is not None else IDLE
        if not ctl.pim_queue:
            return IDLE
        return ISSUE_PIM if ctl.pim_ready(cycle) else IDLE

    def _decide_frfcfs_order(self, ctl, cycle):
        """Ablation stage: hit-first/oldest-first across modes, CAP kept.

        The minimum of (not-hit, age) over the issuable MEM requests is
        the FR-FCFS pick: the first issuable row hit, else the oldest.
        """
        best: Optional[Request] = self.frfcfs_pick(ctl, cycle)
        best_key = None
        if best is not None:
            best_key = (ctl.channel.banks[best.bank].state.open_row != best.row, best.mc_seq)
        if ctl.pim_queue:
            head = ctl.pim_queue[0]
            key = (ctl.pim_exec.would_switch_row(head), head.mc_seq)
            if best_key is None or key < best_key:
                best, best_key = head, key
        if best is None:
            return IDLE
        if best.mode is not ctl.mode:
            return Decision.switch(best.mode)
        if best.mode is Mode.PIM:
            return ISSUE_PIM if ctl.pim_ready(cycle) else IDLE
        return Decision.mem(best)

    def may_switch_from_pim(self, ctl, cycle):
        # PIM mode is left by the fallback or a reached PIM cap; the
        # ablation order lets any MEM request win.
        leave = not ctl.pim_queue or self._bypasses >= self.caps[Mode.PIM]
        return bool(ctl.mem_queue) and (leave or not self.current_mode_first)

    # -- hooks -------------------------------------------------------------

    def on_issue(self, request, cycle):
        other = self._other_oldest(self.controller)
        if other is not None and other.mc_seq < request.mc_seq:
            self._bypasses += 1
            self.emit_event(
                cycle,
                CAP_BYPASS,
                mode=request.mode.value,
                bypasses=self._bypasses,
                cap=self.caps[request.mode],
            )

    def on_switch(self, new_mode, cycle):
        self._bypasses = 0
