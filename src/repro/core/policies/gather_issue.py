"""Gather & Issue (G&I) [41].

Occupancy-watermark policy for PIM mode transitions: the controller stays
in MEM mode until the PIM queue reaches the *high* watermark (paper: 56 of
64 entries), then switches to PIM and drains until occupancy falls below
the *low* watermark (paper: 32).  MEM requests execute under FR-FCFS.

The paper finds that PIM kernels' injection rate keeps the PIM queue above
the watermark almost continuously, making G&I strongly PIM-biased
(Section VI-A) — a behaviour this implementation reproduces.
"""

from __future__ import annotations

from repro.core.policies.base import IDLE, ISSUE_PIM, Decision, SchedulingPolicy
from repro.request import Mode

#: The paper's choices (Sections III-D, VII-B); the figures run with them.
DEFAULT_HIGH_WATERMARK = 56
DEFAULT_LOW_WATERMARK = 32


class GatherIssue(SchedulingPolicy):
    name = "G&I"

    def __init__(
        self,
        high_watermark: int = DEFAULT_HIGH_WATERMARK,
        low_watermark: int = DEFAULT_LOW_WATERMARK,
    ) -> None:
        if not 0 <= low_watermark < high_watermark:
            raise ValueError("need 0 <= low_watermark < high_watermark")
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark

    def decide(self, ctl, cycle):
        occupancy = len(ctl.pim_queue)
        if ctl.mode is Mode.MEM:
            if occupancy >= self.high_watermark:
                return Decision.switch(Mode.PIM)
            if ctl.mem_queue:
                pick = self.frfcfs_pick(ctl, cycle)
                return Decision.mem(pick) if pick is not None else IDLE
            if ctl.pim_queue:
                # Liveness: MEM queue is empty, do not idle the DRAM.
                return Decision.switch(Mode.PIM)
            return IDLE
        # PIM mode: drain until the low watermark (or the queue empties).
        if occupancy == 0 or (occupancy <= self.low_watermark and ctl.mem_queue):
            if ctl.mem_queue:
                return Decision.switch(Mode.MEM)
            if occupancy == 0:
                return IDLE
        return ISSUE_PIM if ctl.pim_ready(cycle) else IDLE

    def may_switch_from_pim(self, ctl, cycle):
        return bool(ctl.mem_queue) and len(ctl.pim_queue) <= self.low_watermark
