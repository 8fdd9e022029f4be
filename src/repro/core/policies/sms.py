"""SMS-style staged memory scheduler (Ausavarungnirun et al. [8]), adapted.

SMS decouples scheduling into batch *formation* (consecutive same-source
requests are grouped into batches) and batch *scheduling* (a simple
arbiter picks which source's batch to service next).  The paper's related
work argues SMS is unsuitable for host/PIM co-scheduling because CPU/GPU
batches can be serviced in parallel on different banks while MEM/PIM
batches are mutually exclusive — every batch boundary is a full mode
switch.  This implementation exists to demonstrate exactly that.

Adaptation to the MEM/PIM setting: batches are per mode, at most
``batch_size`` requests each; the batch scheduler alternates between modes
whenever the other mode has traffic (round-robin at batch granularity).
Within a MEM batch requests are serviced in FR-FCFS order (via
``frfcfs_pick``); PIM batches are FCFS as always.
"""

from __future__ import annotations

from repro.core.policies.base import IDLE, ISSUE_PIM, Decision, SchedulingPolicy
from repro.request import Mode

DEFAULT_BATCH_SIZE = 32


class SMS(SchedulingPolicy):
    name = "SMS"

    def __init__(self, batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        if batch_size < 1:
            raise ValueError(f"SMS batch_size must be >= 1 (got {batch_size!r})")
        self.batch_size = batch_size
        self._served_in_batch = 0

    def on_switch(self, new_mode, cycle):
        self._served_in_batch = 0

    def on_issue(self, request, cycle):
        self._served_in_batch += 1

    def may_switch_from_pim(self, ctl, cycle):
        full = self._served_in_batch >= self.batch_size
        return bool(ctl.mem_queue) and (not ctl.pim_queue or full)

    def decide(self, ctl, cycle):
        fallback = self.fallback_when_empty(ctl)
        if fallback is not None:
            return fallback
        other_queue = ctl.pim_queue if ctl.mode is Mode.MEM else ctl.mem_queue
        if self._served_in_batch >= self.batch_size and other_queue:
            return Decision.switch(ctl.mode.other)
        if ctl.mode is Mode.MEM:
            if not ctl.mem_queue:
                return IDLE
            pick = self.frfcfs_pick(ctl, cycle)
            return Decision.mem(pick) if pick is not None else IDLE
        if not ctl.pim_queue:
            return IDLE
        return ISSUE_PIM if ctl.pim_ready(cycle) else IDLE
