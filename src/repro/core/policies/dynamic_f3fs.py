"""Dynamic F3FS: runtime CAP adaptation (the paper's tunability, automated).

Section VII closes with "F3FS is also tunable at runtime and can be
dynamically configured to an application's needs", and leaves
software-driven configuration to future work.  This extension closes that
loop in hardware: a feedback controller observes, every epoch, the share
of DRAM time each mode received and nudges the CAPs toward a target share.

* ``target_mem_share = 0.5`` (default) pursues fairness: both request
  types get an equal share of the serviced requests, like symmetric CAPs
  but self-tuning to the workload mix.
* other targets implement priorities (e.g. 0.67 favors the GPU process
  2:1) without any offline sensitivity study.

The observed signal is the per-epoch mix of *issued* requests (idle
residency in a mode carries no information, so time-share signals
saturate).  Adaptation is multiplicative-increase/multiplicative-decrease,
the classic stable choice for such feedback loops: if MEM's share of
issued requests exceeds the target by more than ``margin``, halve the MEM
CAP and double the PIM CAP (bounded to [min_cap, max_cap]); symmetrically
in the other direction.

Request selection is inherited from :class:`F3FS`; the adaptation layer
itself is O(1) per epoch boundary.
"""

from __future__ import annotations

from repro.core.policies.f3fs import F3FS
from repro.obs.events import DYN_CAP_ADAPT
from repro.request import Mode

DEFAULT_EPOCH = 2_000
DEFAULT_MIN_CAP = 8
DEFAULT_MAX_CAP = 512


class DynamicF3FS(F3FS):
    name = "Dyn-F3FS"

    def __init__(
        self,
        initial_cap: int = 64,
        target_mem_share: float = 0.5,
        epoch: int = DEFAULT_EPOCH,
        margin: float = 0.1,
        min_cap: int = DEFAULT_MIN_CAP,
        max_cap: int = DEFAULT_MAX_CAP,
    ) -> None:
        super().__init__(mem_cap=initial_cap, pim_cap=initial_cap)
        if not 0.0 < target_mem_share < 1.0:
            raise ValueError("target_mem_share must be in (0, 1)")
        if epoch < 1:
            raise ValueError("epoch must be positive")
        if not 0.0 <= margin < 0.5:
            raise ValueError("margin must be in [0, 0.5)")
        if not 1 <= min_cap <= max_cap:
            raise ValueError("need 1 <= min_cap <= max_cap")
        self.target_mem_share = target_mem_share
        self.epoch = epoch
        self.margin = margin
        self.min_cap = min_cap
        self.max_cap = max_cap
        self._epoch_index = 0
        self._last_issued = {Mode.MEM: 0, Mode.PIM: 0}
        self.adjustments = 0  # exposed for tests/telemetry

    def next_epoch_cycle(self, cycle: int) -> int:
        return (cycle // self.epoch + 1) * self.epoch

    def decide(self, ctl, cycle):
        # Epochs are aligned to absolute cycle boundaries (cycle // epoch)
        # rather than to the previous adaptation cycle.  At a boundary the
        # issued deltas are the last epoch's, not zero, so an adaptation
        # can move the CAPs and with them this very decision: an idle
        # controller with queued requests wakes at every boundary
        # (``next_epoch_cycle``).  A controller that decides nothing
        # across several boundaries (a switch drain, or both queues empty)
        # issues nothing in between either, so adapting once at its next
        # decision gives the same CAPs.  Part of the engine's wake-heap
        # contract.
        epoch = cycle // self.epoch
        if epoch != self._epoch_index:
            self._epoch_index = epoch
            self._adapt(ctl, cycle)
        return super().decide(ctl, cycle)

    def _adapt(self, ctl, cycle) -> None:
        issued = {Mode.MEM: ctl.stats.mem_issued, Mode.PIM: ctl.stats.pim_issued}
        delta_mem = issued[Mode.MEM] - self._last_issued[Mode.MEM]
        delta_pim = issued[Mode.PIM] - self._last_issued[Mode.PIM]
        self._last_issued = issued
        total = delta_mem + delta_pim
        if total <= 0:
            return
        mem_share = delta_mem / total
        if mem_share > self.target_mem_share + self.margin:
            self._shift_toward(Mode.PIM, cycle, mem_share)
        elif mem_share < self.target_mem_share - self.margin:
            self._shift_toward(Mode.MEM, cycle, mem_share)

    def _shift_toward(self, mode: Mode, cycle: int = 0, mem_share: float = -1.0) -> None:
        """Give ``mode`` more service: raise its CAP, lower the other's."""
        other = mode.other
        new_mode_cap = min(self.max_cap, self.caps[mode] * 2)
        new_other_cap = max(self.min_cap, self.caps[other] // 2)
        if new_mode_cap != self.caps[mode] or new_other_cap != self.caps[other]:
            self.adjustments += 1
            self.emit_event(
                cycle,
                DYN_CAP_ADAPT,
                toward=mode.value,
                mem_share=round(mem_share, 4),
                mem_cap=new_mode_cap if mode is Mode.MEM else new_other_cap,
                pim_cap=new_mode_cap if mode is Mode.PIM else new_other_cap,
            )
        self.caps[mode] = new_mode_cap
        self.caps[other] = new_other_cap
