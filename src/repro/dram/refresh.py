"""DRAM refresh model.

HBM requires an all-bank refresh every tREFI on average; each refresh
occupies the channel for tRFC and leaves every bank precharged.  Refresh
interacts with PIM scheduling the same way mode switches do: in-flight
MEM requests must drain and the lock-step PIM executor must be idle before
REF can issue, and the lost row buffers surface as extra conflicts
afterwards.

Like real controllers, the model may postpone up to
``max_postponed`` refreshes (DDR/HBM allow 8) while useful work is
in flight, issuing make-up refreshes back-to-back when it falls behind.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RefreshStats:
    refreshes_issued: int = 0
    cycles_blocked: int = 0
    max_backlog: int = 0


class RefreshTimer:
    """Tracks refresh obligations for one channel."""

    def __init__(self, trefi: int, trfc: int, max_postponed: int = 8, enabled: bool = True) -> None:
        if trefi < 1 or trfc < 1:
            raise ValueError("tREFI and tRFC must be positive")
        if max_postponed < 0:
            raise ValueError("max_postponed must be non-negative")
        self.trefi = trefi
        self.trfc = trfc
        self.max_postponed = max_postponed
        self.enabled = enabled
        self._next_due = trefi
        self._pending = 0
        self.stats = RefreshStats()

    # -- obligation tracking -----------------------------------------------

    def _accrue(self, cycle: int) -> None:
        while cycle >= self._next_due:
            self._pending += 1
            self._next_due += self.trefi
        if self._pending > self.stats.max_backlog:
            self.stats.max_backlog = self._pending

    def pending(self, cycle: int) -> int:
        """Number of refreshes currently owed."""
        if not self.enabled:
            return 0
        self._accrue(cycle)
        return self._pending

    @property
    def backlog(self) -> int:
        """Refreshes owed as of the last accrual (no side effects)."""
        return self._pending

    def next_due_cycle(self) -> int:
        """Cycle at which the next refresh obligation accrues.

        Part of the engine's wake-heap contract: an idle controller with
        refresh enabled must wake no later than this cycle.
        """
        return self._next_due

    def must_refresh(self, cycle: int) -> bool:
        """The postponement budget is exhausted: refresh now."""
        return self.pending(cycle) >= self.max_postponed

    def should_refresh(self, cycle: int) -> bool:
        """A refresh is owed (the controller may still postpone it)."""
        return self.pending(cycle) > 0

    # -- execution -----------------------------------------------------------

    def perform(self, cycle: int) -> int:
        """Issue one refresh starting at ``cycle``; returns its end cycle."""
        if not self.enabled:
            raise RuntimeError("refresh is disabled")
        self._accrue(cycle)
        if self._pending == 0:
            raise RuntimeError("no refresh owed")
        self._pending -= 1
        self.stats.refreshes_issued += 1
        self.stats.cycles_blocked += self.trfc
        return cycle + self.trfc

    def reset(self) -> None:
        self._next_due = self.trefi
        self._pending = 0
        self.stats = RefreshStats()
