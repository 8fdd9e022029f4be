"""Blacklisting memory scheduler (BLISS) [62].

An application (kernel) that is serviced ``threshold`` times consecutively
is blacklisted.  Priority order: (1) non-blacklisted application first,
(2) row-buffer hit first, (3) oldest first.  The blacklist is cleared every
``clear_interval`` cycles.  The paper observes that with PIM co-execution
BLISS devolves into a time-multiplex of MEM-First / PIM-First / FR-FCFS
(roughly 20/20/60 with threshold 4).
"""

from __future__ import annotations

from typing import Optional, Set

from repro.core.policies.base import IDLE, ISSUE_PIM, NEVER, Decision, SchedulingPolicy
from repro.obs.events import BLISS_BLACKLIST, BLISS_CLEAR
from repro.request import Mode, Request

#: The paper's choice (Sections III-D, VII-B); the figures run with it.
DEFAULT_THRESHOLD = 4
DEFAULT_CLEAR_INTERVAL = 10_000


class BLISS(SchedulingPolicy):
    name = "BLISS"

    def __init__(
        self,
        threshold: int = DEFAULT_THRESHOLD,
        clear_interval: int = DEFAULT_CLEAR_INTERVAL,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"BLISS threshold must be >= 1 (got {threshold!r})")
        if clear_interval < 1:
            raise ValueError(f"BLISS clear_interval must be >= 1 (got {clear_interval!r})")
        self.threshold = threshold
        self.clear_interval = clear_interval
        self.blacklist: Set[int] = set()
        self._streak_kernel: Optional[int] = None
        self._streak_length = 0
        self._last_epoch = 0

    def next_epoch_cycle(self, cycle: int) -> int:
        # A clear can change the next decision (a blacklisted kernel's
        # request may win again), so an idle controller must wake for it;
        # clearing an empty blacklist changes nothing.
        if not self.blacklist:
            return NEVER
        return (cycle // self.clear_interval + 1) * self.clear_interval

    def _maybe_clear(self, cycle: int) -> None:
        # Clears are aligned to absolute clear_interval epochs (not to the
        # cycle of the previous clear), so the schedule does not depend on
        # which cycles the controller happened to decide in.  A clear is
        # observable, so an idle controller with queued requests wakes at
        # the next boundary (``next_epoch_cycle``); one with both queues
        # empty clears at its next decision, the first a clear can change.
        # Part of the engine's wake-heap contract.
        epoch = cycle // self.clear_interval
        if epoch != self._last_epoch:
            if self.blacklist:
                self.emit_event(
                    cycle, BLISS_CLEAR, epoch=epoch, cleared=len(self.blacklist)
                )
            self.blacklist.clear()
            self._last_epoch = epoch

    def _score(self, ctl, request: Request, is_hit: bool):
        """Lower tuples win: (blacklisted, not-hit, age)."""
        return (request.kernel_id in self.blacklist, not is_hit, request.mc_seq)

    def decide(self, ctl, cycle):
        self._maybe_clear(cycle)
        best: Optional[Request] = None
        best_score = None
        # Per-bank candidates from the controller's index.  For the score
        # (blacklisted, not-hit, age) the per-bank minimum is always among:
        # the oldest non-blacklisted request, the oldest non-blacklisted
        # hit on the open row, or — when the whole bank is blacklisted —
        # the unfiltered equivalents.  With an empty blacklist both
        # lookups are O(1) deque heads, matching FR-FCFS cost.
        blacklist = self.blacklist
        mem_queue = ctl.mem_queue
        banks = ctl.channel.banks
        pred = None
        if blacklist:
            pred = lambda r: r.kernel_id not in blacklist  # noqa: E731
        for bank_index in mem_queue.banks_with_work():
            state = banks[bank_index].state
            if cycle < state.accept_at:
                continue
            open_row = state.open_row
            cand_any = mem_queue.bank_oldest(bank_index, pred)
            if cand_any is not None:
                cand_hit = (
                    mem_queue.row_oldest(bank_index, open_row, pred)
                    if open_row is not None
                    else None
                )
            else:
                # Every pending request in this bank is blacklisted.
                cand_any = mem_queue.bank_head(bank_index)
                cand_hit = (
                    mem_queue.row_head(bank_index, open_row)
                    if open_row is not None
                    else None
                )
            if cand_hit is not None:
                score = (cand_hit.kernel_id in blacklist, False, cand_hit.mc_seq)
                if best_score is None or score < best_score:
                    best, best_score = cand_hit, score
            score = (
                cand_any.kernel_id in blacklist,
                cand_any.row != open_row,
                cand_any.mc_seq,
            )
            if best_score is None or score < best_score:
                best, best_score = cand_any, score
        if ctl.pim_queue:
            head = ctl.pim_queue[0]
            head_hit = not ctl.pim_exec.would_switch_row(head)
            score = self._score(ctl, head, head_hit)
            if best_score is None or score < best_score:
                best, best_score = head, score
        if best is None:
            # Nothing issuable right now; if the other queue has the only
            # traffic, the shared fallback will steer us there.
            fallback = self.fallback_when_empty(ctl)
            return fallback if fallback is not None else IDLE

        if best.mode is not ctl.mode:
            return Decision.switch(best.mode)
        if best.mode is Mode.PIM:
            return ISSUE_PIM if ctl.pim_ready(cycle) else IDLE
        return Decision.mem(best)

    def may_switch_from_pim(self, ctl, cycle):
        # A MEM request must beat the PIM head's score.  Every MEM score is
        # at least (False, False, oldest MEM age), or (True, ...) once each
        # kernel that ever sent this controller MEM work is blacklisted.
        mem_head = ctl.mem_queue.head()
        if mem_head is None or not ctl.pim_queue:
            return mem_head is not None
        head = ctl.pim_queue[0]
        floor = (self.blacklist.issuperset(ctl.stats.kernel_mem_arrivals), False, mem_head.mc_seq)
        return self._score(ctl, head, not ctl.pim_exec.would_switch_row(head)) > floor

    def on_issue(self, request, cycle):
        kernel = request.kernel_id
        if kernel == self._streak_kernel:
            self._streak_length += 1
        else:
            self._streak_kernel = kernel
            self._streak_length = 1
        if self._streak_length >= self.threshold:
            if kernel not in self.blacklist:
                self.emit_event(
                    cycle, BLISS_BLACKLIST, kernel=kernel, streak=self._streak_length
                )
            self.blacklist.add(kernel)
