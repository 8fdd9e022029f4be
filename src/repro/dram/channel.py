"""DRAM channel: banks plus channel-level command/data rails.

A channel owns its banks, the shared data bus (column commands are spaced
by the burst length), and the tRRD activate rail.  MEM requests are
serviced per bank, concurrently across banks; PIM requests are executed by
the lock-step executor (:mod:`repro.pim.executor`), which shares the same
bank state so mode switches correctly destroy/restore row locality.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dram.bank import AccessKind, Bank
from repro.dram.timings import DRAMTimings
from repro.request import Request, RequestType


def merge_intervals(intervals: List[Tuple[int, int]]) -> int:
    """Total length of the union of half-open intervals."""
    if not intervals:
        return 0
    total = 0
    current_start, current_end = None, None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_start is None:
            current_start, current_end = start, end
        elif start <= current_end:
            current_end = max(current_end, end)
        else:
            total += current_end - current_start
            current_start, current_end = start, end
    if current_start is not None:
        total += current_end - current_start
    return total


@dataclass
class ChannelStats:
    """Per-channel service statistics."""

    mem_hits: int = 0
    mem_misses: int = 0
    mem_conflicts: int = 0
    mem_reads: int = 0
    mem_writes: int = 0
    pim_ops: int = 0
    pim_row_switches: int = 0
    # Per-kernel row-buffer outcome counts: kernel_id -> [hits, misses, conflicts]
    kernel_outcomes: Dict[int, List[int]] = field(default_factory=dict)

    def record_mem(self, kind: AccessKind, request: Request) -> None:
        if kind is AccessKind.HIT:
            self.mem_hits += 1
        elif kind is AccessKind.MISS:
            self.mem_misses += 1
        else:
            self.mem_conflicts += 1
        if request.type is RequestType.MEM_STORE:
            self.mem_writes += 1
        else:
            self.mem_reads += 1
        outcome = self.kernel_outcomes.setdefault(request.kernel_id, [0, 0, 0])
        outcome[(AccessKind.HIT, AccessKind.MISS, AccessKind.CONFLICT).index(kind)] += 1

    @property
    def mem_accesses(self) -> int:
        return self.mem_hits + self.mem_misses + self.mem_conflicts

    @property
    def row_buffer_hit_rate(self) -> float:
        total = self.mem_accesses
        return self.mem_hits / total if total else 0.0


class Channel:
    """One HBM channel with ``banks_per_channel`` banks."""

    def __init__(
        self,
        index: int,
        num_banks: int,
        timings: DRAMTimings,
        log_commands: bool = False,
    ) -> None:
        self.index = index
        self.timings = timings
        self.banks = [Bank(i, timings) for i in range(num_banks)]
        self.stats = ChannelStats()
        #: Optional JEDEC-style command log for repro.dram.validate.
        self.log_commands = log_commands
        self.command_log: List["Command"] = []

        # Channel-level rails.
        self.next_col_bus = 0  # data-bus availability (burst spacing)
        self.next_act = 0  # tRRD rail

        # In-flight MEM requests as a min-heap of (completion, seq, request).
        self._in_flight: List[Tuple[int, int, Request]] = []
        self._heap_seq = 0

    # -- queries ----------------------------------------------------------

    @property
    def num_banks(self) -> int:
        return len(self.banks)

    def is_row_hit(self, request: Request) -> bool:
        return self.banks[request.bank].is_row_hit(request.row)

    def classify(self, request: Request) -> AccessKind:
        return self.banks[request.bank].classify(request.row)

    def bank_can_accept(self, bank: int, cycle: int) -> bool:
        return self.banks[bank].can_accept(cycle)

    def mem_in_flight(self) -> int:
        return len(self._in_flight)

    def next_completion_cycle(self) -> Optional[int]:
        """Completion cycle of the earliest in-flight MEM request.

        No in-flight request completes before this, so the engine queues
        the channel on its completion heap for this cycle.
        """
        return self._in_flight[0][0] if self._in_flight else None

    def drain_complete_cycle(self) -> int:
        """Cycle by which every in-flight MEM request will have completed."""
        if not self._in_flight:
            return 0
        return max(completion for completion, _, _ in self._in_flight)

    def next_bank_event(self, cycle: int) -> Optional[int]:
        """Earliest cycle after ``cycle`` at which some bank becomes
        acceptable, or None when every bank already accepts.

        Used by the controller to skip idle decision cycles.
        """
        best = None
        for bank in self.banks:
            accept_at = bank.state.accept_at
            if accept_at > cycle and (best is None or accept_at < best):
                best = accept_at
        return best

    # -- MEM servicing ------------------------------------------------------

    def issue_mem(self, request: Request, cycle: int) -> int:
        """Service a MEM request; returns its completion cycle."""
        bank = self.banks[request.bank]
        if not bank.can_accept(cycle):
            raise RuntimeError(
                f"bank {request.bank} cannot accept at cycle {cycle} "
                f"(accept_at={bank.state.accept_at})"
            )
        is_write = request.type is RequestType.MEM_STORE
        kind, first_cmd, col, completion, act = bank.schedule(
            cycle, request.row, is_write, self.next_col_bus, self.next_act
        )
        self.next_col_bus = col + self.timings.burst_length
        if act is not None:
            self.next_act = act + self.timings.tRRD
        if self.log_commands:
            self._log_mem_commands(request, kind, first_cmd, col, act, is_write)
        self.stats.record_mem(kind, request)
        request.access_kind = kind.value
        request.cycle_issued = cycle
        return self._finish_issue(request, completion)

    def _log_mem_commands(self, request, kind, first_cmd, col, act, is_write) -> None:
        from repro.dram.validate import ACT, PRE, READ, WRITE, Command

        if kind is AccessKind.CONFLICT:
            self.command_log.append(Command(first_cmd, PRE, request.bank))
        if act is not None:
            self.command_log.append(Command(act, ACT, request.bank, request.row))
        kind_name = WRITE if is_write else READ
        self.command_log.append(Command(col, kind_name, request.bank, request.row))

    def _finish_issue(self, request: Request, completion: int) -> int:
        self._heap_seq += 1
        heapq.heappush(self._in_flight, (completion, self._heap_seq, request))
        return completion

    def pop_completed(self, cycle: int) -> List[Request]:
        """Return MEM requests whose service completes at or before ``cycle``."""
        done: List[Request] = []
        while self._in_flight and self._in_flight[0][0] <= cycle:
            completion, _, request = heapq.heappop(self._in_flight)
            request.cycle_completed = completion
            done.append(request)
        return done

    # -- BLP accounting -----------------------------------------------------

    def bank_level_parallelism(
        self, all_bank_intervals: Optional[List[Tuple[int, int]]] = None
    ) -> float:
        """Average number of busy banks over cycles with >=1 busy bank.

        ``all_bank_intervals`` are intervals during which *every* bank was
        busy (the lock-step PIM executor's occupancy).
        """
        all_intervals: List[Tuple[int, int]] = []
        busy_bank_cycles = 0
        for bank in self.banks:
            intervals = bank.state.busy_intervals
            busy_bank_cycles += merge_intervals(intervals)
            all_intervals.extend(intervals)
        if all_bank_intervals:
            busy_bank_cycles += merge_intervals(all_bank_intervals) * self.num_banks
            all_intervals.extend(all_bank_intervals)
        active = merge_intervals(all_intervals)
        return busy_bank_cycles / active if active else 0.0

    def reset(self) -> None:
        for bank in self.banks:
            bank.reset()
        self.stats = ChannelStats()
        self.next_col_bus = 0
        self.next_act = 0
        self._in_flight.clear()
        self.command_log.clear()
