"""DRAM bank state machine.

Each bank tracks its open row and the earliest cycles at which it can
legally accept the next column command, precharge, or activate.  The model
services requests as atoms: the channel computes the PRE/ACT/column command
schedule for a request in one shot and advances the bank's rails, which is
equivalent to a command-level model under an open-page policy with greedy
command issue.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.dram.timings import DRAMTimings


class AccessKind(enum.Enum):
    """Row-buffer outcome of an access."""

    HIT = "hit"
    MISS = "miss"  # row buffer empty (bank precharged)
    CONFLICT = "conflict"  # different row open


@dataclass
class BankState:
    """Mutable timing state of one DRAM bank."""

    open_row: Optional[int] = None
    accept_at: int = 0  # earliest cycle a new request may be issued here
    next_col: int = 0  # earliest next column command (tCCD rail)
    pre_ready: int = 0  # earliest legal precharge
    act_ready: int = 0  # earliest legal activate
    busy_until: int = 0  # completion time of the latest access
    # Set by FR-FCFS-style policies: bank stalls awaiting a mode switch.
    conflict_bit: bool = False
    # Whether this bank issued a request since the last mode switch; the
    # conflict bit may only be set afterwards (Section VII-A: the switch
    # logic "needs to track whether every bank has had at least one
    # request issued before marking the next request as a conflict").
    issued_since_switch: bool = False
    # Busy intervals for bank-level-parallelism accounting.
    busy_intervals: List[Tuple[int, int]] = field(default_factory=list)

    def classify(self, row: int) -> AccessKind:
        if self.open_row is None:
            return AccessKind.MISS
        if self.open_row == row:
            return AccessKind.HIT
        return AccessKind.CONFLICT


class Bank:
    """One DRAM bank: row buffer plus timing rails.

    The channel calls :meth:`schedule` to place a request's commands; this
    method returns the scheduled (first_command, column_command, completion)
    cycles and advances all rails.
    """

    def __init__(self, index: int, timings: DRAMTimings) -> None:
        self.index = index
        self.timings = timings
        self.state = BankState()

    # -- queries ---------------------------------------------------------

    @property
    def open_row(self) -> Optional[int]:
        return self.state.open_row

    def classify(self, row: int) -> AccessKind:
        return self.state.classify(row)

    def can_accept(self, cycle: int) -> bool:
        """Whether the controller may issue a new request to this bank."""
        return cycle >= self.state.accept_at

    # -- command scheduling ----------------------------------------------

    def schedule(
        self,
        cycle: int,
        row: int,
        is_write: bool,
        col_bus_free: int,
        act_rail_free: int,
    ) -> Tuple[AccessKind, int, int, int, Optional[int]]:
        """Place one access's commands starting no earlier than ``cycle``.

        Parameters
        ----------
        col_bus_free / act_rail_free:
            Channel-level constraints: earliest cycle the shared data bus
            can carry another burst / earliest legal ACT under tRRD.

        Returns ``(kind, first_cmd, col_cmd, completion, act_cycle)`` where
        ``act_cycle`` is ``None`` for row hits.  Advances all bank rails.
        """
        t = self.timings
        s = self.state
        kind = s.classify(row)

        act_cycle: Optional[int] = None
        if kind is AccessKind.HIT:
            col = max(cycle, s.next_col, col_bus_free)
            first_cmd = col
        elif kind is AccessKind.MISS:
            act_cycle = max(cycle, s.act_ready, act_rail_free)
            col = max(act_cycle + t.tRCD, s.next_col, col_bus_free)
            first_cmd = act_cycle
        else:  # CONFLICT: PRE then ACT then column
            pre = max(cycle, s.pre_ready)
            act_cycle = max(pre + t.tRP, s.act_ready, act_rail_free)
            col = max(act_cycle + t.tRCD, s.next_col, col_bus_free)
            first_cmd = pre

        if is_write:
            completion = col + t.tWL + t.burst_length
            write_recovery = col + t.tWL + t.burst_length + t.tWR
        else:
            completion = col + t.tCL + t.burst_length
            write_recovery = 0

        # Advance rails.
        s.open_row = row
        s.next_col = col + t.tCCDl
        s.accept_at = col  # next request may be picked once our column slot passes
        if act_cycle is not None:
            s.pre_ready = act_cycle + t.tRAS
            s.act_ready = act_cycle  # future ACTs gated via pre_ready + tRP path
        read_to_pre = 0 if is_write else col + t.tRTP
        s.pre_ready = max(s.pre_ready, read_to_pre, write_recovery)
        s.act_ready = max(s.act_ready, s.pre_ready + t.tRP)
        s.busy_until = max(s.busy_until, completion)
        s.busy_intervals.append((first_cmd, completion))
        return kind, first_cmd, col, completion, act_cycle

    def reset(self) -> None:
        self.state = BankState()
