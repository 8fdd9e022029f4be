"""PIM functional unit: SIMD ALU plus local register file (Figure 2).

Each FU serves a pair of banks; the register file (16 entries in the
modelled architecture) is split evenly between the two banks (8 entries
each).  Register-file state persists across MEM/PIM mode switches, which is
what makes draining and resuming PIM kernels correct (Section II-A).
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.pim.isa import PIMOp, PIMOpKind


class RegisterFile:
    """Per-bank slice of a PIM FU's register file."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("register file needs at least one entry")
        self.size = size
        self._regs: List[float] = [0.0] * size

    def _check(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise IndexError(f"register {index} out of range (size {self.size})")

    def read(self, index: int) -> float:
        self._check(index)
        return self._regs[index]

    def write(self, index: int, value: float) -> None:
        self._check(index)
        self._regs[index] = float(value)


class FunctionalUnit:
    """One bank-pair FU; executes PIM ops functionally on a bank's slice."""

    def __init__(self, index: int, banks: List[int], rf_entries_per_bank: int) -> None:
        if len(banks) < 1:
            raise ValueError("an FU must serve at least one bank")
        self.index = index
        self.banks = list(banks)
        self.rf = {bank: RegisterFile(rf_entries_per_bank) for bank in banks}

    def execute(
        self,
        bank: int,
        op: PIMOp,
        dram_value: Optional[float],
    ) -> Optional[float]:
        """Execute one op on one bank's RF slice.

        ``dram_value`` is the DRAM word read for DRAM-accessing ops (``None``
        for RF-only ops).  Returns the value to write back to DRAM for
        STORE, otherwise ``None``.
        """
        rf = self.rf[bank]
        kind = op.kind
        if kind is PIMOpKind.NOP:
            return None
        if kind is PIMOpKind.EXP:
            rf.write(op.dst, math.exp(min(rf.read(op.src), 700.0)))
            return None
        if dram_value is None and kind.accesses_dram:
            raise ValueError(f"{kind} needs a DRAM value")
        if kind is PIMOpKind.LOAD:
            rf.write(op.dst, dram_value)
        elif kind is PIMOpKind.STORE:
            return rf.read(op.src)
        elif kind is PIMOpKind.ADD:
            rf.write(op.dst, rf.read(op.src) + dram_value)
        elif kind is PIMOpKind.SUB:
            rf.write(op.dst, rf.read(op.src) - dram_value)
        elif kind is PIMOpKind.MUL:
            rf.write(op.dst, rf.read(op.src) * dram_value)
        elif kind is PIMOpKind.MAC:
            rf.write(op.dst, rf.read(op.dst) + rf.read(op.src) * dram_value)
        elif kind is PIMOpKind.MAX:
            rf.write(op.dst, max(rf.read(op.src), dram_value))
        else:  # pragma: no cover - exhaustiveness guard
            raise NotImplementedError(kind)
        return None
