"""PIM instruction set.

The paper models a bank-level PIM architecture following commercial designs
(HBM-PIM [42]): each functional unit (FU) owns a small register file and a
DRAM-word-wide SIMD ALU.  PIM kernels are sequences of *blocks*; a block is
a run of consecutive PIM operations to the same DRAM row, sized as a
multiple of the register-file capacity (Figure 3).

We model the fine-grained offloading paradigm (Section II-B): every PIM
operation is carried by a cache-streaming store request, and the memory
controller executes PIM requests in FCFS order on all banks in lock-step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class PIMOpKind(enum.Enum):
    """Operations supported by the PIM functional unit's SIMD ALU.

    LOAD/STORE move a DRAM word between the row buffer and the register
    file.  The arithmetic ops read a DRAM word, combine it with a register,
    and write the result to a register (or, for *_ST variants implied by
    STORE, back to DRAM).  NOP is used for barriers/padding in tests.
    """

    LOAD = "load"  # RF[dst] <- DRAM[row, col]
    STORE = "store"  # DRAM[row, col] <- RF[src]
    ADD = "add"  # RF[dst] <- RF[src] + DRAM[row, col]
    SUB = "sub"
    MUL = "mul"
    MAC = "mac"  # RF[dst] <- RF[dst] + RF[src] * DRAM[row, col]
    MAX = "max"  # reduction helper (softmax)
    EXP = "exp"  # register-only transcendental (softmax)
    NOP = "nop"

    @property
    def accesses_dram(self) -> bool:
        """Whether the op opens/touches a DRAM column (EXP/NOP are RF-only)."""
        return self not in (PIMOpKind.EXP, PIMOpKind.NOP)


@dataclass(frozen=True)
class PIMOp:
    """One PIM operation as encoded in a PIM request.

    ``dst`` and ``src`` are register-file indices (per-bank register file;
    8 entries per bank in the modelled architecture).  The target row and
    column come from the carrying request's address, so they are not
    duplicated here.
    """

    kind: PIMOpKind
    dst: int = 0
    src: int = 0

    def __post_init__(self) -> None:
        if self.dst < 0 or self.src < 0:
            raise ValueError("register indices must be non-negative")


# Convenience singletons for the common ops used by workload generators.
PIM_LOAD = PIMOp(PIMOpKind.LOAD)
PIM_STORE = PIMOp(PIMOpKind.STORE)
PIM_ADD = PIMOp(PIMOpKind.ADD)
PIM_MUL = PIMOp(PIMOpKind.MUL)
PIM_MAC = PIMOp(PIMOpKind.MAC)
