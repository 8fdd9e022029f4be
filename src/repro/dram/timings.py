"""HBM timing parameters (Table I of the paper).

All values are in DRAM cycles.  The defaults reproduce the paper's
configuration; alternative technologies can be modelled by constructing a
different :class:`DRAMTimings`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DRAMTimings:
    """DRAM timing constraints, Table I defaults.

    Attributes
    ----------
    tCCDs / tCCDl:
        Column-to-column delay, short (different bank group) and long
        (same bank group).
    tRRD:
        Activate-to-activate delay across banks.
    tRCD:
        Activate-to-column delay (row to column).
    tRP:
        Precharge period.
    tRAS:
        Minimum row-open time (activate to precharge).
    tCL:
        Read (CAS) latency.
    tWL:
        Write latency.
    tWR:
        Write recovery (last write data to precharge).
    tRTP:
        Read-to-precharge delay (tRTPL in Table I).
    burst_length:
        Number of bus beats per access (Table I: 2).
    tREFI / tRFC:
        Average refresh interval and refresh cycle time.  Defaults follow
        JESD235 HBM at the paper's 850 MHz DRAM clock (3.9 us / ~260 ns).
    """

    tCCDs: int = 1
    tCCDl: int = 2
    tRRD: int = 3
    tRCD: int = 12
    tRP: int = 12
    tRAS: int = 28
    tCL: int = 12
    tWL: int = 2
    tWR: int = 10
    tRTP: int = 3
    burst_length: int = 2
    tREFI: int = 3315
    tRFC: int = 220

    def __post_init__(self) -> None:
        for name in (
            "tCCDs",
            "tCCDl",
            "tRRD",
            "tRCD",
            "tRP",
            "tRAS",
            "tCL",
            "tWL",
            "tWR",
            "tRTP",
            "burst_length",
            "tREFI",
            "tRFC",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.tRAS < self.tRCD:
            raise ValueError("tRAS must cover at least tRCD")
