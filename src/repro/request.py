"""Memory request model shared by every stage of the simulated memory path.

A :class:`Request` is created by an SM (or directly by a workload when used
trace-style), travels through the interconnect and L2, and is finally
serviced either by the DRAM banks (MEM requests) or by the PIM functional
units (PIM requests).  The request object carries timestamps for each hop so
that the metrics layer can compute queueing delays and arrival rates without
any extra bookkeeping in the pipeline stages.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.pim.isa import PIMOp


class RequestType(enum.Enum):
    """Kind of memory request.

    MEM_LOAD / MEM_STORE are regular load/store requests that may be
    filtered by the L2 cache.  PIM requests are cache-streaming stores that
    bypass all caches and trigger in-memory computation (Section III-A of
    the paper).
    """

    MEM_LOAD = "mem_load"
    MEM_STORE = "mem_store"
    PIM = "pim"

    @property
    def is_pim(self) -> bool:
        return self is RequestType.PIM

    @property
    def is_mem(self) -> bool:
        return not self.is_pim


class Mode(enum.Enum):
    """Memory-controller servicing mode (Figure 1 arbiter)."""

    MEM = "mem"
    PIM = "pim"

    @property
    def other(self) -> "Mode":
        return Mode.PIM if self is Mode.MEM else Mode.MEM


_request_ids = itertools.count()


def reset_request_ids() -> None:
    """Restart the global request-id counter (used by tests for determinism)."""
    global _request_ids
    _request_ids = itertools.count()


@dataclass(eq=False, slots=True)  # identity semantics: a request is a unique entity
class Request:
    """A single memory request flowing through the simulated system.

    Parameters
    ----------
    type:
        Load, store, or PIM.
    address:
        Full byte address.  Decoded into channel/bank/row/column lazily by
        the DRAM address mapper (fields below).
    source:
        Id of the issuing SM (or synthetic injector).
    kernel_id:
        Id of the kernel the request belongs to; used by application-aware
        policies (BLISS) and by the metrics layer.
    pim_op:
        The PIM operation carried by a PIM request; ``None`` for MEM
        requests.
    """

    type: RequestType
    address: int
    source: int = 0
    warp: int = 0
    kernel_id: int = 0
    pim_op: Optional[PIMOp] = None
    size: int = 32

    # Monotonic id; doubles as the "age" used by oldest-first arbitration.
    id: int = field(default_factory=lambda: next(_request_ids))

    # Decoded address fields (filled once by dram.address.AddressMapper;
    # the controller's per-bank index keys on bank/row without re-decoding).
    channel: int = -1
    bank: int = -1
    row: int = -1
    column: int = -1

    # Timestamps (cycles); -1 means "not reached yet".  cycle_l2_arrival is
    # only stamped when telemetry is enabled (repro.obs).
    cycle_created: int = -1
    cycle_noc_entry: int = -1
    cycle_l2_arrival: int = -1
    cycle_mc_arrival: int = -1
    cycle_issued: int = -1
    cycle_completed: int = -1

    # Telemetry (repro.obs): the controller's cumulative other-mode cycle
    # count at MC arrival, and the resolved mode-blocked share of the MC
    # wait at issue.  Only stamped when telemetry is enabled.
    mc_blocked_base: int = -1
    mc_blocked_cycles: int = 0

    # Set by the memory controller when the request enters its queues; this
    # is the per-controller arrival order used for oldest-first decisions.
    mc_seq: int = -1

    # Row-buffer outcome of the access ("hit"/"miss"/"conflict"), set by the
    # DRAM channel at issue time; None for PIM requests.
    access_kind: Optional[str] = None

    # L2 bookkeeping: set when this request is the primary miss carrying an
    # L2 fill; the line address is cached to avoid re-deriving it.
    is_l2_fill: bool = False
    l2_line: int = -1

    # True for L2 dirty-eviction writebacks (system traffic: attributed to
    # the evicting kernel for arrival stats, but not to kernel completion).
    is_writeback: bool = False

    # Cached classification of ``type`` (the type of a request never
    # changes, and the enum-property lookups showed up in scheduler
    # profiles).  Filled in __post_init__.
    is_pim: bool = field(init=False, default=False)
    is_load: bool = field(init=False, default=False)
    mode: Mode = field(init=False, default=None)  # type: ignore[assignment]

    # Membership flag for the controller's per-bank MEM index: requests are
    # tombstoned on removal and lazily dropped from the index deques (see
    # repro.core.memq).
    in_mem_queue: bool = field(init=False, default=False)

    # Cached ``pim_op.kind.accesses_dram`` (two attribute hops on the PIM
    # issue path); False for MEM requests.  Filled in __post_init__.
    pim_dram: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        pim = self.type is RequestType.PIM
        if pim and self.pim_op is None:
            raise ValueError("PIM requests must carry a pim_op")
        if not pim and self.pim_op is not None:
            raise ValueError("MEM requests must not carry a pim_op")
        self.is_pim = pim
        self.is_load = self.type is RequestType.MEM_LOAD
        self.mode = Mode.PIM if pim else Mode.MEM
        if pim:
            self.pim_dram = self.pim_op.kind.accesses_dram

    @property
    def queueing_delay(self) -> int:
        """Cycles spent waiting in the memory controller before issue."""
        if self.cycle_issued < 0 or self.cycle_mc_arrival < 0:
            raise ValueError("request has not been issued yet")
        return self.cycle_issued - self.cycle_mc_arrival

    @property
    def total_latency(self) -> int:
        """Cycles from creation to completion."""
        if self.cycle_completed < 0 or self.cycle_created < 0:
            raise ValueError("request has not completed yet")
        return self.cycle_completed - self.cycle_created

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = self.type.value
        loc = f"ch{self.channel}/b{self.bank}/r{self.row}" if self.channel >= 0 else hex(self.address)
        return f"<Request #{self.id} {kind} {loc} k{self.kernel_id}>"
