"""Kernel and warp-program abstractions.

A kernel is described by a :class:`KernelSpec` (see
:mod:`repro.workloads`); launching it produces a :class:`KernelInstance`
bound to a set of SM slots.  Each warp executes a *program*: an iterator of
:class:`Phase` objects.  A phase is a stretch of compute cycles followed by
a burst of memory requests; load phases block the warp until every reply
returns (the GPU core model), while PIM/store phases are fire-and-forget
(bounded only by queue backpressure, matching cache-streaming stores).
"""

from __future__ import annotations

import abc
import zlib
from dataclasses import dataclass, field, replace
from typing import Iterator, List, Optional

import numpy as np

from repro.request import Request


@dataclass
class Phase:
    """One compute-then-memory step of a warp."""

    compute_cycles: int
    requests: List[Request] = field(default_factory=list)
    wait_for_replies: bool = True

    def __post_init__(self) -> None:
        if self.compute_cycles < 0:
            raise ValueError("compute_cycles must be non-negative")


WarpProgram = Iterator[Phase]


class KernelSpec(abc.ABC):
    """Recipe for a kernel's memory behaviour.

    Subclasses generate warp programs lazily; every instantiation (launch)
    re-generates fresh programs, which is how kernels are re-run in a loop
    for the co-execution methodology (Section III-B).
    """

    #: Human-readable benchmark name (e.g. ``"gaussian"`` or ``"Stream Add"``).
    name: str = "kernel"
    #: ``"gpu"`` for load/store kernels, ``"pim"`` for PIM kernels.
    kind: str = "gpu"

    @abc.abstractmethod
    def warp_program(self, ctx: "LaunchContext", sm_slot: int, warp: int) -> WarpProgram:
        """Yield this warp's phases."""

    def warps_per_sm(self, ctx: "LaunchContext") -> int:
        return ctx.warps_per_sm

    def issue_width(self, ctx: "LaunchContext") -> int:
        """Requests the SM may inject per cycle when running this kernel.

        PIM kernels are tuned to saturate the memory-subsystem interface
        (Section V); on a dual-issue SM their streaming stores inject two
        requests per cycle, which is what lets eight SMs overwhelm the
        interconnect in the paper's characterization.
        """
        return 2 if self.is_pim else 1

    @property
    def is_pim(self) -> bool:
        return self.kind == "pim"


@dataclass
class LaunchContext:
    """Everything a spec needs to generate concrete addresses.

    ``scale`` linearly shrinks workload sizes so the same specs drive both
    quick tests and longer characterization runs.
    """

    mapper: object  # repro.dram.address.AddressMapper
    num_channels: int
    banks_per_channel: int
    num_sms: int  # SMs allocated to this kernel
    warps_per_sm: int
    rng: object  # numpy Generator
    scale: float = 1.0
    rf_entries_per_bank: int = 8
    kernel_id: int = 0

    def scaled(self, value: int, minimum: int = 1) -> int:
        return max(minimum, int(value * self.scale))


class KernelInstance:
    """One launch of a kernel across a set of SM slots.

    Each warp's program gets its own deterministic RNG seeded by
    ``(seed, kernel_id, sm_slot, warp)``.  The launch sequence number is
    deliberately *not* part of the seed: re-running a kernel in a loop
    (the co-execution methodology) replays the same trace, and standalone
    and contended runs of the same kernel see identical request streams —
    a prerequisite for meaningful speedup comparisons.

    With a ``traces`` cache (:class:`repro.gpu.warp_traces.WarpTraceCache`)
    that invariance is exploited: each program is recorded the first time
    it is generated and replayed on every later launch with the same
    inputs.
    """

    _next_launch = 0

    def __init__(
        self,
        spec: KernelSpec,
        ctx: LaunchContext,
        kernel_id: int,
        seed: int = 0,
        traces=None,
    ) -> None:
        self.spec = spec
        self.ctx = ctx
        self.kernel_id = kernel_id
        self.seed = seed
        self.traces = traces
        #: Launch key and recorded-program table in ``traces`` (both None
        #: without a cache or for a spec that is not replayable).
        self.trace_key = traces.key(spec, ctx, seed) if traces is not None else None
        self.trace_table = traces.table(self.trace_key) if traces is not None else None
        self.launch_id = KernelInstance._next_launch
        KernelInstance._next_launch += 1
        self.cycle_launched: Optional[int] = None
        self.cycle_finished: Optional[int] = None

    def warp_program(self, sm_slot: int, warp: int) -> WarpProgram:
        table = self.trace_table
        if table is not None:
            return self.traces.program(table, sm_slot, warp, self.kernel_id, self.generate)
        return self.generate(sm_slot, warp)

    def generate(self, sm_slot: int, warp: int) -> WarpProgram:
        """Generate this warp's program from the spec (no replay)."""
        # Seed by the *spec name*, not the kernel id: the same kernel must
        # replay the same trace regardless of the order kernels were added
        # to a system (standalone vs co-execution runs).
        name_seed = zlib.crc32(self.spec.name.encode())
        rng = np.random.default_rng([self.seed, name_seed, sm_slot, warp])
        ctx = replace(self.ctx, rng=rng)
        return self.spec.warp_program(ctx, sm_slot, warp)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def is_pim(self) -> bool:
        return self.spec.is_pim

    @property
    def duration(self) -> Optional[int]:
        if self.cycle_finished is None or self.cycle_launched is None:
            return None
        return self.cycle_finished - self.cycle_launched
