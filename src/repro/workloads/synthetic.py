"""Synthetic workload generators.

The paper drives its simulator with CUDA binaries; we do not have GPGPU-Sim
or the benchmarks' traces, so each kernel is modelled as a parameterized
synthetic request stream whose *statistics* — arrival rate, row-buffer
locality, bank-level parallelism, L2 reuse, read/write mix — are what the
scheduling policies react to (see DESIGN.md, substitution table).

Two families are provided:

* :class:`GPUKernelProfile` — load/store kernels (the Rodinia suite is a
  table of these profiles, :mod:`repro.workloads.rodinia`).
* :class:`PIMStreamKernel` / :class:`PIMGemvKernel` — block-structured PIM
  kernels following Figure 3: RF-sized blocks of ops per operand row,
  sequential blocks, one warp pinned to one channel.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.gpu.kernel import KernelSpec, LaunchContext, Phase
from repro.pim.isa import PIMOp, PIMOpKind
from repro.request import Request, RequestType


def make_mem_request(
    ctx: LaunchContext,
    channel: int,
    bank: int,
    row: int,
    column: int,
    write: bool = False,
) -> Request:
    """Build a MEM request with both the flat address and decoded fields."""
    address = ctx.mapper.encode(channel, bank, row, column)
    request = Request(
        type=RequestType.MEM_STORE if write else RequestType.MEM_LOAD,
        address=address,
        kernel_id=ctx.kernel_id,
    )
    request.channel, request.bank, request.row, request.column = channel, bank, row, column
    return request


def make_pim_request(
    ctx: LaunchContext,
    channel: int,
    row: int,
    column: int,
    op: PIMOp,
) -> Request:
    """Build a PIM request (bank field is nominal: PIM runs on all banks)."""
    address = ctx.mapper.encode(channel, 0, row, column)
    request = Request(type=RequestType.PIM, address=address, kernel_id=ctx.kernel_id, pim_op=op)
    request.channel, request.bank, request.row, request.column = channel, 0, row, column
    return request


# ---------------------------------------------------------------------------
# GPU (load/store) kernels
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _hot_region(
    name: str, hot_words: int, footprint_rows: int, num_channels: int, banks: int, columns: int
) -> Tuple[Tuple[int, int, int, int], ...]:
    """A kernel's hot region: a small *kernel-wide* set of words that will
    live in L2 — shared across warps so reuse actually accumulates (shared
    read-only data, the usual source of GPU L2 hits).

    Seeded by the kernel name alone, so it is the same for every warp and
    launch and is computed once per distinct set of inputs.
    """
    hot_rng = np.random.default_rng(zlib.crc32(name.encode()))
    return tuple(
        (
            int(hot_rng.integers(num_channels)),
            int(hot_rng.integers(banks)),
            int(hot_rng.integers(footprint_rows)),
            int(hot_rng.integers(columns)),
        )
        for _ in range(hot_words)
    )


@dataclass
class GPUKernelProfile(KernelSpec):
    """A load/store kernel described by its memory-behaviour statistics.

    Parameters (all per warp unless noted):

    accesses_per_warp:
        Total memory accesses the warp performs (scaled by ``ctx.scale``).
    compute_per_phase:
        Cycles of compute between memory phases — the memory-intensity
        dial (0 = fully memory bound).
    accesses_per_phase:
        Loads issued back-to-back per phase (memory-level parallelism).
    row_locality:
        Probability that the next *cold* access continues the current
        (bank, row) streak at the next column — controls DRAM RBHR.
    l2_reuse:
        Probability an access targets the warp's hot region and is
        expected to hit in the L2 — controls how much NoC traffic is
        filtered before DRAM.
    store_fraction:
        Fraction of accesses that are stores (fire-and-forget).
    footprint_rows:
        Distinct rows per bank in the cold working set.
    bank_spread:
        Number of banks the warp's cold accesses cover — controls BLP.
    hot_words:
        Size of the hot region (words) backing ``l2_reuse``.
    """

    name: str = "synthetic-gpu"
    kind: str = "gpu"
    accesses_per_warp: int = 512
    compute_per_phase: int = 30
    accesses_per_phase: int = 4
    row_locality: float = 0.5
    l2_reuse: float = 0.3
    store_fraction: float = 0.15
    footprint_rows: int = 64
    bank_spread: int = 16
    hot_words: int = 64
    #: override the system's warps per SM (latency-tolerant kernels run
    #: more concurrent warps; None = use the configured default)
    warps_override: int = 0

    def warps_per_sm(self, ctx: LaunchContext) -> int:
        return self.warps_override or ctx.warps_per_sm

    def __post_init__(self) -> None:
        for prob_name in ("row_locality", "l2_reuse", "store_fraction"):
            value = getattr(self, prob_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{prob_name} must be in [0, 1]")
        if self.accesses_per_phase < 1 or self.accesses_per_warp < 1:
            raise ValueError("access counts must be positive")

    def warp_program(self, ctx: LaunchContext, sm_slot: int, warp: int) -> Iterator[Phase]:
        rng = ctx.rng
        banks = min(self.bank_spread, ctx.banks_per_channel)
        total = ctx.scaled(self.accesses_per_warp)
        columns = ctx.mapper.num_columns

        hot = _hot_region(
            self.name, self.hot_words, self.footprint_rows, ctx.num_channels, banks, columns
        )

        channel = int(rng.integers(ctx.num_channels))
        bank = int(rng.integers(banks))
        row = int(rng.integers(self.footprint_rows))
        column = int(rng.integers(columns))

        issued = 0
        while issued < total:
            burst = min(self.accesses_per_phase, total - issued)
            requests: List[Request] = []
            for _ in range(burst):
                write = rng.random() < self.store_fraction
                if hot and rng.random() < self.l2_reuse:
                    h_channel, h_bank, h_row, h_column = hot[int(rng.integers(len(hot)))]
                    requests.append(
                        make_mem_request(ctx, h_channel, h_bank, h_row, h_column, write=False)
                    )
                else:
                    if rng.random() < self.row_locality:
                        column += 1
                        if column >= columns:
                            column = 0
                            row = (row + 1) % self.footprint_rows
                    else:
                        channel = int(rng.integers(ctx.num_channels))
                        bank = int(rng.integers(banks))
                        row = int(rng.integers(self.footprint_rows))
                        column = int(rng.integers(columns))
                    requests.append(make_mem_request(ctx, channel, bank, row, column, write=write))
                issued += 1
            compute = self.compute_per_phase
            if compute > 3:
                compute = int(compute * (0.75 + 0.5 * rng.random()))
            yield Phase(compute_cycles=compute, requests=requests, wait_for_replies=True)


# ---------------------------------------------------------------------------
# PIM kernels
# ---------------------------------------------------------------------------

#: (op kind, operand role) — roles index separate row regions (vectors).
OpPattern = Sequence[Tuple[PIMOpKind, int]]


@dataclass
class PIMStreamKernel(KernelSpec):
    """Block-structured streaming PIM kernel (Figure 3 generalized).

    Per RF-sized group of elements, one block of ops per ``ops`` entry is
    emitted: e.g. STREAM-Add's ``[(LOAD, 0), (ADD, 1), (STORE, 2)]`` gives
    8 loads from vector *a*, 8 adds against *b*, 8 stores to *c*, then the
    next element group.  Each warp owns one channel (Section III-B
    mapping) and streams independently.

    Two operand layouts are supported:

    * ``"same_row"`` (default) — the operands share each DRAM row at
      disjoint column ranges, so consecutive blocks reuse the open row and
      the kernel achieves the ~99% row-buffer locality the paper measures
      for its PIM suite (e.g. 99.6% for STREAM-Scale, Section VI-A).
    * ``"separate_rows"`` — the literal Figure 3 layout with one row per
      operand; every block then pays a row switch (87.5% locality with an
      8-entry RF), useful for studying switch-heavy streams.

    ``elements_per_warp`` is the number of elements processed (scaled).
    """

    name: str = "synthetic-pim"
    kind: str = "pim"
    ops: OpPattern = field(
        default_factory=lambda: (
            (PIMOpKind.LOAD, 0),
            (PIMOpKind.ADD, 1),
            (PIMOpKind.STORE, 2),
        )
    )
    elements_per_warp: int = 2048
    #: extra register-only ops interleaved per block (e.g. softmax EXPs)
    rf_ops_per_block: int = 0
    layout: str = "same_row"

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValueError("ops pattern must be non-empty")
        if self.elements_per_warp < 1:
            raise ValueError("elements_per_warp must be positive")
        if self.layout not in ("same_row", "separate_rows"):
            raise ValueError("layout must be 'same_row' or 'separate_rows'")

    @property
    def num_operands(self) -> int:
        return max(role for _, role in self.ops) + 1

    def warps_per_sm(self, ctx: LaunchContext) -> int:
        """One warp per channel: PIM warps pin to channels, so extra warps
        would interleave streams within a channel and break block order."""
        return max(1, min(ctx.warps_per_sm, ctx.num_channels // max(1, ctx.num_sms)))

    def operand_location(self, ctx: LaunchContext, role: int, element: int) -> Tuple[int, int]:
        """(row, column) of one operand element under the active layout.

        Also used by hosts (examples/tests) to initialize operand data.
        """
        columns = ctx.mapper.num_columns
        operands = self.num_operands
        if self.layout == "same_row":
            cols_per_operand = max(1, columns // operands)
            row = element // cols_per_operand
            column = role * cols_per_operand + element % cols_per_operand
            return row, min(column, columns - 1)
        row = (element // columns) * operands + role
        return row, element % columns

    def warp_program(self, ctx: LaunchContext, sm_slot: int, warp: int) -> Iterator[Phase]:
        channel = (sm_slot * self.warps_per_sm(ctx) + warp) % ctx.num_channels
        block = ctx.rf_entries_per_bank
        total = ctx.scaled(self.elements_per_warp)

        element = 0
        while element < total:
            group = min(block, total - element)
            for op_kind, role in self.ops:
                requests = []
                row = -1
                for i in range(group):
                    row, column = self.operand_location(ctx, role, element + i)
                    reg = i % ctx.rf_entries_per_bank
                    op = PIMOp(op_kind, dst=reg, src=reg)
                    requests.append(make_pim_request(ctx, channel, row, column, op))
                for _ in range(self.rf_ops_per_block):
                    op = PIMOp(PIMOpKind.EXP, dst=0, src=0)
                    requests.append(make_pim_request(ctx, channel, max(row, 0), 0, op))
                yield Phase(compute_cycles=0, requests=requests, wait_for_replies=False)
            element += group


@dataclass
class PIMGemvKernel(KernelSpec):
    """MAC-heavy PIM kernel modelling a fully-connected / GEMV layer.

    For each output group, ``macs_per_output`` MAC blocks stream weight
    rows before a single store block writes the outputs — the
    high-locality, low-store-rate pattern of FC layers on bank-level PIM
    (Table III, P7; also the MHA GEMVs of the collaborative scenario).
    """

    name: str = "synthetic-gemv"
    kind: str = "pim"
    outputs_per_warp: int = 128
    macs_per_output: int = 16
    rf_ops_per_output: int = 0  # e.g. softmax EXP/MAX work

    def __post_init__(self) -> None:
        if self.outputs_per_warp < 1 or self.macs_per_output < 1:
            raise ValueError("sizes must be positive")

    def warps_per_sm(self, ctx: LaunchContext) -> int:
        """One warp per channel (see PIMStreamKernel.warps_per_sm)."""
        return max(1, min(ctx.warps_per_sm, ctx.num_channels // max(1, ctx.num_sms)))

    def warp_program(self, ctx: LaunchContext, sm_slot: int, warp: int) -> Iterator[Phase]:
        channel = (sm_slot * self.warps_per_sm(ctx) + warp) % ctx.num_channels
        block = ctx.rf_entries_per_bank
        columns = ctx.mapper.num_columns
        outputs = ctx.scaled(self.outputs_per_warp)

        # Weights are laid out row-major: MACs stream consecutive columns
        # of a weight row, so a row switch only happens every ``columns``
        # MACs — PIM kernels' characteristic high row locality.  Each MAC
        # accumulates into the RF entry of the output it contributes to.
        mac_index = 0
        for out_group_base in range(0, outputs, block):
            group = min(block, outputs - out_group_base)
            total_macs = self.macs_per_output * group
            emitted = 0
            while emitted < total_macs:
                chunk = min(block, total_macs - emitted)
                requests = []
                for i in range(chunk):
                    weight_row = mac_index // columns
                    column = mac_index % columns
                    mac_index += 1
                    dst = (emitted + i) % group
                    op = PIMOp(PIMOpKind.MAC, dst=dst, src=dst)
                    requests.append(make_pim_request(ctx, channel, weight_row, column, op))
                emitted += chunk
                yield Phase(compute_cycles=0, requests=requests, wait_for_replies=False)
            # Optional register-only work (softmax), then store the outputs.
            requests = []
            current_row = mac_index // columns
            for _ in range(self.rf_ops_per_output * group):
                requests.append(
                    make_pim_request(
                        ctx, channel, current_row, 0, PIMOp(PIMOpKind.EXP, dst=0, src=0)
                    )
                )
            for i in range(group):
                op = PIMOp(PIMOpKind.STORE, src=i % block)
                out_row = 1_000_000 + out_group_base // columns
                requests.append(
                    make_pim_request(ctx, channel, out_row, (out_group_base + i) % columns, op)
                )
            yield Phase(compute_cycles=0, requests=requests, wait_for_replies=False)
