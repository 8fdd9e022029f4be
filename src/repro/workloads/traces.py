"""Trace export and replay.

The synthetic generators model the paper's workloads, but a downstream
user will often want to drive the simulator with their *own* request
streams.  This module defines a simple JSON-lines trace format and two
adapters:

* :func:`save_trace` — materialize any :class:`KernelSpec`'s warp
  programs into a trace file;
* :class:`TraceKernel` — a spec that replays a trace file, one program
  per (sm_slot, warp).

Format: the first line is a header object; every following line is one
phase::

    {"kind": "gpu", "name": "...", "version": 1}
    {"sm": 0, "warp": 0, "compute": 30, "wait": true,
     "requests": [{"t": "load", "ch": 0, "ba": 3, "ro": 17, "co": 5}, ...]}

PIM requests carry ``"op"`` (the PIM op kind) and ``"dst"``/``"src"``
register indices.  Addresses are reconstructed from the coordinates with
the active address map, so traces are portable across mappings with the
same geometry.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, List, Union

from repro.gpu.kernel import KernelSpec, LaunchContext, Phase
from repro.pim.isa import PIMOp, PIMOpKind
from repro.request import Request, RequestType

TRACE_VERSION = 1

_TYPE_CODES = {
    RequestType.MEM_LOAD: "load",
    RequestType.MEM_STORE: "store",
    RequestType.PIM: "pim",
}
_TYPE_FROM_CODE = {v: k for k, v in _TYPE_CODES.items()}


def _encode_request(request: Request) -> Dict:
    record = {
        "t": _TYPE_CODES[request.type],
        "ch": request.channel,
        "ba": request.bank,
        "ro": request.row,
        "co": request.column,
    }
    if request.pim_op is not None:
        record["op"] = request.pim_op.kind.value
        record["dst"] = request.pim_op.dst
        record["src"] = request.pim_op.src
    return record


def _decode_request(record: Dict, mapper, kernel_id: int) -> Request:
    request_type = _TYPE_FROM_CODE[record["t"]]
    pim_op = None
    if request_type is RequestType.PIM:
        pim_op = PIMOp(
            PIMOpKind(record["op"]), dst=record.get("dst", 0), src=record.get("src", 0)
        )
    address = mapper.encode(record["ch"], record["ba"], record["ro"], record["co"])
    request = Request(
        type=request_type, address=address, kernel_id=kernel_id, pim_op=pim_op
    )
    request.channel = record["ch"]
    request.bank = record["ba"]
    request.row = record["ro"]
    request.column = record["co"]
    return request


def save_trace(
    spec: KernelSpec,
    ctx: LaunchContext,
    path: Union[str, Path],
    sm_slots: int,
    warps: int = 0,
) -> int:
    """Materialize ``spec``'s programs into a trace file.

    Returns the number of phases written.  ``warps=0`` uses the spec's own
    warps-per-SM choice.
    """
    warps = warps or spec.warps_per_sm(ctx)
    phases_written = 0
    with open(path, "w") as fh:
        header = {"kind": spec.kind, "name": spec.name, "version": TRACE_VERSION}
        fh.write(json.dumps(header) + "\n")
        for sm_slot in range(sm_slots):
            for warp in range(warps):
                for phase in spec.warp_program(ctx, sm_slot, warp):
                    record = {
                        "sm": sm_slot,
                        "warp": warp,
                        "compute": phase.compute_cycles,
                        "wait": phase.wait_for_replies,
                        "requests": [_encode_request(r) for r in phase.requests],
                    }
                    fh.write(json.dumps(record) + "\n")
                    phases_written += 1
    return phases_written


class TraceKernel(KernelSpec):
    """Replay a trace file as a kernel.

    The trace's phases are loaded eagerly (traces are explicit artifacts,
    not generators) and grouped per (sm_slot, warp); each launch replays
    the same trace.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        path = Path(path)
        with open(path) as fh:
            header_line = fh.readline()
            if not header_line:
                raise ValueError(f"empty trace file: {path}")
            header = json.loads(header_line)
            version = header.get("version")
            if version != TRACE_VERSION:
                raise ValueError(f"unsupported trace version {version!r}")
            self.kind = header.get("kind", "gpu")
            self.name = header.get("name", path.stem)
            self._phases: Dict[tuple, List[Dict]] = {}
            for line in fh:
                if not line.strip():
                    continue
                record = json.loads(line)
                key = (record["sm"], record["warp"])
                self._phases.setdefault(key, []).append(record)
        if not self._phases:
            raise ValueError(f"trace has no phases: {path}")
        self._max_warp = max(warp for _, warp in self._phases) + 1

    def warps_per_sm(self, ctx: LaunchContext) -> int:
        return self._max_warp

    def issue_width(self, ctx: LaunchContext) -> int:
        return 2 if self.is_pim else 1

    def warp_program(self, ctx: LaunchContext, sm_slot: int, warp: int) -> Iterator[Phase]:
        for record in self._phases.get((sm_slot, warp), []):
            requests = [
                _decode_request(r, ctx.mapper, ctx.kernel_id) for r in record["requests"]
            ]
            yield Phase(
                compute_cycles=record["compute"],
                requests=requests,
                wait_for_replies=record["wait"],
            )

    def sm_slots(self) -> int:
        return max(sm for sm, _ in self._phases) + 1
