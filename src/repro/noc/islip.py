"""iSlip crossbar arbitration (McKeown [44]), modified per Section V-A.

One arbitration iteration per cycle:

1. **Request**: every input (SM link) offers the head of each of its
   virtual channels, in round-robin VC preference order — the paper's
   modification: "the arbiter records the previous VC served for each
   incoming link and switches to the other VC presuming there is traffic
   on it".  A head is only offered if the target output buffer can accept
   it (credit-based flow control).
2. **Grant**: every output (channel link) grants one requesting input,
   chosen by a per-output round-robin pointer.
3. **Accept**: every input accepts at most one grant, preferring its VC
   ``order``; pointers advance only on accepted grants (the iSlip "slip"
   that de-synchronizes the pointers).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.noc.vc import VCBuffer
from repro.request import Request


class ISlipArbiter:
    """Single-iteration iSlip matching between input and output VC buffers."""

    def __init__(self, num_inputs: int, num_outputs: int) -> None:
        if num_inputs < 1 or num_outputs < 1:
            raise ValueError("need at least one input and one output")
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self._grant_ptr = [0] * num_outputs  # per-output RR over inputs
        self.transfers = 0

    def step(
        self,
        inputs: Sequence[VCBuffer],
        outputs: Sequence[VCBuffer],
        active_inputs: Optional[Iterable[int]] = None,
    ) -> List[Tuple[int, Request]]:
        """Run one arbitration cycle; moves matched requests.

        ``active_inputs`` restricts the request phase to the given input
        indices (the engine passes the set of SMs with non-empty output
        buffers); empty inputs contribute nothing to arbitration, so the
        outcome is identical to scanning all inputs.

        Returns the list of ``(output_index, request)`` transfers performed.
        """
        if len(inputs) != self.num_inputs or len(outputs) != self.num_outputs:
            raise ValueError("input/output count mismatch")

        # Request and grant phases in one pass: every input offers each
        # VC head, in its ``order``, whose target lane (``VCBuffer.lanes``)
        # has room; each output keeps the requester nearest its round-robin
        # pointer.  Distances to one pointer are distinct, so visiting the
        # inputs in any order grants the same input.
        num_inputs = self.num_inputs
        num_outputs = self.num_outputs
        grant_ptr = self._grant_ptr
        best: Dict[int, int] = {}  # output -> distance of its grant
        granted: Dict[int, int] = {}  # output -> granted input
        for i in range(num_inputs) if active_inputs is None else active_inputs:
            for lane in inputs[i].order:
                items = lane._items
                if not items:
                    continue
                out = items[0].channel
                if not 0 <= out < num_outputs:
                    raise ValueError(f"request targets unknown output {out}")
                target = outputs[out].lanes[items[0].is_pim]
                if len(target._items) >= target.capacity:
                    continue
                distance = (i - grant_ptr[out]) % num_inputs
                if distance < best.get(out, num_inputs):
                    best[out] = distance
                    granted[out] = i
        if not granted:
            return []

        # Accept phase: each granted input takes the grant matching its
        # most preferred offered head; pointers advance on acceptance.
        moved: List[Tuple[int, Request]] = []
        for i in set(granted.values()):
            buffer = inputs[i]
            for lane in buffer.order:
                items = lane._items
                if not items:
                    continue
                out = items[0].channel
                if granted.get(out) != i:
                    continue
                target = outputs[out].lanes[items[0].is_pim]
                if len(target._items) >= target.capacity:
                    continue  # not offered: another VC's head won the grant
                request = buffer.pop(lane)
                if not target.try_push(request):  # pragma: no cover
                    raise RuntimeError(f"output {out} overflowed after grant")
                grant_ptr[out] = (i + 1) % num_inputs
                moved.append((out, request))
                break
        self.transfers += len(moved)
        return moved
