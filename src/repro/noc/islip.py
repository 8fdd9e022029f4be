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
   rotation order; pointers advance only on accepted grants (the iSlip
   "slip" that de-synchronizes the pointers).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.noc.queues import BoundedQueue
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

        # Request phase: collect per-output proposals, remembering each
        # input's preference rank for the accept phase.  The credit check
        # reads the target VC queue (``VCBuffer.lanes``) directly, and the
        # accept phase pushes onto that queue.
        num_inputs = self.num_inputs
        num_outputs = self.num_outputs
        proposals: Dict[int, List[int]] = {}
        offered: Dict[int, List[Tuple[int, Request, BoundedQueue]]] = {}
        candidates = range(num_inputs) if active_inputs is None else active_inputs
        for i in candidates:
            heads = inputs[i].heads()
            if not heads:
                continue
            ranked = []
            for head in heads:
                out = head.channel
                if not 0 <= out < num_outputs:
                    raise ValueError(f"request targets unknown output {out}")
                lane = outputs[out].lanes[head.is_pim]
                if len(lane._items) >= lane.capacity:
                    continue
                requesters = proposals.get(out)
                if requesters is None:
                    proposals[out] = [i]
                else:
                    requesters.append(i)
                ranked.append((out, head, lane))
            if ranked:
                offered[i] = ranked
        if not offered:
            return []

        # Grant phase: one grant per output, round-robin from the pointer.
        grants: Dict[int, List[int]] = {}  # input -> granted outputs
        grant_ptr = self._grant_ptr
        for out, requesters in proposals.items():
            chosen = requesters[0]
            if len(requesters) > 1:
                pointer = grant_ptr[out]
                best = (chosen - pointer) % num_inputs
                for i in requesters[1:]:
                    distance = (i - pointer) % num_inputs
                    if distance < best:
                        best = distance
                        chosen = i
            granted = grants.get(chosen)
            if granted is None:
                grants[chosen] = [out]
            else:
                granted.append(out)

        # Accept phase: each input takes the grant matching its most
        # preferred offered head.
        moved: List[Tuple[int, Request]] = []
        for i, granted in grants.items():
            for out, head, lane in offered[i]:
                if out in granted:
                    request = inputs[i].pop_matching(head)
                    if not lane.try_push(request):  # pragma: no cover
                        raise RuntimeError(f"output {out} overflowed after grant")
                    grant_ptr[out] = (i + 1) % num_inputs
                    moved.append((out, request))
                    break
        self.transfers += len(moved)
        return moved
