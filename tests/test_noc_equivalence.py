"""Lane-order consumers and the one-pass iSlip == head-list reference.

Every consumer of a :class:`~repro.noc.vc.VCBuffer` walks its ``order``
(the lanes in service-preference order) and pops a lane's head with
``VCBuffer.pop``; :class:`~repro.noc.islip.ISlipArbiter` grants each
output in one pass over its requesters.  The claim is bit-identical
arbitration against the head-list implementation those replaced, kept
below as reference models (their logic verbatim, without the pop hooks):

* ``RefVCBuffer.heads`` built a fresh list of VC heads in preference
  order from a ``_rotation`` index, and ``pop_matching`` popped a given
  head and moved the rotation to the other VC;
* ``reference_step`` collected per-output proposals, granted each output
  to the requester nearest its round-robin pointer, and let each input
  accept its most preferred granted head.

Randomized push/pop histories on VC1 and VC2 buffers (full and partly
full output lanes, random grant pointers, the active inputs in shuffled
order for the one-pass arbiter) must give the same visible heads, the
same moves, the same pointers, the same ``transfers`` and the same
buffer contents after every operation.  The moves are compared as a set
keyed by output: each output takes at most one request per step, and the
engine reads the step's return value only through ``transfers``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.islip import ISlipArbiter
from repro.noc.queues import BoundedQueue
from repro.noc.vc import VCBuffer
from repro.pim.isa import PIMOp, PIMOpKind
from repro.request import Request, RequestType

# ---------------------------------------------------------------------------
# Reference models (the head-list path the lanes replaced).
# ---------------------------------------------------------------------------


class RefVCBuffer:
    """The head-list VC buffer: ``heads()`` in rotation order and
    ``pop_matching`` of a granted head."""

    def __init__(self, total_capacity: int, num_vcs: int) -> None:
        self.num_vcs = num_vcs
        if num_vcs == 1:
            self._queues = [BoundedQueue(total_capacity)]
        else:
            half = total_capacity // 2
            self._queues = [BoundedQueue(half), BoundedQueue(total_capacity - half)]
        self.lanes = (self._queues[0], self._queues[-1])
        self._rotation = 0  # index of the VC to serve next (VC2 only)

    def try_push(self, request):
        return self.lanes[request.is_pim].try_push(request)

    def heads(self):
        if self.num_vcs == 1:
            queue = self._queues[0]._items
            return [queue[0]] if queue else []
        rotation = self._rotation
        first = self._queues[rotation]._items
        second = self._queues[1 - rotation]._items
        if first:
            return [first[0], second[0]] if second else [first[0]]
        return [second[0]] if second else []

    def pop_matching(self, request):
        queue = self.lanes[request.is_pim]
        items = queue._items
        if not items or items[0] is not request:
            raise ValueError("request is not at the head of its VC")
        if self.num_vcs == 2:
            self._rotation = 0 if request.is_pim else 1
        items.popleft()
        return request


def reference_step(arbiter, inputs, outputs, active_inputs=None):
    """The proposals/grants/accept iSlip step on ``RefVCBuffer`` inputs."""
    num_inputs = arbiter.num_inputs
    num_outputs = arbiter.num_outputs
    proposals = {}
    offered = {}
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

    grants = {}
    grant_ptr = arbiter._grant_ptr
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

    moved = []
    for i, granted in grants.items():
        for out, head, lane in offered[i]:
            if out in granted:
                request = inputs[i].pop_matching(head)
                if not lane.try_push(request):
                    raise RuntimeError(f"output {out} overflowed after grant")
                grant_ptr[out] = (i + 1) % num_inputs
                moved.append((out, request))
                break
    arbiter.transfers += len(moved)
    return moved


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def make_request(is_pim, channel):
    if is_pim:
        request = Request(type=RequestType.PIM, address=0, pim_op=PIMOp(PIMOpKind.LOAD))
    else:
        request = Request(type=RequestType.MEM_LOAD, address=0)
    request.channel = channel
    return request


def visible_heads(buffer):
    """What a consumer walking ``order`` sees: each non-empty lane's head."""
    return [lane._items[0] for lane in buffer.order if lane._items]


def contents(buffer):
    return [list(lane._items) for lane in buffer.lanes]


def assert_same_buffer(buffer, ref):
    assert visible_heads(buffer) == ref.heads()
    assert contents(buffer) == contents(ref)


def pop_either(buffer, ref, which):
    """Pop the ``which``-th visible head (mod the count) from both."""
    heads = ref.heads()
    if not heads:
        return
    head = heads[which % len(heads)]
    lane = next(lane for lane in buffer.order if lane._items and lane._items[0] is head)
    assert buffer.pop(lane) is ref.pop_matching(head)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    num_vcs=st.sampled_from((1, 2)),
    capacity=st.integers(2, 6),
    ops=st.lists(
        st.tuples(st.booleans(), st.booleans(), st.integers(0, 3)),  # push?, PIM?, which
        max_size=60,
    ),
)
def test_order_and_pop_match_heads(num_vcs, capacity, ops):
    """Random push/pop histories: the lanes in ``order`` expose the heads
    ``heads()`` listed, in its order, and ``pop`` moves the preference
    as ``pop_matching`` moved the rotation."""
    buffer = VCBuffer(capacity, num_vcs)
    ref = RefVCBuffer(capacity, num_vcs)
    for push, is_pim, which in ops:
        if push:
            request = make_request(is_pim, 0)
            assert buffer.try_push(request) == ref.try_push(request)
        else:
            pop_either(buffer, ref, which)
        assert_same_buffer(buffer, ref)


OP = st.tuples(
    st.sampled_from(("in", "in", "in", "out", "pop_in", "pop_out", "step")),
    st.integers(0, 63),  # which buffer
    st.booleans(),  # PIM?
    st.integers(0, 63),  # channel / which head / shuffle seed
)


@settings(max_examples=200, deadline=None)
@given(
    num_vcs=st.sampled_from((1, 2)),
    num_inputs=st.integers(1, 6),
    num_outputs=st.integers(1, 4),
    in_capacity=st.integers(2, 8),
    out_capacity=st.integers(2, 4),
    pointers=st.lists(st.integers(0, 63), min_size=4, max_size=4),
    ops=st.lists(OP, max_size=80),
    rng=st.randoms(use_true_random=False),
)
def test_one_pass_islip_matches_reference(
    num_vcs, num_inputs, num_outputs, in_capacity, out_capacity, pointers, ops, rng
):
    arbiter = ISlipArbiter(num_inputs, num_outputs)
    ref_arbiter = ISlipArbiter(num_inputs, num_outputs)
    for out in range(num_outputs):
        arbiter._grant_ptr[out] = ref_arbiter._grant_ptr[out] = pointers[out] % num_inputs
    inputs = [VCBuffer(in_capacity, num_vcs) for _ in range(num_inputs)]
    ref_inputs = [RefVCBuffer(in_capacity, num_vcs) for _ in range(num_inputs)]
    outputs = [VCBuffer(out_capacity, num_vcs) for _ in range(num_outputs)]
    ref_outputs = [RefVCBuffer(out_capacity, num_vcs) for _ in range(num_outputs)]
    for kind, index, is_pim, value in ops:
        if kind == "in":
            request = make_request(is_pim, value % num_outputs)
            i = index % num_inputs
            assert inputs[i].try_push(request) == ref_inputs[i].try_push(request)
        elif kind == "out":  # fill an output lane, up to full
            request = make_request(is_pim, index % num_outputs)
            o = index % num_outputs
            assert outputs[o].try_push(request) == ref_outputs[o].try_push(request)
        elif kind == "pop_in":
            i = index % num_inputs
            pop_either(inputs[i], ref_inputs[i], value)
        elif kind == "pop_out":
            o = index % num_outputs
            pop_either(outputs[o], ref_outputs[o], value)
        else:
            # The engine passes its active set (any order); the reference
            # scanned the sorted active inputs.  Some steps scan them all.
            active = [i for i in range(num_inputs) if inputs[i]]
            if value % 4 == 0:
                moved = arbiter.step(inputs, outputs)
                expected = reference_step(ref_arbiter, ref_inputs, ref_outputs)
            else:
                shuffled = list(active)
                rng.shuffle(shuffled)
                moved = arbiter.step(inputs, outputs, set(shuffled) if value % 2 else shuffled)
                expected = reference_step(ref_arbiter, ref_inputs, ref_outputs, sorted(active))
            assert sorted(moved, key=lambda move: move[0]) == sorted(
                expected, key=lambda move: move[0]
            )
            assert arbiter._grant_ptr == ref_arbiter._grant_ptr
            assert arbiter.transfers == ref_arbiter.transfers
        for buffer, ref in zip(inputs + outputs, ref_inputs + ref_outputs):
            assert_same_buffer(buffer, ref)
