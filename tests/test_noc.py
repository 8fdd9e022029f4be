"""Tests for the interconnect: queues, virtual channels, iSlip crossbar."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.islip import ISlipArbiter
from repro.noc.queues import BoundedQueue
from repro.noc.vc import VCBuffer
from repro.pim.isa import PIMOp, PIMOpKind
from repro.request import Mode, Request, RequestType
from tests.engine_harness import pop_next


def mem_request(channel=0):
    req = Request(type=RequestType.MEM_LOAD, address=0)
    req.channel = channel
    return req


def pim_request(channel=0):
    req = Request(type=RequestType.PIM, address=0, pim_op=PIMOp(PIMOpKind.LOAD))
    req.channel = channel
    return req


def visible_heads(buf):
    """The heads a consumer walking ``buf.order`` sees, in that order."""
    return [lane._items[0] for lane in buf.order if lane._items]


class TestBoundedQueue:
    def test_fifo_order(self):
        q = BoundedQueue(4)
        for i in range(3):
            q.push(i)
        assert [q.pop() for _ in range(3)] == [0, 1, 2]

    def test_capacity(self):
        q = BoundedQueue(2)
        assert q.try_push(1) and q.try_push(2)
        assert not q.try_push(3)
        assert q.rejects == 1
        with pytest.raises(OverflowError):
            q.push(3)

    def test_peek_and_len(self):
        q = BoundedQueue(4)
        assert list(q) == []
        q.push("a")
        q.push("b")
        assert next(iter(q)) == "a"  # the head, still queued
        assert len(q) == 2
        q.pop()
        assert len(q) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            BoundedQueue(1).pop()

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            BoundedQueue(0)


class TestVCBufferVC1:
    def test_shared_queue(self):
        buf = VCBuffer(4, num_vcs=1)
        m, p = mem_request(), pim_request()
        assert buf.try_push(m) and buf.try_push(p)
        assert pop_next(buf) is m
        assert pop_next(buf) is p

    def test_hol_blocking_semantics(self):
        """In VC1 a PIM head blocks MEM requests behind it."""
        buf = VCBuffer(4, num_vcs=1)
        p, m = pim_request(), mem_request()
        buf.try_push(p)
        buf.try_push(m)
        assert visible_heads(buf) == [p]  # only the PIM head is visible

    def test_capacity_shared(self):
        buf = VCBuffer(2, num_vcs=1)
        assert buf.try_push(pim_request())
        assert buf.try_push(pim_request())
        assert not buf.try_push(mem_request())  # PIM consumed all space


class TestVCBufferVC2:
    def test_separate_queues(self):
        buf = VCBuffer(4, num_vcs=2)
        p, m = pim_request(), mem_request()
        buf.try_push(p)
        buf.try_push(m)
        # Both heads visible: PIM cannot block MEM.
        assert set(visible_heads(buf)) == {p, m}

    def test_half_capacity_each(self):
        buf = VCBuffer(4, num_vcs=2)
        assert buf.try_push(pim_request()) and buf.try_push(pim_request())
        assert not buf.try_push(pim_request())  # PIM VC full
        assert buf.try_push(mem_request())  # MEM VC unaffected

    def test_round_robin_pop(self):
        buf = VCBuffer(8, num_vcs=2)
        for _ in range(2):
            buf.try_push(mem_request())
            buf.try_push(pim_request())
        kinds = [pop_next(buf).is_pim for _ in range(4)]
        # Strict alternation between the two VCs.
        assert kinds in ([True, False, True, False], [False, True, False, True])

    def test_rotation_skips_empty_vc(self):
        buf = VCBuffer(8, num_vcs=2)
        buf.try_push(mem_request())
        buf.try_push(mem_request())
        assert not pop_next(buf).is_pim
        assert not pop_next(buf).is_pim
        assert pop_next(buf) is None

    def test_pop_returns_lane_head_and_swaps_order(self):
        buf = VCBuffer(8, num_vcs=2)
        mem_lane, pim_lane = buf.lanes
        assert buf.order == (mem_lane, pim_lane)
        first, second, p = mem_request(), mem_request(), pim_request()
        for req in (first, second, p):
            buf.try_push(req)
        assert buf.pop(mem_lane) is first
        assert buf.order == (pim_lane, mem_lane)  # the other VC next
        assert buf.pop(mem_lane) is second  # the less preferred lane
        assert buf.order == (pim_lane, mem_lane)  # still the other VC
        assert buf.pop(pim_lane) is p
        assert buf.order == (mem_lane, pim_lane)

    def test_vc1_order_is_the_shared_lane(self):
        buf = VCBuffer(4, num_vcs=1)
        m = mem_request()
        buf.try_push(m)
        assert buf.order == (buf.lanes[0],)
        assert buf.pop(buf.lanes[0]) is m
        assert buf.order == (buf.lanes[0],)

    def test_occupancy_by_mode(self):
        buf = VCBuffer(8, num_vcs=2)
        buf.try_push(pim_request())
        assert buf.occupancy(Mode.PIM) == 1
        assert buf.occupancy(Mode.MEM) == 0

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            VCBuffer(4, num_vcs=3)
        with pytest.raises(ValueError):
            VCBuffer(1, num_vcs=2)


class TestISlip:
    def test_single_transfer(self):
        arbiter = ISlipArbiter(2, 2)
        inputs = [VCBuffer(4, 1) for _ in range(2)]
        outputs = [VCBuffer(4, 1) for _ in range(2)]
        req = mem_request(channel=1)
        inputs[0].try_push(req)
        moved = arbiter.step(inputs, outputs)
        assert moved == [(1, req)]
        assert visible_heads(outputs[1]) == [req]

    def test_one_grant_per_output(self):
        arbiter = ISlipArbiter(3, 1)
        inputs = [VCBuffer(4, 1) for _ in range(3)]
        outputs = [VCBuffer(8, 1)]
        for buf in inputs:
            buf.try_push(mem_request(channel=0))
        moved = arbiter.step(inputs, outputs)
        assert len(moved) == 1

    def test_round_robin_fairness(self):
        """Over many cycles every input gets equal service."""
        arbiter = ISlipArbiter(3, 1)
        inputs = [VCBuffer(64, 1) for _ in range(3)]
        outputs = [VCBuffer(1024, 1)]
        transfers = 0
        for cycle in range(60):
            for buf in inputs:
                buf.try_push(mem_request(channel=0))
            transfers += len(arbiter.step(inputs, outputs))
        # One transfer per cycle reached the output.
        assert transfers == 60
        # Each input drained at roughly 1/3 rate: remaining occupancies equal.
        remaining = [len(b) for b in inputs]
        assert max(remaining) - min(remaining) <= 1

    def test_backpressure_blocks_transfer(self):
        arbiter = ISlipArbiter(1, 1)
        inputs = [VCBuffer(4, 1)]
        outputs = [VCBuffer(1, 1)]
        outputs[0].try_push(mem_request(channel=0))  # fill the output
        inputs[0].try_push(mem_request(channel=0))
        assert arbiter.step(inputs, outputs) == []
        assert len(inputs[0]) == 1  # nothing lost

    def test_parallel_transfers_to_distinct_outputs(self):
        arbiter = ISlipArbiter(2, 2)
        inputs = [VCBuffer(4, 1) for _ in range(2)]
        outputs = [VCBuffer(4, 1) for _ in range(2)]
        inputs[0].try_push(mem_request(channel=0))
        inputs[1].try_push(mem_request(channel=1))
        moved = arbiter.step(inputs, outputs)
        assert len(moved) == 2

    def test_vc2_input_offers_both_heads(self):
        """With VC2 a blocked PIM head does not stop the MEM head."""
        arbiter = ISlipArbiter(1, 2)
        inputs = [VCBuffer(8, 2)]
        outputs = [VCBuffer(8, 2), VCBuffer(2, 2)]
        # PIM request to output 1, whose PIM VC is full.
        outputs[1].try_push(pim_request(channel=1))
        blocked_pim = pim_request(channel=1)
        mem = mem_request(channel=0)
        inputs[0].try_push(blocked_pim)
        inputs[0].try_push(mem)
        moved = arbiter.step(inputs, outputs)
        assert moved == [(0, mem)]

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            ISlipArbiter(0, 1)
        arbiter = ISlipArbiter(2, 2)
        with pytest.raises(ValueError):
            arbiter.step([VCBuffer(2, 1)], [VCBuffer(2, 1), VCBuffer(2, 1)])

    def test_unknown_output_rejected(self):
        arbiter = ISlipArbiter(1, 1)
        inputs = [VCBuffer(2, 1)]
        outputs = [VCBuffer(2, 1)]
        inputs[0].try_push(mem_request(channel=7))
        with pytest.raises(ValueError):
            arbiter.step(inputs, outputs)


@settings(max_examples=50)
@given(
    pushes=st.lists(st.booleans(), min_size=1, max_size=40)  # True = PIM
)
def test_vc_buffer_conserves_requests(pushes):
    """Everything pushed into a VC buffer comes out exactly once, per VC in order."""
    buf = VCBuffer(64, num_vcs=2)
    pushed = []
    for is_pim in pushes:
        req = pim_request() if is_pim else mem_request()
        assert buf.try_push(req)
        pushed.append(req)
    popped = []
    while True:
        req = pop_next(buf)
        if req is None:
            break
        popped.append(req)
    assert sorted(r.id for r in popped) == sorted(r.id for r in pushed)
    # Per-type FIFO order is preserved.
    pim_order = [r.id for r in popped if r.is_pim]
    mem_order = [r.id for r in popped if not r.is_pim]
    assert pim_order == sorted(pim_order)
    assert mem_order == sorted(mem_order)
