"""Tests for the SM model and kernel/warp-program abstractions."""

import pytest

from repro.config import SystemConfig
from repro.core.policies import PolicySpec
from repro.gpu.kernel import KernelInstance, KernelSpec, LaunchContext, Phase
from repro.gpu.sm import SM
from repro.noc.vc import VCBuffer
from repro.pim.isa import PIMOp, PIMOpKind
from repro.request import Request, RequestType
from repro.sim.system import GPUSystem
from tests.engine_harness import pop_next


def load(addr=0, channel=0):
    req = Request(type=RequestType.MEM_LOAD, address=addr)
    req.channel = channel
    return req


def store(addr=0, channel=0):
    req = Request(type=RequestType.MEM_STORE, address=addr)
    req.channel = channel
    return req


class ScriptedKernel(KernelSpec):
    """Kernel replaying a fixed list of phases per warp."""

    name = "scripted"
    kind = "gpu"

    def __init__(self, phases_factory, warps=1):
        self._factory = phases_factory
        self._warps = warps

    def warp_program(self, ctx, sm_slot, warp):
        return iter(self._factory(sm_slot, warp))

    def warps_per_sm(self, ctx):
        return self._warps


def make_ctx(**kwargs):
    import numpy as np

    from repro.dram.address import AddressMapper, scaled_address_map

    defaults = dict(
        mapper=AddressMapper(scaled_address_map(2)),
        num_channels=4,
        banks_per_channel=16,
        num_sms=1,
        warps_per_sm=1,
        rng=np.random.default_rng(0),
    )
    defaults.update(kwargs)
    return LaunchContext(**defaults)


def make_sm(spec, max_outstanding=8, num_vcs=1):
    buffer = VCBuffer(16, num_vcs)
    sm = SM(0, buffer, max_outstanding=max_outstanding)
    instance = KernelInstance(spec, make_ctx(), kernel_id=0)
    sm.attach(instance, sm_slot=0, cycle=0)
    return sm, buffer


class TestPhase:
    def test_rejects_negative_compute(self):
        with pytest.raises(ValueError):
            Phase(compute_cycles=-1)


class TestSMIssue:
    def test_issues_one_per_cycle(self):
        spec = ScriptedKernel(lambda s, w: [Phase(0, [load(), load(), load()])])
        sm, buffer = make_sm(spec)
        assert sm.step(0) == 1
        assert sm.step(1) == 1
        assert len(buffer) == 2

    def test_compute_delay_respected(self):
        spec = ScriptedKernel(lambda s, w: [Phase(10, [load()])])
        sm, buffer = make_sm(spec)
        for cycle in range(10):
            sm.step(cycle)
        assert len(buffer) == 0
        sm.step(10)
        assert len(buffer) == 1

    def test_blocks_on_full_output_buffer(self):
        spec = ScriptedKernel(lambda s, w: [Phase(0, [store() for _ in range(40)], wait_for_replies=False)])
        buffer = VCBuffer(2, 1)
        sm = SM(0, buffer, max_outstanding=64)
        sm.attach(KernelInstance(spec, make_ctx(), 0), 0, 0)
        for cycle in range(10):
            sm.step(cycle)
        assert len(buffer) == 2  # capacity-bound

    def test_outstanding_load_limit(self):
        spec = ScriptedKernel(lambda s, w: [Phase(0, [load() for _ in range(10)])])
        sm, buffer = make_sm(spec, max_outstanding=3)
        for cycle in range(10):
            sm.step(cycle)
        assert sm.outstanding_loads == 3
        assert len(buffer) == 3

    def test_wait_phase_blocks_until_replies(self):
        spec = ScriptedKernel(
            lambda s, w: [Phase(0, [load()]), Phase(0, [load()])]
        )
        sm, buffer = make_sm(spec)
        sm.step(0)
        first = pop_next(buffer)
        for cycle in range(1, 5):
            sm.step(cycle)
        assert len(buffer) == 0  # second phase blocked on the reply
        first.warp = 0
        sm.receive_reply(first, 5)
        sm.step(6)
        assert len(buffer) == 1

    def test_nowait_phase_does_not_block(self):
        spec = ScriptedKernel(
            lambda s, w: [
                Phase(0, [store()], wait_for_replies=False),
                Phase(0, [store()], wait_for_replies=False),
            ]
        )
        sm, buffer = make_sm(spec)
        sm.step(0)
        sm.step(1)
        assert len(buffer) == 2

    def test_round_robin_across_warps(self):
        spec = ScriptedKernel(
            lambda s, w: [Phase(0, [store(addr=w) for _ in range(4)], wait_for_replies=False)],
            warps=2,
        )
        sm, buffer = make_sm(spec)
        for cycle in range(4):
            sm.step(cycle)
        issued = [pop_next(buffer).address for _ in range(4)]
        assert issued == [0, 1, 0, 1]

    def test_done_when_program_and_replies_finish(self):
        spec = ScriptedKernel(lambda s, w: [Phase(0, [load()])])
        sm, buffer = make_sm(spec)
        sm.step(0)
        request = pop_next(buffer)
        sm.step(1)
        assert not sm.is_done(1)  # outstanding load
        request.warp = 0
        sm.receive_reply(request, 2)
        sm.step(3)
        assert sm.is_done(3)

    def test_reply_without_outstanding_raises(self):
        spec = ScriptedKernel(lambda s, w: [Phase(0, [])])
        sm, _ = make_sm(spec)
        with pytest.raises(RuntimeError):
            sm.receive_reply(load(), 0)

    def test_request_stamps(self):
        spec = ScriptedKernel(lambda s, w: [Phase(3, [load()])])
        sm, buffer = make_sm(spec)
        for cycle in range(5):
            sm.step(cycle)
        request = pop_next(buffer)
        assert request.source == 0
        assert request.warp == 0
        assert request.cycle_created == 3  # phase load time
        assert request.cycle_noc_entry == 3


class TestReplyWakes:
    """A load reply wakes its SM only when it re-arms a warp."""

    def _parked_system(self):
        system = GPUSystem(SystemConfig.scaled(num_channels=2, num_sms=2), PolicySpec("FCFS"))
        run = system.add_kernel(ScriptedKernel(lambda s, w: [Phase(0, [load(), load()])]), 1)
        system._launch(run)
        index = run.sm_indices[0]
        sm = system.sms[index]
        for cycle in range(3):
            system.cycle = cycle
            system._stage_sms()
        # Both loads issued; the warp waits for their replies, so the SM
        # sleeps with no event of its own.
        assert sm.outstanding_loads == 2 and index not in system._sm_active
        return system, index, sm, pop_next(sm.output), pop_next(sm.output)

    def test_reply_leaving_warp_waiting_keeps_sm_asleep(self):
        system, index, sm, first, _ = self._parked_system()
        system._schedule_reply(first, 5)
        system.cycle = 5
        system._stage_replies()
        assert sm.outstanding_loads == 1
        assert not sm._dirty and index not in system._sm_active

    def test_reply_unblocking_warp_rearms_sm(self):
        system, index, sm, first, second = self._parked_system()
        assert sm.receive_reply(first, 5) is False
        system._schedule_reply(second, 6)
        system.cycle = 6
        system._stage_replies()
        assert sm._dirty and index in system._sm_active
        assert sm.warps[0].due == 6


class TestKernelInstance:
    def test_trace_deterministic_across_launches(self):
        from repro.workloads.synthetic import GPUKernelProfile

        spec = GPUKernelProfile(name="det-test", accesses_per_warp=32)
        ctx = make_ctx()
        a = KernelInstance(spec, ctx, kernel_id=0, seed=7)
        b = KernelInstance(spec, ctx, kernel_id=5, seed=7)  # different id
        addrs_a = [r.address for ph in a.warp_program(0, 0) for r in ph.requests]
        addrs_b = [r.address for ph in b.warp_program(0, 0) for r in ph.requests]
        assert addrs_a == addrs_b  # seeded by name, not kernel id

    def test_different_warps_different_traces(self):
        from repro.workloads.synthetic import GPUKernelProfile

        spec = GPUKernelProfile(name="det-test2", accesses_per_warp=32, l2_reuse=0.0)
        ctx = make_ctx()
        inst = KernelInstance(spec, ctx, kernel_id=0, seed=7)
        addrs_0 = [r.address for ph in inst.warp_program(0, 0) for r in ph.requests]
        addrs_1 = [r.address for ph in inst.warp_program(0, 1) for r in ph.requests]
        assert addrs_0 != addrs_1

    def test_duration_bookkeeping(self):
        spec = ScriptedKernel(lambda s, w: [])
        inst = KernelInstance(spec, make_ctx(), kernel_id=0)
        assert inst.duration is None
        inst.cycle_launched = 10
        inst.cycle_finished = 50
        assert inst.duration == 40
