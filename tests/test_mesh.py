"""Tests for the 2D-mesh interconnect."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.core.policies import PolicySpec
from repro.noc.mesh import LOCAL, MeshFabric, MeshShape
from repro.noc.vc import VCBuffer
from repro.pim.isa import PIMOp, PIMOpKind
from repro.request import Request, RequestType
from repro.sim.system import GPUSystem
from repro.workloads.synthetic import GPUKernelProfile, PIMStreamKernel
from tests.engine_harness import pop_next


def mem_request(channel):
    req = Request(type=RequestType.MEM_LOAD, address=0)
    req.channel = channel
    return req


def pim_request(channel):
    req = Request(type=RequestType.PIM, address=0, pim_op=PIMOp(PIMOpKind.LOAD))
    req.channel = channel
    return req


class TestMeshShape:
    def test_coordinates_roundtrip(self):
        shape = MeshShape(4, 3)
        for node in range(shape.nodes):
            x, y = shape.coordinates(node)
            assert shape.node_at(x, y) == node

    def test_fit_is_minimal_and_sufficient(self):
        for n in (1, 2, 5, 12, 17):
            shape = MeshShape.fit(n)
            assert shape.nodes >= n
            if shape.height > 1:
                assert shape.width * (shape.height - 1) < n

    def test_validation(self):
        with pytest.raises(ValueError):
            MeshShape(0, 3)


class TestMeshFabric:
    def make(self, num_sms=2, num_channels=2, num_vcs=1):
        fabric = MeshFabric(num_sms=num_sms, num_channels=num_channels, num_vcs=num_vcs)
        sm_buffers = [VCBuffer(8, num_vcs) for _ in range(num_sms)]
        channel_buffers = [VCBuffer(8, num_vcs) for _ in range(num_channels)]
        return fabric, sm_buffers, channel_buffers

    def test_request_traverses_mesh(self):
        fabric, sms, channels = self.make()
        req = mem_request(channel=1)
        sms[0].try_push(req)
        for cycle in range(20):
            fabric.step(cycle, sms, channels)
            if channels[1]:
                break
        assert pop_next(channels[1]) is req
        assert fabric.transfers == 1
        assert fabric.in_flight() == 0

    def test_requests_arrive_at_correct_channels(self):
        fabric, sms, channels = self.make(num_sms=3, num_channels=3)
        sent = {}
        for sm_index, channel in ((0, 2), (1, 0), (2, 1)):
            req = mem_request(channel)
            sent[channel] = req
            sms[sm_index].try_push(req)
        for cycle in range(30):
            fabric.step(cycle, sms, channels)
        for channel, req in sent.items():
            assert pop_next(channels[channel]) is req

    def test_one_hop_per_cycle(self):
        fabric, sms, channels = self.make(num_sms=1, num_channels=1)
        # SM at node 0, channel at the far corner: several hops needed.
        req = mem_request(channel=0)
        sms[0].try_push(req)
        cycles = 0
        while not channels[0]:
            fabric.step(cycles, sms, channels)
            cycles += 1
            assert cycles < 50
        min_hops = fabric.shape.width - 1 + fabric.shape.height - 1
        assert cycles >= min_hops

    def test_backpressure_holds_flits_in_network(self):
        fabric, sms, channels = self.make()
        channels[0] = VCBuffer(1, 1)
        channels[0].try_push(mem_request(0))  # full ejection buffer
        req = mem_request(channel=0)
        sms[0].try_push(req)
        for cycle in range(30):
            fabric.step(cycle, sms, channels)
        assert fabric.in_flight() == 1  # parked inside the mesh

    def test_vc2_pim_does_not_block_mem(self):
        fabric, sms, channels = self.make(num_vcs=2)
        # Fill channel 0's PIM VC so PIM flits park in the mesh.
        assert channels[0].try_push(pim_request(0))
        blocked_pim = [pim_request(0) for _ in range(12)]
        mem = mem_request(0)
        buffer_order = blocked_pim[:2] + [mem] + blocked_pim[2:]
        for req in buffer_order:
            sms[0].try_push(req)
        for cycle in range(60):
            fabric.step(cycle, sms, channels)
        # The MEM request reached its (separate) VC despite the PIM jam.
        assert len(channels[0].queue_for(mem)) == 1

    @settings(max_examples=20, deadline=None)
    @given(
        destinations=st.lists(st.integers(0, 3), min_size=1, max_size=24)
    )
    def test_conservation_property(self, destinations):
        """Every injected request is eventually ejected exactly once."""
        fabric, sms, channels = self.make(num_sms=4, num_channels=4)
        channels = [VCBuffer(64, 1) for _ in range(4)]
        pending = []
        for i, dest in enumerate(destinations):
            req = mem_request(dest)
            pending.append((dest, req))
            sms[i % 4].try_push(req)
        for cycle in range(400):
            fabric.step(cycle, sms, channels)
            if all(not b for b in sms) and fabric.in_flight() == 0:
                break
        assert fabric.in_flight() == 0
        arrived = {}
        for i in range(4):
            items = []
            while True:
                request = pop_next(channels[i])
                if request is None:
                    break
                items.append(request)
            arrived[i] = items
        for dest, req in pending:
            assert req in arrived[dest]

    def test_idle_steps_do_not_shift_arbitration(self):
        """Arbitration is keyed to the cycle, not to the number of calls.

        The engine skips the fabric on cycles with nothing to move, so
        the same traffic offered at the same cycle must be served in the
        same order whether or not ``step`` ran while the mesh was empty.
        """
        start = 3

        def ejection_order(idle_steps):
            fabric, sms, channels = self.make(num_sms=4, num_channels=1)
            channels = [VCBuffer(64, 1)]
            for cycle in range(start - idle_steps, start):
                fabric.step(cycle, sms, channels)
            for sm_index, buffer in enumerate(sms):
                for k in range(4):
                    request = mem_request(0)
                    request.address = 100 * sm_index + k
                    buffer.try_push(request)
            order = []
            for cycle in range(start, start + 80):
                order += [r.address for _, r in fabric.step(cycle, sms, channels)]
            assert len(order) == 16
            return order

        assert ejection_order(idle_steps=0) == ejection_order(idle_steps=start)


class TestMeshSystem:
    def test_full_system_on_mesh(self):
        config = SystemConfig.scaled(num_channels=4, num_sms=4).replace(
            noc_topology="mesh"
        )
        system = GPUSystem(config, PolicySpec("F3FS"))
        system.add_kernel(
            GPUKernelProfile(name="mesh-gpu", accesses_per_warp=96), num_sms=2, loop=True
        )
        system.add_kernel(
            PIMStreamKernel(name="mesh-pim", elements_per_warp=96), num_sms=1, loop=True
        )
        result = system.run(max_cycles=500_000)
        assert result.all_completed
        assert system.mesh.average_hops() >= 1.0

    def test_mesh_slower_than_crossbar(self):
        """Multi-hop traversal adds latency vs the single-stage crossbar."""
        durations = {}
        for topology in ("crossbar", "mesh"):
            config = SystemConfig.scaled(num_channels=4, num_sms=4).replace(
                noc_topology=topology
            )
            system = GPUSystem(config, PolicySpec("FR-FCFS"))
            system.add_kernel(
                GPUKernelProfile(name="topo-gpu", accesses_per_warp=128, l2_reuse=0.0),
                num_sms=2,
            )
            result = system.run(max_cycles=500_000)
            assert result.all_completed
            durations[topology] = result.kernels[0].first_duration
        assert durations["mesh"] > durations["crossbar"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SystemConfig.scaled().replace(noc_topology="torus")
