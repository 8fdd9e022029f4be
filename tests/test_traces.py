"""Tests for trace export and replay."""

import json

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core.policies import PolicySpec
from repro.dram.address import AddressMapper, scaled_address_map
from repro.gpu.kernel import LaunchContext
from repro.sim.system import GPUSystem
from repro.workloads.synthetic import GPUKernelProfile, PIMStreamKernel
from repro.workloads.traces import TraceKernel, save_trace


def make_ctx(num_channels=4):
    return LaunchContext(
        mapper=AddressMapper(scaled_address_map(2)),
        num_channels=num_channels,
        banks_per_channel=16,
        num_sms=1,
        warps_per_sm=2,
        rng=np.random.default_rng(0),
    )


@pytest.fixture
def gpu_trace(tmp_path):
    spec = GPUKernelProfile(name="traced-gpu", accesses_per_warp=48)
    path = tmp_path / "gpu.trace"
    phases = save_trace(spec, make_ctx(), path, sm_slots=1)
    assert phases > 0
    return spec, path


def trace_requests(path) -> int:
    """Requests recorded in a trace file (every line after the header)."""
    return sum(len(json.loads(line)["requests"]) for line in path.read_text().splitlines()[1:])


class TestSaveTrace:
    def test_header_and_phase_lines(self, gpu_trace):
        _, path = gpu_trace
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "gpu"
        assert header["version"] == 1
        phase = json.loads(lines[1])
        assert {"sm", "warp", "compute", "wait", "requests"} <= set(phase)

    def test_pim_trace_carries_ops(self, tmp_path):
        spec = PIMStreamKernel(name="traced-pim", elements_per_warp=8)
        path = tmp_path / "pim.trace"
        save_trace(spec, make_ctx(), path, sm_slots=1)
        lines = path.read_text().splitlines()
        phase = json.loads(lines[1])
        assert all("op" in r for r in phase["requests"])


class TestTraceKernel:
    def test_replay_matches_original(self, gpu_trace):
        spec, path = gpu_trace
        replay = TraceKernel(path)
        ctx = make_ctx()
        original = [
            (r.type, r.channel, r.bank, r.row, r.column)
            for phase in spec.warp_program(ctx, 0, 0)
            for r in phase.requests
        ]
        replayed = [
            (r.type, r.channel, r.bank, r.row, r.column)
            for phase in replay.warp_program(ctx, 0, 0)
            for r in phase.requests
        ]
        assert replayed == original

    def test_replay_runs_in_system(self, tmp_path):
        spec = PIMStreamKernel(name="traced-pim", elements_per_warp=32)
        config = SystemConfig.scaled(num_channels=4, num_sms=4)
        ctx = LaunchContext(
            mapper=config.mapper,
            num_channels=config.num_channels,
            banks_per_channel=config.banks_per_channel,
            num_sms=1,
            warps_per_sm=config.warps_per_sm,
            rng=np.random.default_rng(0),
        )
        path = tmp_path / "pim.trace"
        save_trace(spec, ctx, path, sm_slots=1)
        replay = TraceKernel(path)
        system = GPUSystem(config, PolicySpec("FR-FCFS"))
        system.add_kernel(replay, num_sms=1)
        result = system.run(max_cycles=300_000)
        assert result.all_completed
        assert result.kernels[0].requests_injected == trace_requests(path)

    def test_metadata_helpers(self, gpu_trace):
        _, path = gpu_trace
        replay = TraceKernel(path)
        assert replay.sm_slots() == 1
        assert replay.warps_per_sm(make_ctx()) == 2
        assert trace_requests(path) == 96  # 48 per warp x 2 warps

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("")
        with pytest.raises(ValueError):
            TraceKernel(path)

    def test_rejects_bad_version(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text('{"kind": "gpu", "version": 99}\n')
        with pytest.raises(ValueError):
            TraceKernel(path)

    def test_rejects_headerless_trace(self, tmp_path):
        path = tmp_path / "no-phases.trace"
        path.write_text('{"kind": "gpu", "version": 1}\n')
        with pytest.raises(ValueError):
            TraceKernel(path)
