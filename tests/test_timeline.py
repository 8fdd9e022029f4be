"""Tests for the timeline sampler."""

import pytest

from repro.config import SystemConfig
from repro.core.policies import PolicySpec
from repro.metrics.timeline import TimelineSampler
from repro.sim.system import GPUSystem
from repro.workloads.synthetic import GPUKernelProfile, PIMStreamKernel


def run_with_timeline(policy="F3FS", interval=50):
    config = SystemConfig.scaled(num_channels=4, num_sms=4)
    system = GPUSystem(config, PolicySpec(policy))
    timeline = system.attach_timeline(interval=interval)
    system.add_kernel(
        GPUKernelProfile(name="tl-gpu", accesses_per_warp=96, compute_per_phase=5),
        num_sms=2,
        loop=True,
    )
    system.add_kernel(PIMStreamKernel(name="tl-pim", elements_per_warp=96), num_sms=1, loop=True)
    result = system.run(max_cycles=300_000)
    return system, timeline, result


class TestSampler:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimelineSampler(interval=0)

    def test_samples_recorded_on_cadence(self):
        system, timeline, result = run_with_timeline(interval=50)
        assert len(timeline.samples) >= result.cycles // 50
        cycles = [s.cycle for s in timeline.samples]
        assert all(c % 50 == 0 for c in cycles)
        assert cycles == sorted(cycles)

    def test_mode_share_sums_to_one(self):
        _, timeline, _ = run_with_timeline()
        share = timeline.mode_share()
        assert sum(share.values()) == pytest.approx(1.0)
        # Both modes appear during MEM/PIM co-execution.
        assert share["mem"] > 0
        assert share["pim"] > 0

    def test_occupancy_series(self):
        system, timeline, _ = run_with_timeline()
        channels = system.config.num_channels
        for sample in timeline.samples:
            assert len(sample.mem_queue_occupancy) == channels
            assert len(sample.pim_queue_occupancy) == channels
        # The PIM queue was used.
        assert max(max(s.pim_queue_occupancy) for s in timeline.samples) > 0

    def test_switch_points_detected(self):
        _, timeline, _ = run_with_timeline(interval=10)
        modes = [sample.modes[0] for sample in timeline.samples]
        assert any(a != b for a, b in zip(modes, modes[1:]))

    def test_render_strip(self):
        _, timeline, _ = run_with_timeline(interval=10)
        strip = timeline.render_strip(channel=0, width=40)
        assert 0 < len(strip) <= 40
        assert set(strip) <= {"M", "P", "|"}

    def test_empty_sampler_renders_empty(self):
        sampler = TimelineSampler()
        assert sampler.render_strip() == ""
        assert sampler.mode_share()["mem"] == 0.0

    def test_unknown_modes_bucketed_not_crashing(self):
        sampler = TimelineSampler()
        _, timeline, _ = run_with_timeline(interval=50)
        sampler.samples = list(timeline.samples)
        # Corrupt one sample with a mode name the sampler never emitted.
        first = sampler.samples[0]
        sampler.samples[0] = first.__class__(
            cycle=first.cycle,
            modes=["weird"] * len(first.modes),
            mem_queue_occupancy=first.mem_queue_occupancy,
            pim_queue_occupancy=first.pim_queue_occupancy,
            noc_occupancy=first.noc_occupancy,
        )
        share = sampler.mode_share()
        assert share.get("other", 0) > 0
        assert sum(share.values()) == pytest.approx(1.0)
        strip = sampler.render_strip(channel=0, width=len(sampler.samples))
        assert "?" in strip

    def test_to_rows_matches_samples(self):
        _, timeline, _ = run_with_timeline(interval=50)
        rows = timeline.to_rows()
        assert len(rows) == len(timeline.samples)
        for row, sample in zip(rows, timeline.samples):
            assert row["cycle"] == sample.cycle
            assert row["modes"] == list(sample.modes)
            assert row["mem_queue"] == list(sample.mem_queue_occupancy)
            assert row["pim_queue"] == list(sample.pim_queue_occupancy)
            assert row["noc"] == list(sample.noc_occupancy)
