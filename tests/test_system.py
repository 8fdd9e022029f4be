"""Integration tests for the full GPUSystem pipeline."""

import pytest

from repro.config import SystemConfig
from repro.core.policies import PAPER_POLICY_ORDER, PolicySpec
from repro.sim.system import GPUSystem
from repro.workloads import get_gpu_kernel, get_pim_kernel
from repro.workloads.synthetic import GPUKernelProfile, PIMStreamKernel


def tiny_config(num_vcs=1, **kwargs):
    defaults = dict(num_channels=4, num_sms=4, noc_queue_size=32)
    defaults.update(kwargs)
    return SystemConfig.scaled(**defaults).replace(num_virtual_channels=num_vcs)


def small_gpu(name="it-gpu", **kwargs):
    defaults = dict(accesses_per_warp=96, compute_per_phase=10)
    defaults.update(kwargs)
    return GPUKernelProfile(name=name, **defaults)


def small_pim(name="it-pim", **kwargs):
    defaults = dict(elements_per_warp=128)
    defaults.update(kwargs)
    return PIMStreamKernel(name=name, **defaults)


class TestStandalone:
    def test_gpu_kernel_completes(self):
        system = GPUSystem(tiny_config(), PolicySpec("FR-FCFS"))
        system.add_kernel(small_gpu(), num_sms=2)
        result = system.run(max_cycles=200_000)
        assert result.all_completed
        kernel = result.kernels[0]
        assert kernel.first_duration > 0
        assert kernel.requests_injected > 0
        assert kernel.mc_arrivals <= kernel.requests_injected  # L2 filters

    def test_pim_kernel_completes(self):
        system = GPUSystem(tiny_config(), PolicySpec("FR-FCFS"))
        system.add_kernel(small_pim(), num_sms=1)
        result = system.run(max_cycles=200_000)
        assert result.all_completed
        kernel = result.kernels[0]
        # PIM bypasses the L2 entirely: all injected requests reach the MC.
        assert kernel.mc_arrivals == kernel.requests_injected
        assert kernel.l2_accesses == 0

    def test_pim_blp_is_all_banks(self):
        system = GPUSystem(tiny_config(), PolicySpec("FR-FCFS"))
        system.add_kernel(small_pim(), num_sms=1)
        result = system.run(max_cycles=200_000)
        assert result.bank_level_parallelism == pytest.approx(16.0)

    def test_pim_rbhr_high(self):
        system = GPUSystem(tiny_config(), PolicySpec("FR-FCFS"))
        system.add_kernel(small_pim(), num_sms=1)
        result = system.run(max_cycles=200_000)
        assert result.kernels[0].row_buffer_hit_rate > 0.8

    def test_request_conservation(self):
        """injected == completed when the system drains."""
        system = GPUSystem(tiny_config(), PolicySpec("FR-FCFS"))
        system.add_kernel(small_gpu(), num_sms=2)
        system.run(max_cycles=200_000)
        assert all(v == 0 for v in system._kernel_inflight.values())


class TestCompetitive:
    def test_both_complete_with_looping(self):
        system = GPUSystem(tiny_config(), PolicySpec("F3FS"))
        system.add_kernel(small_gpu(), num_sms=2, loop=True)
        system.add_kernel(small_pim(), num_sms=1, loop=True)
        result = system.run(max_cycles=500_000)
        assert result.all_completed
        assert result.mode_switches > 0

    def test_contention_slows_gpu_kernel(self):
        alone = GPUSystem(tiny_config(), PolicySpec("FR-FCFS"))
        alone.add_kernel(small_gpu(l2_reuse=0.0), num_sms=2)
        alone_result = alone.run(max_cycles=500_000)

        contended = GPUSystem(tiny_config(), PolicySpec("FR-FCFS"))
        contended.add_kernel(small_gpu(l2_reuse=0.0), num_sms=2, loop=True)
        contended.add_kernel(small_pim(), num_sms=1, loop=True)
        contended_result = contended.run(max_cycles=500_000)

        assert (
            contended_result.kernels[0].first_duration
            > alone_result.kernels[0].first_duration
        )

    def test_vc2_improves_gpu_under_pim_flood(self):
        """The paper's headline: separate VCs restore MEM service."""
        durations = {}
        for vcs in (1, 2):
            system = GPUSystem(tiny_config(num_vcs=vcs), PolicySpec("MEM-First"))
            system.add_kernel(small_gpu(l2_reuse=0.0), num_sms=2, loop=True)
            system.add_kernel(small_pim(elements_per_warp=512), num_sms=1, loop=True)
            result = system.run(max_cycles=150_000)
            durations[vcs] = result.kernels[0].first_duration or result.cycles
        assert durations[2] < durations[1]

    @pytest.mark.parametrize("policy", PAPER_POLICY_ORDER)
    def test_all_policies_run_in_system(self, policy):
        system = GPUSystem(tiny_config(num_vcs=2), PolicySpec(policy))
        system.add_kernel(small_gpu(), num_sms=2, loop=True)
        system.add_kernel(small_pim(), num_sms=1, loop=True)
        result = system.run(max_cycles=500_000)
        assert result.all_completed

    def test_same_trace_standalone_and_contended(self):
        """The GPU kernel injects identical traffic in both runs."""
        alone = GPUSystem(tiny_config(), PolicySpec("FR-FCFS"), seed=5)
        alone.add_kernel(small_gpu(), num_sms=2)
        a = alone.run(max_cycles=500_000)

        contended = GPUSystem(tiny_config(), PolicySpec("FR-FCFS"), seed=5)
        contended.add_kernel(small_gpu(), num_sms=2)
        contended.add_kernel(small_pim(), num_sms=1)
        b = contended.run(max_cycles=500_000)
        assert a.kernels[0].requests_injected == b.kernels[0].requests_injected

    def test_determinism(self):
        def run_once():
            system = GPUSystem(tiny_config(), PolicySpec("F3FS"), seed=9)
            system.add_kernel(small_gpu(), num_sms=2, loop=True)
            system.add_kernel(small_pim(), num_sms=1, loop=True)
            result = system.run(max_cycles=500_000)
            return (
                result.cycles,
                result.mode_switches,
                [k.first_duration for k in result.kernels.values()],
            )

        assert run_once() == run_once()


class TestValidation:
    def test_too_many_sms_rejected(self):
        system = GPUSystem(tiny_config(), PolicySpec("FCFS"))
        with pytest.raises(ValueError):
            system.add_kernel(small_gpu(), num_sms=99)

    def test_zero_sms_rejected(self):
        system = GPUSystem(tiny_config(), PolicySpec("FCFS"))
        with pytest.raises(ValueError):
            system.add_kernel(small_gpu(), num_sms=0)

    def test_run_without_kernels_rejected(self):
        with pytest.raises(ValueError):
            GPUSystem(tiny_config(), PolicySpec("FCFS")).run()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SystemConfig.scaled(num_channels=3)
        with pytest.raises(ValueError):
            SystemConfig(num_virtual_channels=3)


class TestFunctional:
    def test_pim_vector_add_end_to_end(self):
        """Run a real PIM vector-add through the full system and check data."""
        from repro.pim.isa import PIMOpKind
        from repro.workloads.synthetic import PIMStreamKernel

        config = tiny_config()
        system = GPUSystem(config, PolicySpec("FCFS"), functional=True)
        spec = PIMStreamKernel(
            name="func-add",
            ops=((PIMOpKind.LOAD, 0), (PIMOpKind.ADD, 1), (PIMOpKind.STORE, 2)),
            elements_per_warp=8,
        )
        run = system.add_kernel(spec, num_sms=1)
        ctx_probe = None
        # Initialize vectors a (role 0) and b (role 1) on every channel/bank
        # at the locations the kernel's layout dictates.
        from repro.gpu.kernel import LaunchContext
        import numpy as np

        ctx_probe = LaunchContext(
            mapper=config.mapper,
            num_channels=config.num_channels,
            banks_per_channel=config.banks_per_channel,
            num_sms=1,
            warps_per_sm=config.warps_per_sm,
            rng=np.random.default_rng(0),
        )
        for channel in range(config.num_channels):
            for bank in range(config.banks_per_channel):
                for element in range(8):
                    row_a, col_a = spec.operand_location(ctx_probe, 0, element)
                    row_b, col_b = spec.operand_location(ctx_probe, 1, element)
                    system.store.write(channel, bank, row_a, col_a, 3.0)
                    system.store.write(channel, bank, row_b, col_b, 4.0)
        result = system.run(max_cycles=200_000)
        assert result.all_completed
        # Warps covered all four channels; role 2's locations hold a+b.
        for channel in range(config.num_channels):
            for bank in range(config.banks_per_channel):
                for element in range(8):
                    row_c, col_c = spec.operand_location(ctx_probe, 2, element)
                    assert system.store.read(channel, bank, row_c, col_c) == pytest.approx(7.0)
