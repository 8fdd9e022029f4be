"""Tests for the DRAM refresh model and its controller integration."""

import pytest

from repro.config import SystemConfig
from repro.core.controller import MemoryController
from repro.core.policies import PolicySpec, make_policy
from repro.dram.channel import Channel
from repro.dram.refresh import RefreshTimer
from repro.dram.timings import DRAMTimings
from repro.pim.executor import PIMExecutor
from repro.request import Request, RequestType
from repro.sim.system import GPUSystem
from repro.workloads.synthetic import GPUKernelProfile
from tests.engine_harness import drained


class TestRefreshTimer:
    def test_accrues_on_schedule(self):
        timer = RefreshTimer(trefi=100, trfc=10)
        assert timer.pending(50) == 0
        assert timer.pending(100) == 1
        assert timer.pending(350) == 3

    def test_perform_consumes_obligation(self):
        timer = RefreshTimer(trefi=100, trfc=10)
        assert timer.pending(250) == 2
        end = timer.perform(250)
        assert end == 260
        assert timer.pending(250) == 1
        assert timer.stats.refreshes_issued == 1

    def test_must_refresh_after_postponement_budget(self):
        timer = RefreshTimer(trefi=100, trfc=10, max_postponed=3)
        assert not timer.must_refresh(250)
        assert timer.must_refresh(300)

    def test_perform_without_obligation_raises(self):
        timer = RefreshTimer(trefi=100, trfc=10)
        with pytest.raises(RuntimeError):
            timer.perform(10)

    def test_disabled_timer(self):
        timer = RefreshTimer(trefi=100, trfc=10, enabled=False)
        assert timer.pending(1_000_000) == 0
        assert not timer.should_refresh(1_000_000)
        with pytest.raises(RuntimeError):
            timer.perform(1_000_000)

    def test_validation(self):
        with pytest.raises(ValueError):
            RefreshTimer(trefi=0, trfc=10)
        with pytest.raises(ValueError):
            RefreshTimer(trefi=10, trfc=10, max_postponed=-1)

    def test_backlog_tracking(self):
        timer = RefreshTimer(trefi=100, trfc=10)
        timer.pending(500)
        assert timer.stats.max_backlog == 5


class TestControllerRefresh:
    def make_controller(self, trefi=200, trfc=20):
        timings = DRAMTimings(tREFI=trefi, tRFC=trfc)
        channel = Channel(0, 4, timings)
        pim = PIMExecutor(channel, fus_per_channel=2, rf_entries_per_bank=8)
        return MemoryController(
            channel, pim, make_policy("FR-FCFS"), refresh_enabled=True
        )

    def test_refresh_closes_rows(self):
        ctl = self.make_controller()
        req = Request(type=RequestType.MEM_LOAD, address=0)
        req.channel, req.bank, req.row, req.column = 0, 0, 3, 0
        ctl.enqueue(req, 0)
        cycle = 0
        while not drained(ctl, cycle) and cycle < 10_000:
            ctl.pop_completed(cycle)
            ctl.tick(cycle)
            cycle += 1
        assert ctl.channel.banks[0].open_row == 3
        # Run past the postponement budget with idle queues: the
        # opportunistic path refreshes and precharges everything.
        for cycle in range(cycle, cycle + 250):
            ctl.tick(cycle)
        assert ctl.refresh.stats.refreshes_issued >= 1
        assert ctl.channel.banks[0].open_row is None

    def test_forced_refresh_blocks_issue(self):
        ctl = self.make_controller(trefi=50, trfc=30)
        # Keep the MEM queue loaded so only the forced path can fire.
        for i in range(8):
            req = Request(type=RequestType.MEM_LOAD, address=0)
            req.channel, req.bank, req.row, req.column = 0, i % 4, i, 0
            ctl.enqueue(req, 0)
        issued_during_refresh = 0
        refreshing = False
        for cycle in range(5_000):
            ctl.pop_completed(cycle)
            before = ctl.refresh.stats.refreshes_issued
            issued = ctl.tick(cycle)
            refreshing = cycle < ctl._refresh_until
            if refreshing and issued is not None:
                issued_during_refresh += 1
        assert ctl.refresh.stats.refreshes_issued >= 8  # forced repeatedly
        assert issued_during_refresh == 0


class TestSystemRefresh:
    def test_refresh_slows_execution(self):
        spec = GPUKernelProfile(name="refresh-test", accesses_per_warp=128,
                                compute_per_phase=5, l2_reuse=0.0)
        durations = {}
        for enabled in (False, True):
            config = SystemConfig.scaled(num_channels=4, num_sms=4).replace(
                refresh_enabled=enabled,
                timings=DRAMTimings(tREFI=400, tRFC=100),  # exaggerated
            )
            system = GPUSystem(config, PolicySpec("FR-FCFS"))
            system.add_kernel(spec, num_sms=2)
            result = system.run(max_cycles=500_000)
            assert result.all_completed
            durations[enabled] = result.kernels[0].first_duration
        assert durations[True] > durations[False]
