"""Simulation watchdog: stall detection, diagnostics, bit-identity.

The watchdog's contract has two halves: a livelocked system raises
``SimulationStalled`` with a useful diagnostic within two windows, and a
healthy system is *bit-identical* however often the watchdog scans — it
observes, it never schedules.  Every system arms one with its derived
window; a test that needs a short window assigns ``system.watchdog``.
"""

import pickle
from dataclasses import asdict, replace

import pytest

from repro.config import SystemConfig
from repro.core.policies import PolicySpec
from repro.resilience.watchdog import (
    SimulationStalled,
    Watchdog,
    progress_signature,
    stall_window,
)
from repro.sim.system import GPUSystem
from repro.workloads import get_gpu_kernel, get_pim_kernel
from repro.workloads.synthetic import GPUKernelProfile

WINDOW = 3000

STAGES = (
    "_stage_completions",
    "_stage_replies",
    "_stage_controllers",
    "_stage_mc_ingress",
    "_stage_l2",
    "_stage_writebacks",
    "_stage_crossbar",
    "_stage_sms",
    "_stage_kernel_completion",
)


def tiny_system(num_vcs=1, **kwargs):
    defaults = dict(num_channels=4, num_sms=4, noc_queue_size=32)
    defaults.update(kwargs)
    config = SystemConfig.scaled(**defaults).replace(num_virtual_channels=num_vcs)
    system = GPUSystem(config, PolicySpec("FR-FCFS"))
    system.watchdog = Watchdog(WINDOW)
    system.add_kernel(
        GPUKernelProfile(name="wd-gpu", accesses_per_warp=96, compute_per_phase=10),
        num_sms=2,
    )
    return system


def livelock(system):
    """Freeze every pipeline stage with work buffered: a true livelock.

    The cycle counter keeps advancing but no request can ever retire —
    exactly the failure mode (a policy that never grants, an arbiter
    deadlock) the watchdog exists to catch.
    """
    for run in system.runs:
        system._launch(run)
    steps = 0
    while system.backlog() == 0 and steps < 50_000:
        system.step()
        steps += 1
    assert system.backlog() > 0, "workload never buffered a request"
    for name in STAGES:
        setattr(system, name, lambda: None)


class TestStallDetection:
    @pytest.mark.parametrize("fast_forward", ["0", "1"])
    def test_livelock_raises_within_two_windows(self, monkeypatch, fast_forward):
        # The engine ticks every cycle whatever a stale REPRO_FAST_FORWARD
        # says, so the checks fire on schedule either way.
        monkeypatch.setenv("REPRO_FAST_FORWARD", fast_forward)
        system = tiny_system()
        livelock(system)
        frozen_at = system.cycle
        with pytest.raises(SimulationStalled) as excinfo:
            for _ in range(2 * WINDOW + 10):
                system.step()
        assert system.cycle - frozen_at <= 2 * WINDOW
        assert f"{WINDOW} cycles" in str(excinfo.value)

    def test_diagnostic_dump_contents(self):
        system = tiny_system()
        livelock(system)
        with pytest.raises(SimulationStalled) as excinfo:
            for _ in range(2 * WINDOW + 10):
                system.step()
        diag = excinfo.value.diagnostic
        assert diag["window"] == WINDOW
        assert diag["backlog"] >= 1
        assert diag["cycle"] == system.cycle
        assert len(diag["channels"]) == system.config.num_channels
        for channel in diag["channels"]:
            assert {
                "mode", "mem_queue", "pim_queue", "switching", "mem_in_flight", "pim_busy_until"
            } <= set(channel)
            # PIM occupancy: the cycle the lock-step executor frees.
            assert isinstance(channel["pim_busy_until"], int)
        # The dump must be journal-able: plain JSON types only.
        import json

        json.dumps(diag)

    def test_stall_pickles_across_process_boundary(self):
        system = tiny_system()
        livelock(system)
        with pytest.raises(SimulationStalled) as excinfo:
            for _ in range(2 * WINDOW + 10):
                system.step()
        clone = pickle.loads(pickle.dumps(excinfo.value))
        assert str(clone) == str(excinfo.value)
        assert clone.diagnostic == excinfo.value.diagnostic

    def test_emits_telemetry_event_before_raising(self):
        from repro.obs import events as obs_events

        system = tiny_system()
        system.enable_telemetry()
        livelock(system)
        with pytest.raises(SimulationStalled):
            for _ in range(2 * WINDOW + 10):
                system.step()
        assert system.telemetry.events.by_kind().get(obs_events.WATCHDOG) == 1


class TestHealthyRuns:
    def test_no_false_positive_on_completing_kernel(self):
        # Window far below the kernel's duration: many checks, no stall.
        system = tiny_system()
        system.watchdog = watchdog = Watchdog(500)
        result = system.run(max_cycles=200_000)
        assert result.all_completed
        assert watchdog.stalls_checked > 0

    @pytest.mark.parametrize("refresh", [False, True])
    def test_bit_identical_however_often_it_scans(self, refresh):
        """A system that never scans, one on its derived window and one
        scanning every 50 cycles run to the same result."""
        results = []
        for window in (10**12, None, 50):
            config = SystemConfig.scaled(num_channels=4, num_sms=4).replace(
                num_virtual_channels=2, refresh_enabled=refresh
            )
            system = GPUSystem(config, PolicySpec("F3FS"), seed=1, scale=0.05)
            if window is not None:
                system.watchdog = Watchdog(window)
            system.add_kernel(get_gpu_kernel("G17"), num_sms=3, loop=True)
            system.add_kernel(get_pim_kernel("P2"), num_sms=1, loop=True)
            result = system.run(max_cycles=200_000)
            assert result.all_completed
            assert system.watchdog.stalls_checked == (result.cycles - 1) // system.watchdog.window
            results.append(asdict(result))
        assert results[0] == results[1] == results[2]


class TestWatchdogObject:
    def test_every_system_is_armed_with_its_derived_window(self):
        config = SystemConfig.scaled(num_channels=4, num_sms=4)
        watchdog = GPUSystem(config, PolicySpec("FR-FCFS")).watchdog
        assert watchdog.window == watchdog.next_check == stall_window(config)

    def test_window_is_a_multiple_of_the_longest_blocking_latency(self):
        config = SystemConfig.scaled()
        assert stall_window(config) == 16 * config.timings.tRFC  # 3520 cycles
        slow = config.replace(timings=replace(config.timings, tRFC=400))
        assert stall_window(slow) == 16 * 400
        # Without a long refresh the PIM row switch (tRAS + tRP + tRCD) rules.
        fast = config.replace(timings=replace(config.timings, tRFC=10))
        timings = fast.timings
        assert stall_window(fast) == 16 * (timings.tRAS + timings.tRP + timings.tRCD)

    @pytest.mark.parametrize("window", [0, -5, 2.5, True, "big"])
    def test_bad_window_rejected(self, window):
        with pytest.raises(ValueError, match="watchdog window"):
            Watchdog(window)

    def test_signature_moves_on_healthy_system(self):
        system = tiny_system()
        for run in system.runs:
            system._launch(run)
        before = progress_signature(system)
        for _ in range(2000):
            system.step()
        assert progress_signature(system) != before
