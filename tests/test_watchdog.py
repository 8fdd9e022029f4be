"""Simulation watchdog: stall detection, diagnostics, bit-identity.

The watchdog's contract has two halves: a livelocked system raises
``SimulationStalled`` with a useful diagnostic within two windows, and a
healthy system is *bit-identical* with the watchdog on or off — it
observes, it never schedules.
"""

import pickle

import pytest

from repro.config import SystemConfig
from repro.core.policies import PolicySpec
from repro.resilience.watchdog import (
    DEFAULT_WINDOW,
    SimulationStalled,
    Watchdog,
    progress_signature,
)
from repro.sim.system import GPUSystem
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
        system.enable_watchdog(WINDOW)
        livelock(system)
        frozen_at = system.cycle
        with pytest.raises(SimulationStalled) as excinfo:
            for _ in range(2 * WINDOW + 10):
                system.step()
        assert system.cycle - frozen_at <= 2 * WINDOW
        assert f"{WINDOW} cycles" in str(excinfo.value)

    def test_diagnostic_dump_contents(self):
        system = tiny_system()
        system.enable_watchdog(WINDOW)
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
            assert {"mode", "mem_queue", "pim_queue", "switching"} <= set(channel)
        # The dump must be journal-able: plain JSON types only.
        import json

        json.dumps(diag)

    def test_stall_pickles_across_process_boundary(self):
        system = tiny_system()
        system.enable_watchdog(WINDOW)
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
        system.enable_watchdog(WINDOW)
        livelock(system)
        with pytest.raises(SimulationStalled):
            for _ in range(2 * WINDOW + 10):
                system.step()
        assert system.telemetry.events.by_kind().get(obs_events.WATCHDOG) == 1


class TestHealthyRuns:
    def test_no_false_positive_on_completing_kernel(self):
        # Window far below the kernel's duration: many checks, no stall.
        system = tiny_system()
        watchdog = system.enable_watchdog(500)
        result = system.run(max_cycles=200_000)
        assert result.all_completed
        assert watchdog.stalls_checked > 0

    @pytest.mark.parametrize("fast_forward", ["0", "1"])
    def test_bit_identical_with_watchdog_on_or_off(self, tmp_path, monkeypatch, fast_forward):
        """Armed vs unarmed sweeps produce the same bytes AND the same
        store fingerprints (the window lives outside ExperimentScale)."""
        monkeypatch.setenv("REPRO_FAST_FORWARD", fast_forward)
        from repro.experiments import run_sweep
        from tests.test_store_resume import TINY, table_bytes, tiny_tasks

        tasks = tiny_tasks()
        plain = run_sweep(TINY, tasks, store_dir=str(tmp_path / "s"))
        armed = run_sweep(TINY, tasks, store_dir=str(tmp_path / "s"), watchdog=2000)
        assert armed.hits == len(tasks)  # same fingerprints: pure cache hits
        assert table_bytes(armed.completed_outcomes()) == table_bytes(
            plain.completed_outcomes()
        )


class TestWatchdogObject:
    def test_enable_is_idempotent(self):
        system = tiny_system()
        first = system.enable_watchdog(WINDOW)
        assert system.enable_watchdog(123) is first
        assert first.window == WINDOW

    def test_default_window(self):
        system = tiny_system()
        assert system.enable_watchdog().window == DEFAULT_WINDOW

    @pytest.mark.parametrize("window", [0, -5, 2.5, True, "big"])
    def test_bad_window_rejected(self, window):
        with pytest.raises(ValueError, match="watchdog window"):
            Watchdog(window)

    @pytest.mark.parametrize("window", [0, -5])
    def test_dispatchers_refuse_bad_window_before_any_cell(self, tmp_path, window):
        """A bad window is refused up front instead of quarantining every
        cell as ``config`` and reporting an empty table."""
        from repro.experiments import run_sweep
        from repro.fabric import FabricWorker
        from tests.test_store_resume import TINY, tiny_tasks

        tasks = tiny_tasks()[:1]
        store = tmp_path / "s"
        with pytest.raises(ValueError, match="watchdog window"):
            run_sweep(TINY, tasks, store_dir=str(store), watchdog=window)
        assert not store.exists()  # nothing dispatched, nothing journaled
        with pytest.raises(ValueError, match="watchdog window"):
            FabricWorker("w", "127.0.0.1:1", tmp_path / "scratch", watchdog_window=window)

    def test_signature_moves_on_healthy_system(self):
        system = tiny_system()
        for run in system.runs:
            system._launch(run)
        before = progress_signature(system)
        for _ in range(2000):
            system.step()
        assert progress_signature(system) != before
