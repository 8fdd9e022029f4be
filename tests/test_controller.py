"""Tests for the memory controller's queueing and mode-switch machinery."""

import pytest

from repro.config import SystemConfig
from repro.core.controller import MemoryController
from repro.core.policies import PolicySpec, make_policy
from repro.core.policies.base import NEVER
from repro.dram.channel import Channel
from repro.dram.timings import DRAMTimings
from repro.pim.executor import PIMExecutor
from repro.pim.isa import PIMOp, PIMOpKind
from repro.request import Mode, Request, RequestType
from repro.sim.system import GPUSystem
from repro.workloads import get_pim_kernel
from tests import engine_harness


def make_controller(policy_name="FCFS", num_banks=4, **policy_params):
    channel = Channel(0, num_banks, DRAMTimings())
    pim_exec = PIMExecutor(channel, fus_per_channel=num_banks // 2, rf_entries_per_bank=8)
    policy = make_policy(policy_name, **policy_params)
    return MemoryController(channel, pim_exec, policy, mem_queue_size=8, pim_queue_size=8)


def mem_request(bank=0, row=0, column=0, kernel_id=0):
    req = Request(type=RequestType.MEM_LOAD, address=0, kernel_id=kernel_id)
    req.channel, req.bank, req.row, req.column = 0, bank, row, column
    return req


def pim_request(row=0, column=0, kernel_id=1):
    req = Request(
        type=RequestType.PIM, address=0, kernel_id=kernel_id, pim_op=PIMOp(PIMOpKind.LOAD)
    )
    req.channel, req.bank, req.row, req.column = 0, 0, row, column
    return req


def drive(ctl, max_cycles=20_000):
    """Tick until all queued work completes; returns completions in order."""
    return engine_harness.drive(ctl, max_cycles)


class TestEnqueue:
    def test_accepts_until_full(self):
        ctl = make_controller()
        for i in range(8):
            assert ctl.enqueue(mem_request(bank=i % 4), cycle=0)
        assert not ctl.enqueue(mem_request(), cycle=0)
        assert ctl.stats.mem_rejected == 1

    def test_pim_queue_separate(self):
        ctl = make_controller()
        for _ in range(8):
            assert ctl.enqueue(pim_request(), cycle=0)
        assert not ctl.enqueue(pim_request(), cycle=0)
        assert ctl.enqueue(mem_request(), cycle=0)  # MEM queue unaffected

    def test_sequence_numbers_monotonic(self):
        ctl = make_controller()
        a, b, c = mem_request(), pim_request(), mem_request()
        for r in (a, b, c):
            ctl.enqueue(r, cycle=0)
        assert a.mc_seq < b.mc_seq < c.mc_seq

    def test_arrival_stats(self):
        ctl = make_controller()
        ctl.enqueue(mem_request(kernel_id=3), cycle=0)
        ctl.enqueue(pim_request(kernel_id=4), cycle=0)
        assert ctl.stats.mem_arrivals == 1
        assert ctl.stats.pim_arrivals == 1
        assert ctl.stats.kernel_mem_arrivals[3] == 1
        assert ctl.stats.kernel_pim_arrivals[4] == 1


class TestModeSwitching:
    def test_starts_in_mem_mode(self):
        ctl = make_controller()
        assert ctl.mode is Mode.MEM

    def test_pim_request_triggers_switch(self):
        ctl = make_controller()
        ctl.enqueue(pim_request(), cycle=0)
        drive(ctl)
        assert ctl.mode is Mode.PIM
        assert ctl.stats.switches == 1
        assert ctl.stats.switches_to_pim == 1

    def test_switch_waits_for_mem_drain(self):
        ctl = make_controller("FCFS")
        mem = mem_request(bank=0, row=0)
        ctl.enqueue(mem, cycle=0)
        ctl.tick(0)  # issues the MEM request
        ctl.enqueue(pim_request(), cycle=1)
        ctl.tick(1)  # policy wants to switch; drain begins
        assert ctl.is_switching
        # The PIM request must not issue before the MEM request completes.
        drain_cycle = ctl.channel.drain_complete_cycle()
        for cycle in range(2, drain_cycle):
            ctl.pop_completed(cycle)
            ctl.tick(cycle)
            assert ctl.stats.pim_issued == 0
        completed, _ = drive(ctl)
        assert ctl.stats.pim_issued == 1
        record = ctl.stats.switch_records[0]
        assert record.direction is Mode.PIM
        assert record.drain_latency > 0

    def test_switch_records_idle_bank_cycles(self):
        ctl = make_controller("FCFS")
        # Two banks: one short row hit chain, one long conflict, so one
        # bank idles while the other drains.
        ctl.enqueue(mem_request(bank=0, row=0), cycle=0)
        ctl.enqueue(mem_request(bank=1, row=0), cycle=0)
        ctl.enqueue(mem_request(bank=1, row=1), cycle=0)
        ctl.enqueue(pim_request(), cycle=0)
        drive(ctl)
        record = next(r for r in ctl.stats.switch_records if r.direction is Mode.PIM)
        assert record.idle_bank_cycles > 0

    def test_additional_conflict_attribution(self):
        ctl = make_controller("FCFS")
        # Open row 3 on bank 0, run PIM on row 9, then return to row 3.
        ctl.enqueue(mem_request(bank=0, row=3), cycle=0)
        completed, cycle = drive(ctl)
        ctl.enqueue(pim_request(row=9), cycle=cycle)
        completed, cycle = drive(ctl)
        ctl.enqueue(mem_request(bank=0, row=3), cycle=cycle)
        drive(ctl)
        assert ctl.stats.additional_conflicts == 1

    def test_no_conflict_attribution_for_other_rows(self):
        ctl = make_controller("FCFS")
        ctl.enqueue(mem_request(bank=0, row=3), cycle=0)
        completed, cycle = drive(ctl)
        ctl.enqueue(pim_request(row=9), cycle=cycle)
        completed, cycle = drive(ctl)
        # Returning to a *different* row is a conflict, but not switch-caused.
        ctl.enqueue(mem_request(bank=0, row=5), cycle=cycle)
        drive(ctl)
        assert ctl.stats.additional_conflicts == 0

    def test_mode_cycle_accounting(self):
        ctl = make_controller("FCFS")
        ctl.enqueue(mem_request(), cycle=0)
        ctl.enqueue(pim_request(), cycle=0)
        completed, cycle = drive(ctl)
        total = sum(ctl.stats.mode_cycles.values())
        assert total == cycle
        assert ctl.stats.mode_cycles[Mode.MEM] > 0


class TestServiceOrder:
    def test_fcfs_preserves_order(self):
        ctl = make_controller("FCFS")
        reqs = [mem_request(bank=i % 4, row=i) for i in range(6)]
        for r in reqs:
            ctl.enqueue(r, cycle=0)
        completed, _ = drive(ctl)
        issued_order = sorted(reqs, key=lambda r: r.cycle_issued)
        assert [r.id for r in issued_order] == [r.id for r in reqs]

    def test_pim_always_fcfs(self):
        ctl = make_controller("FR-FCFS")
        reqs = [pim_request(row=i // 2, column=i % 2) for i in range(6)]
        for r in reqs:
            ctl.enqueue(r, cycle=0)
        drive(ctl)
        issue_cycles = [r.cycle_issued for r in reqs]
        assert issue_cycles == sorted(issue_cycles)

    def test_conservation(self):
        """Every enqueued request is eventually completed exactly once."""
        ctl = make_controller("FR-FCFS")
        reqs = [mem_request(bank=i % 4, row=i % 3) for i in range(8)]
        reqs += [pim_request(row=i) for i in range(4)]
        for r in reqs:
            ctl.enqueue(r, cycle=0)
        completed, _ = drive(ctl)
        assert sorted(r.id for r in completed) == sorted(r.id for r in reqs)
        assert all(r.cycle_completed >= 0 for r in reqs)


class TestWakeRules:
    """The controller sleeps only on events that can change its decision."""

    def test_pim_row_switch_sleeps_until_executor_frees(self):
        ctl = make_controller("FCFS")
        ctl.enqueue(pim_request(row=0), cycle=0)
        ctl.enqueue(pim_request(row=1), cycle=0)
        cycle = 0
        while ctl.stats.pim_issued == 0:
            ctl.pop_completed(cycle)
            ctl.tick(cycle)
            cycle += 1
        # The first op switched the executor onto row 0; the head needs a
        # switch to row 1 and waits for the lock-step executor, not a bank.
        ctl.tick(cycle)
        assert ctl.mode is Mode.PIM and not ctl._dirty
        assert ctl.pim_exec.would_switch_row(ctl.pim_queue[0])
        assert all(bank.state.accept_at <= cycle for bank in ctl.channel.banks)
        assert ctl.pim_exec.busy_until > cycle + 1
        assert ctl._next_wake == ctl.pim_exec.busy_until

    def test_switch_drain_ignores_arrivals(self):
        ctl = make_controller("FCFS")
        ctl.enqueue(mem_request(bank=0, row=0), cycle=0)
        ctl.tick(0)  # issues the MEM request
        ctl.enqueue(pim_request(), cycle=1)
        ctl.tick(1)  # begins the MEM->PIM drain
        drain = ctl.channel.drain_complete_cycle()
        assert ctl.is_switching and drain > 3
        assert not ctl._dirty
        assert ctl._next_wake == drain
        ctl.enqueue(mem_request(bank=1, row=0), cycle=2)
        assert not ctl._dirty
        assert ctl._next_wake == drain

    def test_completion_leaves_controller_clean(self):
        ctl = make_controller("FCFS")
        ctl.enqueue(mem_request(), cycle=0)
        due = ctl.tick(0).cycle_completed  # issues the MEM request
        ctl.tick(1)  # nothing queued: sleeps
        assert not ctl._dirty
        assert len(ctl.pop_completed(due)) == 1
        assert not ctl._dirty

    def test_mem_to_pim_drain_ticks_only_when_it_completes(self):
        ctl = make_controller("FCFS")
        ctl.enqueue(mem_request(bank=0, row=0), cycle=0)
        ctl.enqueue(mem_request(bank=1, row=5), cycle=0)
        cycle = 0
        while ctl.stats.mem_issued < 2:
            ctl.pop_completed(cycle)
            ctl.tick(cycle)
            cycle += 1
        ctl.enqueue(pim_request(), cycle=cycle)
        ctl.tick(cycle)  # begins the MEM->PIM drain
        assert ctl.is_switching
        drain = ctl._drain_complete_cycle()
        landed = sorted(completion for completion, _, _ in ctl.channel._in_flight)
        assert landed[0] < drain  # one MEM request lands mid-drain
        # Tick the way the engine does: only when dirty or the wake is due.
        ticked = []
        for cycle in range(cycle + 1, drain + 1):
            ctl.pop_completed(cycle)
            if ctl._dirty or cycle >= ctl._next_wake:
                ticked.append(cycle)
                ctl.tick(cycle)
        assert ticked == [drain]
        assert ctl.mode is Mode.PIM and ctl.stats.switches_to_pim == 1

    @pytest.mark.parametrize("refresh", [False, True], ids=["refresh-off", "refresh-on"])
    @pytest.mark.parametrize("kind", ["mem", "pim"])
    def test_emptied_controller_parks_until_an_arrival(self, kind, refresh):
        config = SystemConfig.scaled(num_channels=2, num_sms=2).replace(refresh_enabled=refresh)
        system = GPUSystem(config, PolicySpec("FCFS"))
        kernel_id = system.add_kernel(get_pim_kernel("P2"), 1).kernel_id
        make = pim_request if kind == "pim" else mem_request
        ctl = system.controllers[0]
        ctl.enqueue(make(kernel_id=kernel_id), cycle=0)
        while ctl.stats.mem_issued + ctl.stats.pim_issued == 0:
            system.step()
        # Issuing the last queued request left nothing to decide: only a
        # refresh or an arrival can make the controller act.
        assert not ctl.mem_queue and not ctl.pim_queue and not ctl._dirty
        due = ctl.refresh.next_due_cycle() if refresh else NEVER
        assert ctl._next_wake == due > system.cycle + 2
        assert 0 not in system._mc_active
        parked = [entry for entry in system._wake_heap if entry[1:] == (0, 0)]
        assert parked == ([(due, 0, 0)] if refresh else [])
        mode = Mode.PIM if kind == "pim" else Mode.MEM
        assert system.dram_queues[0].queue(mode).try_push(make(kernel_id=kernel_id))
        system._stage_mc_ingress()
        assert ctl._dirty and 0 in system._mc_active


class TestPolicyValidation:
    def test_unknown_policy(self):
        with pytest.raises(KeyError):
            make_policy("nope")

    def test_switch_to_same_mode_rejected(self):
        ctl = make_controller()
        with pytest.raises(ValueError):
            ctl._begin_switch(Mode.MEM, 0)
