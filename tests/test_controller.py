"""Tests for the memory controller's queueing and mode-switch machinery."""

import pytest

from repro.core.controller import MemoryController
from repro.core.policies import make_policy
from repro.dram.channel import Channel
from repro.dram.timings import DRAMTimings
from repro.pim.executor import PIMExecutor
from repro.pim.isa import PIMOp, PIMOpKind
from repro.request import Mode, Request, RequestType


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
    completed = []
    for cycle in range(max_cycles):
        completed.extend(ctl.pop_completed(cycle))
        ctl.tick(cycle)
        if ctl.outstanding() == 0:
            ctl.finalize(cycle)
            return completed, cycle
    raise AssertionError("controller did not drain")


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
        assert ctl.next_wake_cycle(cycle) == ctl.pim_exec.busy_until

    def test_switch_drain_ignores_arrivals(self):
        ctl = make_controller("FCFS")
        ctl.enqueue(mem_request(bank=0, row=0), cycle=0)
        ctl.tick(0)  # issues the MEM request
        ctl.enqueue(pim_request(), cycle=1)
        ctl.tick(1)  # begins the MEM->PIM drain
        drain = ctl.channel.drain_complete_cycle()
        assert ctl.is_switching and drain > 3
        assert not ctl._dirty
        assert ctl.next_wake_cycle(1) == drain
        ctl.enqueue(mem_request(bank=1, row=0), cycle=2)
        assert not ctl._dirty
        assert ctl.next_wake_cycle(2) == drain


    def test_completion_leaves_controller_clean(self):
        ctl = make_controller("FCFS")
        ctl.enqueue(mem_request(), cycle=0)
        ctl.tick(0)  # issues the MEM request
        ctl.tick(1)  # nothing queued: sleeps
        assert not ctl._dirty
        due = ctl.channel.next_completion_cycle()
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


class TestPolicyValidation:
    def test_unknown_policy(self):
        with pytest.raises(KeyError):
            make_policy("nope")

    def test_switch_to_same_mode_rejected(self):
        ctl = make_controller()
        with pytest.raises(ValueError):
            ctl._begin_switch(Mode.MEM, 0)
