"""Tests for the extension policies: SMS batches and dynamic F3FS."""

import pytest

from repro.core.controller import MemoryController
from repro.core.policies import DynamicF3FS, make_policy
from repro.dram.channel import Channel
from repro.dram.timings import DRAMTimings
from repro.pim.executor import PIMExecutor
from repro.pim.isa import PIMOp, PIMOpKind
from repro.request import Mode, Request, RequestType
from tests.engine_harness import drive


def make_controller(policy_name, queue=64, **params):
    channel = Channel(0, 4, DRAMTimings())
    pim_exec = PIMExecutor(channel, fus_per_channel=2, rf_entries_per_bank=8)
    policy = make_policy(policy_name, **params)
    return MemoryController(channel, pim_exec, policy, mem_queue_size=queue, pim_queue_size=queue)


def mem_request(bank=0, row=0, column=0):
    req = Request(type=RequestType.MEM_LOAD, address=0)
    req.channel, req.bank, req.row, req.column = 0, bank, row, column
    return req


def pim_request(row=0, column=0):
    req = Request(type=RequestType.PIM, address=0, kernel_id=1, pim_op=PIMOp(PIMOpKind.LOAD))
    req.channel, req.bank, req.row, req.column = 0, 0, row, column
    return req


class TestSMS:
    def test_batch_boundary_switches(self):
        ctl = make_controller("SMS", batch_size=4)
        for i in range(8):
            ctl.enqueue(mem_request(bank=i % 4, row=0, column=i), cycle=0)
        for i in range(8):
            ctl.enqueue(pim_request(row=0, column=i), cycle=0)
        drive(ctl)
        # 8 requests per mode with batches of 4 -> at least 3 switches.
        assert ctl.stats.switches >= 3

    def test_larger_batches_switch_less(self):
        def switches(batch_size):
            ctl = make_controller("SMS", batch_size=batch_size)
            for i in range(16):
                ctl.enqueue(mem_request(bank=i % 4, row=0, column=i), cycle=0)
                ctl.enqueue(pim_request(row=0, column=i), cycle=0)
            drive(ctl)
            return ctl.stats.switches

        assert switches(16) < switches(2)

    def test_drains_mixed_traffic(self):
        ctl = make_controller("SMS")
        reqs = [mem_request(bank=i % 4, row=i % 3) for i in range(10)]
        reqs += [pim_request(row=0, column=i) for i in range(10)]
        for r in reqs:
            ctl.enqueue(r, cycle=0)
        completed, _ = drive(ctl)
        assert len(completed) == len(reqs)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_policy("SMS", batch_size=0)


class TestDynamicF3FS:
    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicF3FS(target_mem_share=0.0)
        with pytest.raises(ValueError):
            DynamicF3FS(epoch=0)
        with pytest.raises(ValueError):
            DynamicF3FS(margin=0.6)
        with pytest.raises(ValueError):
            DynamicF3FS(min_cap=100, max_cap=50)

    @staticmethod
    def _saturate(ctl, cycle, round_):
        """Keep both queues near capacity (MIMD feedback needs backlog)."""
        while ctl.enqueue(pim_request(row=round_ % 4, column=cycle % 8), cycle):
            pass
        while ctl.enqueue(mem_request(bank=cycle % 4, row=round_ % 16), cycle):
            pass

    def test_caps_adapt_under_imbalanced_target(self):
        """An extreme target forces the controller off symmetric CAPs."""
        ctl = make_controller(
            "Dyn-F3FS", initial_cap=16, epoch=200, target_mem_share=0.9, margin=0.05
        )
        policy = ctl.policy
        cycle = 0
        for round_ in range(30):
            self._saturate(ctl, cycle, round_)
            for cycle in range(cycle, cycle + 120):
                ctl.pop_completed(cycle)
                ctl.tick(cycle)
        assert policy.adjustments > 0
        assert policy.caps[Mode.MEM] > policy.caps[Mode.PIM]

    def test_target_share_steers_service(self):
        """Higher MEM target -> MEM receives a larger share of service."""

        def mem_share(target):
            ctl = make_controller(
                "Dyn-F3FS", initial_cap=16, epoch=200, target_mem_share=target, margin=0.05
            )
            cycle = 0
            for round_ in range(60):
                self._saturate(ctl, cycle, round_)
                for cycle in range(cycle, cycle + 120):
                    ctl.pop_completed(cycle)
                    ctl.tick(cycle)
            total = ctl.stats.mem_issued + ctl.stats.pim_issued
            return ctl.stats.mem_issued / total if total else 0.0

        assert mem_share(0.8) > mem_share(0.2) + 0.1

    def test_caps_stay_bounded(self):
        policy = DynamicF3FS(initial_cap=16, min_cap=8, max_cap=32)
        for _ in range(10):
            policy._shift_toward(Mode.MEM)
        assert policy.caps[Mode.MEM] == 32
        assert policy.caps[Mode.PIM] == 8
