"""Tests for the lock-step PIM executor and functional units."""

import pytest

from repro.dram.channel import Channel
from repro.dram.storage import DataStore
from repro.dram.timings import DRAMTimings
from repro.pim.executor import PIMExecutor
from repro.pim.fu import FunctionalUnit, RegisterFile
from repro.pim.isa import PIMOp, PIMOpKind
from repro.request import Request, RequestType


def make_executor(num_banks=4, functional=False, store=None):
    channel = Channel(0, num_banks, DRAMTimings())
    executor = PIMExecutor(
        channel,
        fus_per_channel=num_banks // 2,
        rf_entries_per_bank=8,
        store=store,
        functional=functional,
    )
    return channel, executor


def pim_request(row=0, column=0, op=None, kernel_id=1):
    req = Request(
        type=RequestType.PIM,
        address=0,
        kernel_id=kernel_id,
        pim_op=op or PIMOp(PIMOpKind.LOAD, dst=0),
    )
    req.channel, req.bank, req.row, req.column = 0, 0, row, column
    return req


class TestRegisterFile:
    def test_read_write(self):
        rf = RegisterFile(8)
        rf.write(3, 1.5)
        assert rf.read(3) == 1.5
        assert rf.read(0) == 0.0

    def test_bounds(self):
        rf = RegisterFile(8)
        with pytest.raises(IndexError):
            rf.read(8)
        with pytest.raises(IndexError):
            rf.write(-1, 0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RegisterFile(0)


class TestFunctionalUnit:
    def setup_method(self):
        self.fu = FunctionalUnit(0, [0, 1], rf_entries_per_bank=8)

    def test_load_store_roundtrip(self):
        self.fu.execute(0, PIMOp(PIMOpKind.LOAD, dst=2), 42.0)
        out = self.fu.execute(0, PIMOp(PIMOpKind.STORE, src=2), 0.0)
        assert out == 42.0

    def test_add(self):
        self.fu.execute(1, PIMOp(PIMOpKind.LOAD, dst=0), 10.0)
        self.fu.execute(1, PIMOp(PIMOpKind.ADD, dst=1, src=0), 5.0)
        assert self.fu.rf[1].read(1) == 15.0

    def test_mac(self):
        self.fu.rf[0].write(0, 3.0)  # multiplier
        self.fu.rf[0].write(1, 100.0)  # accumulator
        self.fu.execute(0, PIMOp(PIMOpKind.MAC, dst=1, src=0), 2.0)
        assert self.fu.rf[0].read(1) == 106.0

    def test_banks_have_independent_rfs(self):
        self.fu.execute(0, PIMOp(PIMOpKind.LOAD, dst=0), 1.0)
        assert self.fu.rf[1].read(0) == 0.0

    def test_dram_op_requires_value(self):
        with pytest.raises(ValueError):
            self.fu.execute(0, PIMOp(PIMOpKind.ADD, dst=0, src=0), None)


class TestExecutorTiming:
    def test_first_op_pays_activation(self):
        channel, ex = make_executor()
        t = channel.timings
        end = ex.issue(pim_request(row=0), 0)
        # Cold banks: ACT + tRCD + op.
        assert end >= t.tRCD + t.tCCDl
        assert ex.stats.row_switches == 1

    def test_same_row_ops_pipeline(self):
        channel, ex = make_executor()
        t = channel.timings
        end1 = ex.issue(pim_request(row=0, column=0), 0)
        end2 = ex.issue(pim_request(row=0, column=1), end1)
        assert end2 - end1 == t.tCCDl
        assert ex.stats.row_switches == 1

    def test_row_change_pays_pre_act(self):
        channel, ex = make_executor()
        t = channel.timings
        end1 = ex.issue(pim_request(row=0), 0)
        # Wait for tRAS legality before the row switch.
        start = max(end1, t.tRAS)
        end2 = ex.issue(pim_request(row=1), start)
        assert end2 - start >= t.tRP + t.tRCD + t.tCCDl
        assert ex.stats.row_switches == 2

    def test_all_banks_adopt_pim_row(self):
        channel, ex = make_executor()
        ex.issue(pim_request(row=5), 0)
        assert all(bank.open_row == 5 for bank in channel.banks)

    def test_busy_executor_rejects_issue(self):
        channel, ex = make_executor()
        ex.issue(pim_request(row=0), 0)
        with pytest.raises(RuntimeError):
            ex.issue(pim_request(row=0), 0)

    def test_rf_only_op_is_fast(self):
        channel, ex = make_executor()
        end = ex.issue(pim_request(op=PIMOp(PIMOpKind.EXP, dst=0, src=0)), 0)
        assert end == 1

    def test_op_complete_as_issued(self):
        channel, ex = make_executor()
        req = pim_request(row=0)
        end = ex.issue(req, 0)
        assert req.cycle_issued == 0
        assert req.cycle_completed == end
        # The executor is the op's only in-flight state.
        assert ex.busy_until == end
        assert not ex.can_issue(end - 1)
        assert ex.can_issue(end)

    def test_mem_after_pim_conflicts(self):
        """A PIM phase destroys MEM row locality (Figure 9)."""
        channel, ex = make_executor()
        mem = Request(type=RequestType.MEM_LOAD, address=0)
        mem.channel, mem.bank, mem.row, mem.column = 0, 0, 3, 0
        channel.issue_mem(mem, 0)
        channel.pop_completed(10_000)
        end = ex.issue(pim_request(row=9), channel.banks[0].state.accept_at)
        mem2 = Request(type=RequestType.MEM_LOAD, address=0)
        mem2.channel, mem2.bank, mem2.row, mem2.column = 0, 0, 3, 0
        cycle = max(b.state.accept_at for b in channel.banks)
        channel.issue_mem(mem2, cycle)
        assert mem2.access_kind == "conflict"


class TestExecutorFunctional:
    def test_vector_add_on_all_banks(self):
        store = DataStore()
        channel, ex = make_executor(functional=True, store=store)
        num_banks = channel.num_banks
        for bank in range(num_banks):
            store.write(0, bank, 0, 0, float(bank))  # vector a in row 0
            store.write(0, bank, 1, 0, 10.0 * bank)  # vector b in row 1

        cycle = 0
        cycle = ex.issue(pim_request(row=0, column=0, op=PIMOp(PIMOpKind.LOAD, dst=0)), cycle)
        cycle = max(cycle, channel.timings.tRAS)
        cycle = ex.issue(pim_request(row=1, column=0, op=PIMOp(PIMOpKind.ADD, dst=0, src=0)), cycle)
        cycle = max(cycle, 2 * channel.timings.tRAS)
        ex.issue(pim_request(row=2, column=0, op=PIMOp(PIMOpKind.STORE, src=0)), cycle)

        for bank in range(num_banks):
            assert store.read(0, bank, 2, 0) == pytest.approx(11.0 * bank)


class TestExecutorValidation:
    def test_uneven_fu_split_rejected(self):
        channel = Channel(0, 5, DRAMTimings())
        with pytest.raises(ValueError):
            PIMExecutor(channel, fus_per_channel=2, rf_entries_per_bank=8)
