"""Unit and property tests for the bank/channel timing model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.bank import AccessKind, Bank
from repro.dram.channel import Channel, merge_intervals
from repro.dram.timings import DRAMTimings
from repro.pim.isa import PIM_LOAD
from repro.request import Request, RequestType


def make_channel(num_banks=4):
    return Channel(0, num_banks, DRAMTimings())


def mem_request(bank=0, row=0, column=0, write=False, channel=0, kernel_id=0):
    req = Request(
        type=RequestType.MEM_STORE if write else RequestType.MEM_LOAD,
        address=0,
        kernel_id=kernel_id,
    )
    req.channel, req.bank, req.row, req.column = channel, bank, row, column
    return req


class TestTimings:
    def test_paper_defaults(self):
        t = DRAMTimings()
        assert (t.tRCD, t.tRP, t.tRAS, t.tCL) == (12, 12, 28, 12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DRAMTimings(tRCD=0)

    def test_rejects_tras_below_trcd(self):
        with pytest.raises(ValueError):
            DRAMTimings(tRAS=5, tRCD=12)


class TestBank:
    def setup_method(self):
        self.t = DRAMTimings()
        self.bank = Bank(0, self.t)

    def test_initial_state_is_miss(self):
        assert self.bank.classify(5) is AccessKind.MISS
        assert self.bank.open_row is None
        assert self.bank.can_accept(0)

    def test_miss_timing(self):
        kind, first, col, completion, act = self.bank.schedule(0, 7, False, 0, 0)
        assert kind is AccessKind.MISS
        assert act == 0
        assert col == self.t.tRCD
        assert completion == self.t.tRCD + self.t.tCL + self.t.burst_length
        assert self.bank.open_row == 7

    def test_hit_timing(self):
        self.bank.schedule(0, 7, False, 0, 0)
        accept = self.bank.state.accept_at
        kind, first, col, completion, act = self.bank.schedule(accept, 7, False, 0, 0)
        assert kind is AccessKind.HIT
        assert act is None
        # Hits pipeline at the tCCDl cadence.
        assert col == self.t.tRCD + self.t.tCCDl

    def test_conflict_timing_respects_tras(self):
        self.bank.schedule(0, 7, False, 0, 0)
        accept = self.bank.state.accept_at
        kind, first, col, completion, act = self.bank.schedule(accept, 9, False, 0, 0)
        assert kind is AccessKind.CONFLICT
        # PRE cannot happen before tRAS after the ACT at cycle 0.
        assert first >= self.t.tRAS
        assert act == first + self.t.tRP
        assert col == act + self.t.tRCD
        assert self.bank.open_row == 9

    def test_write_recovery_delays_precharge(self):
        self.bank.schedule(0, 7, True, 0, 0)  # write
        pre_ready_after_write = self.bank.state.pre_ready
        t = self.t
        col = t.tRCD
        assert pre_ready_after_write >= col + t.tWL + t.burst_length + t.tWR

    def test_cannot_accept_before_column_slot(self):
        self.bank.schedule(0, 7, False, 0, 0)
        assert not self.bank.can_accept(0)
        assert self.bank.can_accept(self.bank.state.accept_at)


class TestChannel:
    def test_issue_and_complete(self):
        ch = make_channel()
        req = mem_request(bank=1, row=3)
        completion = ch.issue_mem(req, 0)
        assert ch.mem_in_flight() == 1
        assert ch.pop_completed(completion - 1) == []
        done = ch.pop_completed(completion)
        assert done == [req]
        assert req.cycle_completed == completion
        assert ch.mem_in_flight() == 0

    def test_bank_parallelism_overlaps(self):
        ch = make_channel()
        c0 = ch.issue_mem(mem_request(bank=0, row=1), 0)
        c1 = ch.issue_mem(mem_request(bank=1, row=1), 1)
        # Both misses overlap almost fully thanks to bank-level parallelism.
        assert c1 < c0 + ch.timings.tRCD
        assert ch.bank_level_parallelism() > 1.5

    def test_data_bus_serializes_column_commands(self):
        ch = make_channel()
        reqs = [mem_request(bank=b, row=0) for b in range(4)]
        completions = []
        cycle = 0
        for r in reqs:
            while not ch.bank_can_accept(r.bank, cycle):
                cycle += 1
            completions.append(ch.issue_mem(r, cycle))
            cycle += 1
        # Completions must be spaced by at least the burst length.
        spaced = sorted(completions)
        for a, b in zip(spaced, spaced[1:]):
            assert b - a >= ch.timings.burst_length

    def test_row_hit_stream_faster_than_conflict_stream(self):
        t = DRAMTimings()
        hits = make_channel(1)
        cycle = 0
        for i in range(16):
            while not hits.bank_can_accept(0, cycle):
                cycle += 1
            last_hit = hits.issue_mem(mem_request(bank=0, row=0, column=i), cycle)
        conflicts = make_channel(1)
        cycle = 0
        for i in range(16):
            while not conflicts.bank_can_accept(0, cycle):
                cycle += 1
            last_conflict = conflicts.issue_mem(mem_request(bank=0, row=i), cycle)
        assert last_hit < last_conflict / 3
        assert hits.stats.mem_hits == 15
        assert conflicts.stats.mem_conflicts == 15

    def test_stats_kernel_outcomes(self):
        ch = make_channel()
        ch.issue_mem(mem_request(bank=0, row=0, kernel_id=7), 0)
        cycle = ch.banks[0].state.accept_at
        ch.issue_mem(mem_request(bank=0, row=0, column=1, kernel_id=7), cycle)
        hits, misses, conflicts = ch.stats.kernel_outcomes[7]
        assert (hits, misses, conflicts) == (1, 1, 0)
        assert 0 < ch.stats.row_buffer_hit_rate < 1

    def test_issue_to_busy_bank_raises(self):
        ch = make_channel()
        ch.issue_mem(mem_request(bank=0, row=0), 0)
        with pytest.raises(RuntimeError):
            ch.issue_mem(mem_request(bank=0, row=0), 0)

    def test_reset(self):
        ch = make_channel()
        ch.issue_mem(mem_request(bank=0, row=0), 0)
        ch.reset()
        assert ch.mem_in_flight() == 0
        assert ch.stats.mem_accesses == 0
        assert ch.banks[0].open_row is None


class TestMergeIntervals:
    def test_empty(self):
        assert merge_intervals([]) == 0

    def test_disjoint(self):
        assert merge_intervals([(0, 2), (5, 7)]) == 4

    def test_overlapping(self):
        assert merge_intervals([(0, 5), (3, 8), (8, 10)]) == 10

    def test_out_of_order_and_degenerate(self):
        assert merge_intervals([(5, 7), (0, 2), (3, 3)]) == 4

    @settings(max_examples=100)
    @given(
        st.lists(
            st.tuples(st.integers(0, 100), st.integers(0, 100)).map(
                lambda p: (min(p), max(p))
            ),
            max_size=20,
        )
    )
    def test_matches_brute_force(self, intervals):
        expected = len({c for s, e in intervals for c in range(s, e)})
        assert merge_intervals(intervals) == expected


@settings(max_examples=50, deadline=None)
@given(
    accesses=st.lists(
        st.tuples(
            st.integers(0, 3),  # bank
            st.integers(0, 4),  # row
            st.booleans(),  # write
        ),
        min_size=1,
        max_size=40,
    )
)
def test_channel_timing_invariants(accesses):
    """Random request streams never violate basic timing invariants."""
    ch = make_channel()
    completions = []
    cycle = 0
    for bank, row, write in accesses:
        while not ch.bank_can_accept(bank, cycle):
            cycle += 1
        completion = ch.issue_mem(mem_request(bank=bank, row=row, write=write), cycle)
        assert completion > cycle  # service takes time
        completions.append(completion)
        cycle += 1
    # Total accesses are conserved in the stats.
    assert ch.stats.mem_accesses == len(accesses)
    # Drain completes at the max completion.
    assert ch.drain_complete_cycle() == max(completions)
    ch.pop_completed(max(completions))
    assert ch.mem_in_flight() == 0
