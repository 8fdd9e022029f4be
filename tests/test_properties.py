"""Cross-cutting property-based tests on controller/policy invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import MemoryController
from repro.core.policies import PAPER_POLICY_ORDER, make_policy
from repro.dram.channel import Channel
from repro.dram.timings import DRAMTimings
from repro.pim.executor import PIMExecutor
from repro.pim.isa import PIMOp, PIMOpKind
from repro.request import Mode, Request, RequestType
from tests.engine_harness import drive

#: (is_pim, bank, row, column) tuples describing a traffic mix.
traffic = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(0, 3),
        st.integers(0, 4),
        st.integers(0, 7),
    ),
    min_size=1,
    max_size=40,
)


def build_requests(mix):
    requests = []
    for is_pim, bank, row, column in mix:
        if is_pim:
            req = Request(
                type=RequestType.PIM, address=0, kernel_id=1, pim_op=PIMOp(PIMOpKind.LOAD)
            )
            req.channel, req.bank, req.row, req.column = 0, 0, row, column
        else:
            req = Request(type=RequestType.MEM_LOAD, address=0, kernel_id=0)
            req.channel, req.bank, req.row, req.column = 0, bank, row, column
        requests.append(req)
    return requests


def run_controller(policy_name, mix, **params):
    channel = Channel(0, 4, DRAMTimings())
    pim_exec = PIMExecutor(channel, fus_per_channel=2, rf_entries_per_bank=8)
    ctl = MemoryController(
        channel, pim_exec, make_policy(policy_name, **params),
        mem_queue_size=64, pim_queue_size=64,
    )
    requests = build_requests(mix)
    for request in requests:
        ctl.enqueue(request, 0)
    completed, _ = drive(ctl, max_cycles=200_000)
    return ctl, requests, completed


@settings(max_examples=25, deadline=None)
@given(mix=traffic, policy=st.sampled_from(PAPER_POLICY_ORDER))
def test_no_policy_loses_or_duplicates_requests(mix, policy):
    """Conservation: every policy completes every request exactly once."""
    ctl, requests, completed = run_controller(policy, mix)
    assert sorted(r.id for r in completed) == sorted(r.id for r in requests)


@settings(max_examples=25, deadline=None)
@given(mix=traffic, policy=st.sampled_from(PAPER_POLICY_ORDER))
def test_pim_fcfs_order_always_preserved(mix, policy):
    """PIM correctness: PIM requests issue in arrival order everywhere."""
    ctl, requests, _ = run_controller(policy, mix)
    pim_issue_cycles = [r.cycle_issued for r in requests if r.is_pim]
    assert pim_issue_cycles == sorted(pim_issue_cycles)


@settings(max_examples=25, deadline=None)
@given(mix=traffic, policy=st.sampled_from(PAPER_POLICY_ORDER))
def test_mode_cycles_account_for_all_time(mix, policy):
    ctl, _, _ = run_controller(policy, mix)
    assert sum(ctl.stats.mode_cycles.values()) > 0
    for value in ctl.stats.mode_cycles.values():
        assert value >= 0


@settings(max_examples=25, deadline=None)
@given(mix=traffic, cap=st.integers(1, 8))
def test_f3fs_bypasses_bounded_by_cap(mix, cap):
    """Between switches, F3FS never lets more than CAP same-mode requests
    bypass an older request of the other mode."""
    ctl, requests, _ = run_controller("F3FS", mix, mem_cap=cap, pim_cap=cap)
    # Reconstruct the issue sequence and check the bypass bound.
    issued = sorted(
        (r for r in requests if r.cycle_issued >= 0), key=lambda r: r.cycle_issued
    )
    arrivals = {r.id: r.mc_seq for r in requests}
    served = set()
    bypasses = 0
    current_mode = None
    for request in issued:
        mode = request.mode
        if mode is not current_mode:
            current_mode = mode
            bypasses = 0
        served.add(request.id)
        # Was an older other-mode request still waiting when this issued?
        older_waiting = any(
            arrivals[r.id] < request.mc_seq
            for r in requests
            if r.mode is not mode and r.id not in served
        )
        if older_waiting:
            bypasses += 1
            assert bypasses <= cap + 1  # +1: the decision preceding the switch


@settings(max_examples=20, deadline=None)
@given(mix=traffic)
def test_queueing_delay_nonnegative(mix):
    _, requests, _ = run_controller("FR-FCFS", mix)
    for request in requests:
        assert request.cycle_completed >= request.cycle_issued >= request.cycle_mc_arrival
