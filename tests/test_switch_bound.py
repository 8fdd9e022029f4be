"""``SchedulingPolicy.may_switch_from_pim`` against the decisions it skips.

In PIM mode, right after a PIM issue or an arrival, a controller whose
executor is busy past the next cycle asks its policy whether a decision
before the executor frees could begin a switch.  On False it sleeps
through those decisions (``MemoryController.tick`` and
``_sleeps_on_pim``), so False must be exact: every decision the engine
skips must be idle.

Each example drives one controller every cycle (no decision is skipped
here) through random MEM and PIM arrivals, with small CAPs, watermarks,
batches and epochs so that every policy's switch condition fires.
Whenever the bound says no switch for the state a PIM-mode decision at
``c + 1`` sees, every decision from ``c + 1`` until the executor frees,
the policy's epoch turns or a request arrives must be idle.  Breaking a
bound (say, F3FS ignoring its PIM CAP) fails this test.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import MemoryController
from repro.core.policies import make_policy
from repro.dram.channel import Channel
from repro.dram.timings import DRAMTimings
from repro.pim.executor import PIMExecutor
from repro.pim.isa import PIMOp, PIMOpKind
from repro.request import Mode, Request, RequestType

NUM_BANKS = 4
NUM_ROWS = 4
QUEUE_SIZE = 8

#: The nine grid policies plus SMS and Dyn-F3FS, with parameters small
#: enough for their switch conditions to fire within a short run.
POLICIES = {
    "FCFS": st.just({}),
    "MEM-First": st.just({}),
    "PIM-First": st.just({}),
    "FR-FCFS": st.just({}),
    "FR-FCFS-Cap": st.fixed_dictionaries({"cap": st.integers(1, 6)}),
    "BLISS": st.fixed_dictionaries(
        {"threshold": st.integers(1, 4), "clear_interval": st.integers(5, 60)}
    ),
    "FR-RR-FCFS": st.just({}),
    "G&I": st.integers(0, QUEUE_SIZE - 2).flatmap(
        lambda low: st.fixed_dictionaries(
            {
                "low_watermark": st.just(low),
                "high_watermark": st.integers(low + 1, QUEUE_SIZE),
            }
        )
    ),
    "F3FS": st.fixed_dictionaries(
        {
            "mem_cap": st.integers(1, 6),
            "pim_cap": st.integers(1, 6),
            "current_mode_first": st.booleans(),
        }
    ),
    "SMS": st.fixed_dictionaries({"batch_size": st.integers(1, 6)}),
    "Dyn-F3FS": st.fixed_dictionaries(
        {
            "initial_cap": st.integers(1, 8),
            "epoch": st.integers(5, 60),
            "min_cap": st.just(1),
        }
    ),
}

PIM_KINDS = (PIMOpKind.LOAD, PIMOpKind.LOAD, PIMOpKind.STORE, PIMOpKind.EXP)


@st.composite
def traffic(draw):
    """Per cycle: the (bank, row, kernel) of each MEM arrival and, per PIM
    arrival, whether the PIM stream moves on to its next row (a block
    boundary) and the op kind.  EXP ops touch no DRAM row and take one
    cycle.  Arrival rates are drawn per example, so both sparse and
    saturating runs come up."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    mem_rate = draw(st.sampled_from([0.05, 0.3, 0.7, 1.0]))
    pim_rate = draw(st.sampled_from([0.3, 0.7, 1.0]))
    cycles = []
    for _ in range(draw(st.integers(20, 300))):
        mem = [
            (rng.randrange(NUM_BANKS), rng.randrange(NUM_ROWS), rng.randrange(3))
            for _ in range(2)
            if rng.random() < mem_rate / 2
        ]
        pim = [
            (rng.random() < 0.1, rng.choice(PIM_KINDS))
            for _ in range(2)
            if rng.random() < pim_rate / 2
        ]
        cycles.append((mem, pim))
    return cycles


def make_controller(name, params):
    channel = Channel(0, NUM_BANKS, DRAMTimings())
    pim_exec = PIMExecutor(channel, fus_per_channel=NUM_BANKS // 2, rf_entries_per_bank=8)
    return MemoryController(
        channel,
        pim_exec,
        make_policy(name, **params),
        mem_queue_size=QUEUE_SIZE,
        pim_queue_size=QUEUE_SIZE,
    )


def arrive(ctl, cycle, mem, pim, pim_row):
    """Enqueue one cycle's arrivals; returns the PIM stream's row."""
    for bank, row, kernel in mem:
        req = Request(type=RequestType.MEM_LOAD, address=0, kernel_id=kernel)
        req.channel, req.bank, req.row, req.column = 0, bank, row, 0
        ctl.enqueue(req, cycle)
    for next_row, kind in pim:
        if next_row:
            pim_row = (pim_row + 1) % NUM_ROWS
        req = Request(type=RequestType.PIM, address=0, kernel_id=3, pim_op=PIMOp(kind))
        req.channel, req.bank, req.row, req.column = 0, 0, pim_row, 0
        ctl.enqueue(req, cycle)
    return pim_row


def check_bound(name, params, cycles):
    """Drive the controller every cycle; return how often the bound ruled
    out a switch (so a test can see the check was exercised)."""
    ctl = make_controller(name, params)
    policy = ctl.policy
    decide = policy.decide
    decisions = {}

    def recording_decide(controller, cycle):
        decision = decide(controller, cycle)
        decisions[cycle] = decision.kind
        return decision

    policy.decide = recording_decide
    # (first cycle, end cycle) spans whose decisions must all be idle.
    promised = []
    pim_row = 0
    for cycle, (mem, pim) in enumerate(cycles):
        ctl.pop_completed(cycle)
        ctl._dirty = True  # decide every cycle: nothing is skipped here
        ctl.tick(cycle)
        pim_row = arrive(ctl, cycle, mem, pim, pim_row)
        # The state the decision at cycle + 1 sees.
        if ctl.mode is not Mode.PIM or ctl.is_switching:
            continue
        end = min(ctl.pim_exec.busy_until, policy.next_epoch_cycle(cycle))
        if end > cycle + 1 and not policy.may_switch_from_pim(ctl, cycle):
            promised.append((cycle + 1, end))
    arrivals = {cycle for cycle, (mem, pim) in enumerate(cycles) if mem or pim}
    for start, end in promised:
        for cycle in range(start, end):
            if cycle not in decisions:
                break  # the run ended
            assert decisions[cycle] == "idle", (
                f"{name}{params}: bound ruled out a switch for cycle {start}, "
                f"but cycle {cycle} decided {decisions[cycle]!r}"
            )
            if cycle in arrivals:
                break  # a new arrival: the bound is asked again
    return len(promised)


@pytest.mark.parametrize("name", sorted(POLICIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), cycles=traffic())
def test_no_switch_bound_means_idle_decisions(name, data, cycles):
    params = data.draw(POLICIES[name], label="params")
    check_bound(name, params, cycles)


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_bound_is_exercised(name):
    """A PIM stream with a MEM burst every 100 cycles reaches PIM mode and
    has the bound rule out switches."""
    cycles = [
        (
            [(c % NUM_BANKS, c % NUM_ROWS, 0)] if c % 100 < 4 else [],
            [(c % 16 == 0, PIMOpKind.LOAD)],
        )
        for c in range(400)
    ]
    params = {"G&I": {"high_watermark": 6, "low_watermark": 2}}.get(name, {})
    assert check_bound(name, params, cycles) > 0
