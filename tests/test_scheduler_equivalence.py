"""One-pass scheduler scans == minimum-finding reference (randomized).

The MEM queue (``MemoryController.mem_queue``) is a plain list in arrival
order, which is also ``mc_seq`` order, so the FR-FCFS-family policies pick
by one pass that stops early: the first issuable row hit, else the first
issuable request.  The claim is *bit-identical decisions* against the
straight-line scans below, which take the minimum of each policy's key
over the whole queue.  This suite checks that claim three ways:

* **Queue invariant** — after seeded random enqueues and ``tick`` issues,
  the MEM queue holds exactly the MEM requests enqueued and not yet
  issued, in strictly increasing ``mc_seq`` order: the order every
  one-pass scan relies on.
* **Primitive equivalence** — seeded random controller states (random
  banks/rows/ages, removed entries, random open rows, accept windows,
  conflict bits), in a small shape and in the paper's (16 banks, up to
  64 queued requests), where each policy lookup is compared against the
  minimum-finding reference.
* **End-to-end equivalence** — full co-run simulations where the policy's
  lookups are overridden with the reference; the simulation fingerprints
  (cycles, per-controller issue counts, per-kernel injection counts, mode
  switches) must match exactly for every FR-FCFS-family policy, across
  modes and CAP settings.

``mc_seq`` is unique per controller, so all the minima compared here have
unique keys and "same request" is well-defined (object identity).
"""

import itertools
import random

import pytest

from repro.config import SystemConfig
from repro.core.controller import MemoryController
from repro.core.policies import make_policy
from repro.core.policies.bliss import BLISS
from repro.core.policies.dynamic_f3fs import DynamicF3FS
from repro.core.policies.f3fs import F3FS
from repro.core.policies.frfcfs import FRFCFS
from repro.core.policies.frfcfs_cap import FRFCFSCap
from repro.core.policies.frrr import FRRRFCFS
from repro.core.policies.sms import SMS
from repro.core.policies.base import IDLE, Decision
from repro.dram.channel import Channel
from repro.dram.timings import DRAMTimings
from repro.pim.executor import PIMExecutor
from repro.pim.isa import PIMOp, PIMOpKind
from repro.request import Mode, Request, RequestType, reset_request_ids
from repro.sim.system import GPUSystem
from repro.workloads import get_gpu_kernel, get_pim_kernel

NUM_BANKS = 8
NUM_ROWS = 6
SEEDS = range(25)


# ---------------------------------------------------------------------------
# Scan reference implementations (minimum-finding, kept verbatim).
# ---------------------------------------------------------------------------


def is_row_hit(ctl, request):
    return ctl.channel.banks[request.bank].open_row == request.row


def issuable_mem(ctl, cycle, exclude_conflict_banks=False):
    """MEM requests whose bank accepts a new request this cycle, by a
    linear scan of the queue in arrival order."""
    banks = ctl.channel.banks
    for request in ctl.mem_queue:
        bank = banks[request.bank]
        if not bank.can_accept(cycle):
            continue
        if exclude_conflict_banks and bank.state.conflict_bit:
            continue
        yield request


def mem_requests_by_bank(ctl):
    """Arrival-ordered requests per bank."""
    by_bank = {}
    for request in ctl.mem_queue:
        by_bank.setdefault(request.bank, []).append(request)
    return by_bank


def scan_frfcfs_pick(ctl, cycle, exclude_conflict_banks=False):
    best_hit = None
    best_any = None
    for request in issuable_mem(ctl, cycle, exclude_conflict_banks=exclude_conflict_banks):
        if is_row_hit(ctl, request):
            if best_hit is None or request.mc_seq < best_hit.mc_seq:
                best_hit = request
        if best_any is None or request.mc_seq < best_any.mc_seq:
            best_any = request
    return best_hit if best_hit is not None else best_any


def scan_oldest_overall(ctl):
    candidates = list(ctl.mem_queue) + list(ctl.pim_queue)
    best = None
    for request in candidates:
        if best is None or request.mc_seq < best.mc_seq:
            best = request
    return best


def scan_expected_conflict_bits(ctl):
    """Post-update conflict bits per the FR-FCFS/FR-RR trigger."""
    expected = {bank.index: bank.state.conflict_bit for bank in ctl.channel.banks}
    for bank_index, requests in mem_requests_by_bank(ctl).items():
        bank = ctl.channel.banks[bank_index]
        if bank.state.conflict_bit:
            continue
        if not bank.state.issued_since_switch:
            continue
        if any(bank.open_row == r.row for r in requests):
            continue
        if bank.open_row is None:
            continue
        expected[bank_index] = True
    return expected


def scan_all_pending_banks_stalled(ctl):
    pending = mem_requests_by_bank(ctl)
    if not pending:
        return False
    return all(ctl.channel.banks[b].state.conflict_bit for b in pending)


def scan_bliss_decide(policy, ctl, cycle):
    """BLISS.decide as a minimum over every issuable request."""
    policy._maybe_clear(cycle)
    best = None
    best_score = None
    for request in issuable_mem(ctl, cycle):
        score = policy._score(ctl, request, is_row_hit(ctl, request))
        if best_score is None or score < best_score:
            best, best_score = request, score
    if ctl.pim_queue:
        head = ctl.pim_queue[0]
        head_hit = not ctl.pim_exec.would_switch_row(head)
        score = policy._score(ctl, head, head_hit)
        if best_score is None or score < best_score:
            best, best_score = head, score
    if best is None:
        fallback = policy.fallback_when_empty(ctl)
        return fallback if fallback is not None else IDLE
    if best.mode is not ctl.mode:
        return Decision.switch(best.mode)
    if best.mode is Mode.PIM:
        return Decision.pim() if ctl.pim_ready(cycle) else IDLE
    return Decision.mem(best)


def scan_f3fs_ablation_decide(ctl, cycle):
    """F3FS._decide_frfcfs_order (current_mode_first=False) as a minimum
    over every issuable request."""
    best = None
    best_key = None
    for request in issuable_mem(ctl, cycle):
        key = (not is_row_hit(ctl, request), request.mc_seq)
        if best_key is None or key < best_key:
            best, best_key = request, key
    if ctl.pim_queue:
        head = ctl.pim_queue[0]
        key = (ctl.pim_exec.would_switch_row(head), head.mc_seq)
        if best_key is None or key < best_key:
            best, best_key = head, key
    if best is None:
        return IDLE
    if best.mode is not ctl.mode:
        return Decision.switch(best.mode)
    if best.mode is Mode.PIM:
        return Decision.pim() if ctl.pim_ready(cycle) else IDLE
    return Decision.mem(best)


def decisions_equal(a, b):
    return a.kind == b.kind and a.request is b.request and a.target is b.target


# ---------------------------------------------------------------------------
# Randomized controller states.
# ---------------------------------------------------------------------------


def mem_request(bank, row, kernel_id=0):
    req = Request(type=RequestType.MEM_LOAD, address=0, kernel_id=kernel_id)
    req.channel, req.bank, req.row, req.column = 0, bank, row, 0
    return req


def pim_request(row, column=0, kernel_id=1):
    req = Request(
        type=RequestType.PIM, address=0, kernel_id=kernel_id, pim_op=PIMOp(PIMOpKind.LOAD)
    )
    req.channel, req.bank, req.row, req.column = 0, 0, row, column
    return req


def make_controller(policy_name="FR-FCFS", num_banks=NUM_BANKS, queue_size=256, **params):
    channel = Channel(0, num_banks, DRAMTimings())
    pim_exec = PIMExecutor(channel, fus_per_channel=num_banks // 2, rf_entries_per_bank=8)
    return MemoryController(
        channel, pim_exec, make_policy(policy_name, **params),
        mem_queue_size=queue_size, pim_queue_size=queue_size,
    )


#: Controller shapes for the primitive checks: a small one, and the
#: paper's (Table I: 16 banks, 64-entry queues) filled up to its depth.
SMALL = {"num_banks": NUM_BANKS, "max_mem": 39, "queue_size": 256}
PAPER = {"num_banks": 16, "max_mem": 64, "queue_size": 64}


def random_controller(rng, policy_name="FR-FCFS", shape=SMALL, **params):
    num_banks = shape["num_banks"]
    ctl = make_controller(policy_name, num_banks, shape["queue_size"], **params)
    channel = ctl.channel
    live = []
    for _ in range(rng.randrange(0, shape["max_mem"] + 1)):
        req = mem_request(
            bank=rng.randrange(num_banks),
            row=rng.randrange(NUM_ROWS),
            kernel_id=rng.randrange(3),
        )
        ctl.enqueue(req, cycle=0)
        live.append(req)
    for _ in range(rng.randrange(0, 8)):
        ctl.enqueue(pim_request(row=rng.randrange(NUM_ROWS)), cycle=0)
    # Remove a random subset, as issue does mid-simulation.
    rng.shuffle(live)
    for req in live[: rng.randrange(0, len(live) + 1) if live else 0]:
        ctl.mem_queue.remove(req)
    # Random bank state: open rows, accept windows, conflict machinery.
    for bank in channel.banks:
        state = bank.state
        if rng.random() < 0.75:
            state.open_row = rng.randrange(NUM_ROWS)
        state.accept_at = rng.randrange(0, 3)
        state.conflict_bit = rng.random() < 0.3
        state.issued_since_switch = rng.random() < 0.6
    # Bank rows were mutated behind the executor's back: make the next
    # would_switch_row re-scan the banks.
    ctl.pim_exec._rows_uniform = False
    return ctl


# ---------------------------------------------------------------------------
# Primitive equivalence.
# ---------------------------------------------------------------------------


class TestPrimitivesMatchScan:
    SHAPE = SMALL

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("exclude", [False, True])
    def test_frfcfs_pick(self, seed, exclude):
        rng = random.Random(seed)
        ctl = random_controller(rng, shape=self.SHAPE)
        for cycle in (0, 1, 2):
            expected = scan_frfcfs_pick(ctl, cycle, exclude)
            actual = ctl.policy.frfcfs_pick(ctl, cycle, exclude_conflict_banks=exclude)
            assert actual is expected

    @pytest.mark.parametrize("seed", SEEDS)
    def test_oldest_overall(self, seed):
        rng = random.Random(seed)
        ctl = random_controller(rng, shape=self.SHAPE)
        assert ctl.oldest_overall() is scan_oldest_overall(ctl)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("policy_cls", [FRFCFS, FRRRFCFS])
    def test_conflict_bit_update(self, seed, policy_cls):
        rng = random.Random(seed)
        ctl = random_controller(rng, policy_name=policy_cls.name, shape=self.SHAPE)
        expected = scan_expected_conflict_bits(ctl)
        ctl.policy.stall_conflict_banks(ctl)
        actual = {bank.index: bank.state.conflict_bit for bank in ctl.channel.banks}
        assert actual == expected

    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_pending_banks_stalled(self, seed):
        rng = random.Random(seed)
        ctl = random_controller(rng, shape=self.SHAPE)
        stalled = ctl.policy.stall_conflict_banks(ctl)
        # The verdict is taken over the bits the same scan just set.
        assert stalled == scan_all_pending_banks_stalled(ctl)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("mode", [Mode.MEM, Mode.PIM])
    def test_bliss_decide(self, seed, mode):
        rng = random.Random(seed)
        ctl = random_controller(rng, policy_name="BLISS", shape=self.SHAPE)
        ctl.mode = mode
        policy = ctl.policy
        # Every blacklist over the three kernels, at three cycles (each
        # frees a different set of banks).
        for blacklisted in itertools.product((False, True), repeat=3):
            for cycle in (0, 1, 2):
                policy.blacklist.clear()
                policy.blacklist.update(k for k in range(3) if blacklisted[k])
                expected = scan_bliss_decide(policy, ctl, cycle)
                actual = policy.decide(ctl, cycle)
                assert decisions_equal(actual, expected)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("mode", [Mode.MEM, Mode.PIM])
    def test_f3fs_ablation_order(self, seed, mode):
        rng = random.Random(seed)
        ctl = random_controller(
            rng, policy_name="F3FS", shape=self.SHAPE, current_mode_first=False
        )
        ctl.mode = mode
        expected = scan_f3fs_ablation_decide(ctl, cycle=1)
        actual = ctl.policy._decide_frfcfs_order(ctl, cycle=1)
        assert decisions_equal(actual, expected)


class TestPrimitivesMatchScanPaperShape(TestPrimitivesMatchScan):
    """The same checks at the paper's bank count and queue depth."""

    SHAPE = PAPER


class TestIndexInvariants:
    """The order every one-pass scan relies on, under the controller's
    own enqueues and issues."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_list_model(self, seed):
        rng = random.Random(seed)
        policy_name = rng.choice(["FCFS", "FR-FCFS", "FR-RR-FCFS", "FR-FCFS-Cap", "BLISS", "F3FS"])
        ctl = make_controller(policy_name, queue_size=16)
        model = []  # MEM requests enqueued and not yet issued, in arrival order
        issued_mem = 0
        for cycle in range(600):
            if rng.random() < 0.6:
                if rng.random() < 0.7:
                    req = mem_request(
                        bank=rng.randrange(NUM_BANKS),
                        row=rng.randrange(NUM_ROWS),
                        kernel_id=rng.randrange(3),
                    )
                else:
                    req = pim_request(row=rng.randrange(NUM_ROWS))
                if ctl.enqueue(req, cycle) and not req.is_pim:
                    model.append(req)
            ctl.pop_completed(cycle)
            issued = ctl.tick(cycle)
            if issued is not None and not issued.is_pim:
                model.remove(issued)
                issued_mem += 1
            seqs = [r.mc_seq for r in ctl.mem_queue]
            assert all(a < b for a, b in zip(seqs, seqs[1:]))
            assert seqs == [r.mc_seq for r in model]
        assert issued_mem > 0


# ---------------------------------------------------------------------------
# End-to-end equivalence: scan-backed policies vs the one-pass policies.
# ---------------------------------------------------------------------------


class _ScanPickMixin:
    @staticmethod
    def frfcfs_pick(ctl, cycle, exclude_conflict_banks=False):
        return scan_frfcfs_pick(ctl, cycle, exclude_conflict_banks)

    @staticmethod
    def stall_conflict_banks(ctl):
        for bank_index, hit in scan_expected_conflict_bits(ctl).items():
            ctl.channel.banks[bank_index].state.conflict_bit = hit
        return scan_all_pending_banks_stalled(ctl)


class ScanFRFCFS(_ScanPickMixin, FRFCFS):
    pass


class ScanFRRR(_ScanPickMixin, FRRRFCFS):
    pass


class ScanF3FS(_ScanPickMixin, F3FS):
    def _decide_frfcfs_order(self, ctl, cycle):
        return scan_f3fs_ablation_decide(ctl, cycle)


class ScanDynF3FS(_ScanPickMixin, DynamicF3FS):
    def _decide_frfcfs_order(self, ctl, cycle):
        return scan_f3fs_ablation_decide(ctl, cycle)


class ScanBLISS(BLISS):
    def decide(self, ctl, cycle):
        return scan_bliss_decide(self, ctl, cycle)


class ScanCap(_ScanPickMixin, FRFCFSCap):
    pass


class ScanSMS(_ScanPickMixin, SMS):
    pass


class _FactorySpec:
    """Minimal PolicySpec stand-in: GPUSystem only calls ``create()``."""

    def __init__(self, factory):
        self.create = factory

    def label(self):  # pragma: no cover - debugging aid
        return "scan-vs-one-pass"


PAIRS = [
    ("FR-FCFS", lambda: make_policy("FR-FCFS"), ScanFRFCFS),
    ("FR-RR-FCFS", lambda: make_policy("FR-RR-FCFS"), ScanFRRR),
    ("FR-FCFS-Cap", lambda: make_policy("FR-FCFS-Cap", cap=16), lambda: ScanCap(cap=16)),
    (
        "BLISS",
        lambda: make_policy("BLISS", threshold=4, clear_interval=2_000),
        lambda: ScanBLISS(threshold=4, clear_interval=2_000),
    ),
    ("SMS", lambda: make_policy("SMS", batch_size=16), lambda: ScanSMS(batch_size=16)),
    (
        "F3FS",
        lambda: make_policy("F3FS", mem_cap=64, pim_cap=16, current_mode_first=False),
        lambda: ScanF3FS(mem_cap=64, pim_cap=16, current_mode_first=False),
    ),
    (
        "Dyn-F3FS",
        lambda: make_policy("Dyn-F3FS", initial_cap=32, epoch=1_000),
        lambda: ScanDynF3FS(initial_cap=32, epoch=1_000),
    ),
]


def run_fingerprint(factory):
    reset_request_ids()
    config = SystemConfig.scaled(num_channels=2, num_sms=4)
    system = GPUSystem(config, _FactorySpec(factory), seed=3, scale=0.06)
    system.add_kernel(get_gpu_kernel("G17"), num_sms=3, loop=True)
    system.add_kernel(get_pim_kernel("P1"), num_sms=1, loop=True)
    result = system.run(max_cycles=20_000, until_all_complete_once=False)
    return {
        "cycles": result.cycles,
        "issued": [(c.stats.mem_issued, c.stats.pim_issued) for c in system.controllers],
        "arrivals": [(c.stats.mem_arrivals, c.stats.pim_arrivals) for c in system.controllers],
        "injected": sorted(system._injected.items()),
        "switches": result.mode_switches,
        "hit_rate": result.row_buffer_hit_rate,
        "replies": system.replies_sent,
    }


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("name,one_pass,scan", PAIRS, ids=[p[0] for p in PAIRS])
    def test_simulation_fingerprint_identical(self, name, one_pass, scan):
        assert run_fingerprint(one_pass) == run_fingerprint(scan)
