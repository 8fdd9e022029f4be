"""Scheduling-policy framework for the memory controller.

A policy inspects the controller's queues and bank state each decision
cycle and returns a :class:`Decision`:

* ``Decision.mem(request)`` — issue this MEM request (must be issuable,
  i.e. its bank accepts a new request this cycle).  Only legal in MEM mode.
* ``Decision.pim()`` — issue the oldest PIM request (PIM is always FCFS
  for correctness of the block structure).  Only legal in PIM mode.
* ``Decision.switch(mode)`` — begin a mode switch (drain, then flip).
* ``Decision.idle()`` — nothing to do this cycle.

The controller enforces the mode mechanics (draining in-flight requests,
switch-overhead accounting); policies only choose requests and request
switches.  One policy instance is created per memory controller, so
policies are free to keep per-channel state.
"""

from __future__ import annotations

import abc
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.request import Mode, Request

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.controller import MemoryController


@dataclass(frozen=True, slots=True)
class Decision:
    kind: str  # "mem" | "pim" | "switch" | "idle"
    request: Optional[Request] = None
    target: Optional[Mode] = None

    @classmethod
    def mem(cls, request: Request) -> "Decision":
        return cls("mem", request=request)

    @classmethod
    def pim(cls) -> "Decision":
        return ISSUE_PIM

    @classmethod
    def switch(cls, target: Mode) -> "Decision":
        return cls("switch", target=target)

    @classmethod
    def idle(cls) -> "Decision":
        return IDLE


#: The two decisions that carry no request or target are constants, so a
#: policy's hot path builds no object for them.
IDLE = Decision("idle")
ISSUE_PIM = Decision("pim")

#: Sentinel "no self-scheduled event" cycle: a component reporting it only
#: needs attention again when an external event (an enqueue, or a reply
#: that re-arms a warp) wakes it.
NEVER = 1 << 62


class SchedulingPolicy(abc.ABC):
    """Base class for memory-controller scheduling policies."""

    #: Registry name; subclasses must override.
    name: str = "abstract"

    _controller_ref: Optional["weakref.ref[MemoryController]"] = None

    def attach(self, controller: "MemoryController") -> None:
        """Called once when the policy is bound to its controller.

        The policy keeps a weak reference: the controller owns the policy,
        and a strong one back would make every system a reference cycle.
        """
        self._controller_ref = weakref.ref(controller)

    @property
    def controller(self) -> Optional["MemoryController"]:
        """The attached controller (None before ``attach``)."""
        ref = self._controller_ref
        return ref() if ref is not None else None

    @abc.abstractmethod
    def decide(self, ctl: "MemoryController", cycle: int) -> Decision:
        """Choose the next action for this decision cycle."""

    # -- notification hooks -------------------------------------------------

    def on_issue(self, request: Request, cycle: int) -> None:
        """Called after a request is issued to DRAM/PIM."""

    def on_switch(self, new_mode: Mode, cycle: int) -> None:
        """Called when a mode switch completes."""

    def next_epoch_cycle(self, cycle: int) -> int:
        """First cycle after ``cycle`` at which time alone can change a
        decision (wake-heap contract).

        An idle controller sleeps until its next bank, refresh or enqueue
        event, so a policy whose decisions depend on the cycle itself (an
        epoch or interval boundary) must report the next such boundary
        here.  A controller with both queues empty does not wake for it:
        its next decision follows an arrival, so the policy must catch up
        on the boundaries passed then (key its state to the cycle, as
        BLISS and Dyn-F3FS do).  The default, ``NEVER``, suits policies
        that read only the queues, the banks and their own issue/switch
        counters.
        """
        return NEVER

    def may_switch_from_pim(self, ctl: "MemoryController", cycle: int) -> bool:
        """Whether a PIM-mode decision after ``cycle`` could begin a switch.

        Asked after a PIM issue or an arrival at ``cycle`` while the PIM
        executor is busy past ``cycle + 1``.  False lets the controller
        sleep until the executor frees or the epoch turns, so it must be
        exact: every decision until then, or until a request arrives, is
        idle.  True is always safe.  The default (no switch only on an
        empty MEM queue) suits policies that leave PIM mode only for MEM
        work.
        """
        return bool(ctl.mem_queue)

    # -- telemetry -----------------------------------------------------------

    def emit_event(self, cycle: int, kind: str, **data) -> None:
        """Emit a structured trace event tagged with this policy's channel.

        No-op unless the controller has telemetry attached (see
        :mod:`repro.obs`), and safe on a detached policy instance.
        """
        controller = self.controller
        if controller is None:
            return
        telemetry = controller.telemetry
        if telemetry is not None:
            telemetry.emit(cycle, kind, channel=controller.channel.index, **data)

    # -- shared selection helpers --------------------------------------------

    @staticmethod
    def frfcfs_pick(ctl: "MemoryController", cycle: int, exclude_conflict_banks: bool = False) -> Optional[Request]:
        """Row-hit-first, then oldest-first pick among issuable MEM requests.

        Consumes the controller's per-bank index: per issuable bank, the
        oldest request is the bank-deque head and the oldest row hit is the
        head of the open row's deque, so the pick costs O(banks with work)
        instead of O(queue).  ``mc_seq`` is unique per controller, so the
        global minima — and therefore the decision — are identical to a
        linear scan of the queue (``tests/test_scheduler_equivalence.py``).
        """
        mem_queue = ctl.mem_queue
        banks = ctl.channel.banks
        best_hit: Optional[Request] = None
        best_any: Optional[Request] = None
        for bank_index in mem_queue.banks_with_work():
            state = banks[bank_index].state
            if cycle < state.accept_at:
                continue
            if exclude_conflict_banks and state.conflict_bit:
                continue
            head = mem_queue.bank_head(bank_index)
            if best_any is None or head.mc_seq < best_any.mc_seq:
                best_any = head
            open_row = state.open_row
            if open_row is not None:
                hit = mem_queue.row_head(bank_index, open_row)
                if hit is not None and (best_hit is None or hit.mc_seq < best_hit.mc_seq):
                    best_hit = hit
        return best_hit if best_hit is not None else best_any

    @staticmethod
    def fallback_when_empty(ctl: "MemoryController") -> Optional[Decision]:
        """Switch modes when the current queue is empty and the other is not.

        This liveness fallback is shared by every policy: no reasonable
        arbiter lets the DRAM idle while requests of the other type wait.
        """
        if ctl.mode is Mode.MEM:
            if not ctl.mem_queue and ctl.pim_queue:
                return Decision.switch(Mode.PIM)
        else:
            if not ctl.pim_queue and ctl.mem_queue:
                return Decision.switch(Mode.MEM)
        return None


class PolicySpec:
    """A policy name plus constructor parameters.

    One :class:`SchedulingPolicy` instance is created per memory
    controller, so experiments pass specs around instead of instances.
    """

    def __init__(self, name: str, **params) -> None:
        self.name = name
        self.params = dict(params)

    def create(self) -> SchedulingPolicy:
        from repro.core.policies import make_policy

        return make_policy(self.name, **self.params)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.params:
            return f"PolicySpec({self.name!r})"
        return f"PolicySpec({self.name!r}, {self.params!r})"

    def label(self) -> str:
        return self.name
