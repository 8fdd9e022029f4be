"""Virtual-channel buffer sets (Section V-A).

A :class:`VCBuffer` is the unit of buffering at each hop of the memory
path.  In the **VC1** baseline it is a single shared FIFO; in the **VC2**
proposal MEM and PIM requests get separate queues of half the capacity each
(the paper keeps *total* queue size equal when comparing the two), and the
consumer alternates between them round-robin, skipping a VC whose head is
blocked — this is what prevents PIM bursts from denying service to MEM
requests before the memory controller.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Deque, Optional

from repro.noc.queues import BoundedQueue
from repro.request import Mode, Request


def _discard_unless_busy(active_set, key: int, sibling: Deque[Request]) -> None:
    """VC2 pop hook: one VC just emptied; leave the set only if the other
    VC is empty too."""
    if not sibling:
        active_set.discard(key)


class VCBuffer:
    """One or two virtual-channel FIFOs with round-robin service."""

    __slots__ = ("num_vcs", "name", "_queues", "lanes", "order")

    def __init__(self, total_capacity: int, num_vcs: int, name: str = "") -> None:
        if num_vcs not in (1, 2):
            raise ValueError(f"num_vcs must be 1 or 2 (got {num_vcs!r})")
        if total_capacity < num_vcs:
            raise ValueError(
                f"total_capacity must be >= num_vcs={num_vcs} (got {total_capacity!r})"
            )
        self.num_vcs = num_vcs
        self.name = name
        if num_vcs == 1:
            self._queues = [BoundedQueue(total_capacity, name=f"{name}/shared")]
        else:
            half = total_capacity // 2
            self._queues = [
                BoundedQueue(half, name=f"{name}/mem"),
                BoundedQueue(total_capacity - half, name=f"{name}/pim"),
            ]
        #: The VC queue a request travels in, indexed by ``request.is_pim``
        #: (VC1: the shared queue twice).  Hot paths that have checked a
        #: lane's space push onto it directly: one call per push.
        self.lanes = (self._queues[0], self._queues[-1])
        #: The lanes in service-preference order: the modified iSlip's VC
        #: *not* served last comes first (Section V-A).  VC1:
        #: ``(shared,)``; VC2: ``(mem, pim)`` or ``(pim, mem)``.
        self.order = tuple(self._queues)

    def watch(self, active_set, key: int) -> None:
        """Keep ``key`` in ``active_set`` exactly while this buffer holds a
        request.

        ``active_set`` is any object with ``add``/``discard`` (the engine
        passes its per-stage active sets).  The hooks fire only when a VC
        queue turns non-empty or empty; under VC2 the pop hook also checks
        the sibling VC.  They reference the set and the sibling's deque,
        never the buffer, so a watched buffer holds no reference cycle.
        Direct pushes onto ``queue(mode)`` (e.g. L2 writebacks) fire the
        same hooks.
        """
        on_push = partial(active_set.add, key)
        if self.num_vcs == 1:
            queue = self._queues[0]
            queue.on_push = on_push
            queue.on_pop = partial(active_set.discard, key)
            return
        mem, pim = self._queues
        for queue, sibling in ((mem, pim), (pim, mem)):
            queue.on_push = on_push
            queue.on_pop = partial(_discard_unless_busy, active_set, key, sibling._items)

    def watch_rejects(self, on_reject: Optional[Callable[[], None]]) -> None:
        """Register a callback fired whenever a push bounces off a full VC.

        Telemetry wires this to a ``noc_reject`` trace event per bounced
        push (see :mod:`repro.obs`).
        """
        for queue in self._queues:
            queue.on_reject = on_reject

    # -- routing ---------------------------------------------------------

    def queue_for(self, request: Request) -> BoundedQueue:
        return self.lanes[request.is_pim]

    def queue(self, mode: Mode) -> BoundedQueue:
        """The queue serving the given mode (both modes share VC0 in VC1)."""
        return self.lanes[mode is Mode.PIM]

    # -- producer side ------------------------------------------------------

    def try_push(self, request: Request) -> bool:
        return self.lanes[request.is_pim].try_push(request)

    # -- consumer side ------------------------------------------------------

    def pop(self, lane: BoundedQueue) -> Request:
        """Pop ``lane``'s head; under VC2 the other VC is preferred next.

        Consumers walk ``order`` and read ``lane._items[0]``; this pops
        the deque itself rather than calling ``BoundedQueue.pop``: one
        call per pop on the engine's hot path.
        """
        items = lane._items
        request = items.popleft()
        order = self.order
        if lane is order[0] and self.num_vcs == 2:
            self.order = (order[1], lane)
        if not items and lane.on_pop is not None:
            lane.on_pop()
        return request

    # -- stats -----------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues)

    def __bool__(self) -> bool:
        if self._queues[0]._items:
            return True
        return self.num_vcs == 2 and bool(self._queues[1]._items)

    @property
    def total_rejects(self) -> int:
        return sum(q.rejects for q in self._queues)

    def occupancy(self, mode: Mode) -> int:
        return len(self.queue(mode))
