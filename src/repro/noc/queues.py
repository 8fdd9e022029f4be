"""Bounded FIFO queues with backpressure.

Every buffer in the modelled memory path (SM output queues, the
interconnect→L2 queues, the L2→DRAM queues) is a :class:`BoundedQueue`.
A full queue refuses pushes, which is how backpressure propagates from the
memory controller all the way back to the SMs (Figure 7a).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Generic, Iterable, Optional, TypeVar

T = TypeVar("T")


class BoundedQueue(Generic[T]):
    """FIFO with a hard capacity and a count of refused pushes.

    ``on_push`` / ``on_pop`` are optional zero-argument callbacks fired on
    occupancy transitions only: ``on_push`` when a push makes an empty
    queue non-empty, ``on_pop`` when a pop (or ``clear``) empties it.  The
    simulation engine uses them to maintain its per-stage active sets
    incrementally (see ``docs/performance.md``).  ``on_reject`` fires on
    every push bounced off a full queue; telemetry uses it to trace
    backpressure events (``docs/observability.md``).
    """

    __slots__ = (
        "capacity",
        "name",
        "_items",
        "rejects",
        "on_push",
        "on_pop",
        "on_reject",
    )

    def __init__(self, capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._items: Deque[T] = deque()
        self.rejects = 0
        self.on_push: Optional[Callable[[], None]] = None
        self.on_pop: Optional[Callable[[], None]] = None
        self.on_reject: Optional[Callable[[], None]] = None

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self) -> Iterable[T]:
        return iter(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def free_space(self) -> int:
        return self.capacity - len(self._items)

    def try_push(self, item: T) -> bool:
        items = self._items
        if len(items) >= self.capacity:
            self.rejects += 1
            if self.on_reject is not None:
                self.on_reject()
            return False
        items.append(item)
        if len(items) == 1 and self.on_push is not None:
            self.on_push()
        return True

    def push(self, item: T) -> None:
        if not self.try_push(item):
            raise OverflowError(f"queue {self.name or id(self)} is full")

    def peek(self) -> Optional[T]:
        return self._items[0] if self._items else None

    def pop(self) -> T:
        if not self._items:
            raise IndexError("pop from empty queue")
        item = self._items.popleft()
        if not self._items and self.on_pop is not None:
            self.on_pop()
        return item

    def clear(self) -> None:
        if self._items:
            self._items.clear()
            if self.on_pop is not None:
                self.on_pop()
