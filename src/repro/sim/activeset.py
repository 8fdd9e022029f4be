"""Order-preserving active sets for the cycle engine.

The engine's stage loops visit their active members in ascending index
order — iteration order is *simulated behaviour* (reply sequence numbers
are assigned in visit order), so it must be deterministic and stable.
The original implementation kept plain ``set`` objects and paid a
``sorted()`` per stage per cycle; :class:`OrderedIndexSet` maintains the
ascending order incrementally instead.

Membership is tracked in a hash set; the iteration order lives in a
sorted list updated by bisection insert / list removal.  Active sets hold
small dense indices (channels, SMs), so the O(n) list operations are
single C-level ``memmove``s and beat re-sorting every cycle.

``snapshot()`` returns a copy for loops that discard members while
iterating (every drain-style stage does).
"""

from __future__ import annotations

from bisect import insort
from typing import Iterable, Iterator, List, Set


class OrderedIndexSet:
    """A set of small integer indices, iterable in ascending order."""

    __slots__ = ("_members", "_order")

    def __init__(self, items: Iterable[int] = ()) -> None:
        self._members: Set[int] = set(items)
        self._order: List[int] = sorted(self._members)

    def add(self, key: int) -> None:
        if key not in self._members:
            self._members.add(key)
            insort(self._order, key)

    def discard(self, key: int) -> None:
        if key in self._members:
            self._members.remove(key)
            self._order.remove(key)

    def update(self, keys: Iterable[int]) -> None:
        for key in keys:
            self.add(key)

    def snapshot(self) -> List[int]:
        """Ascending copy, safe to iterate while mutating the set."""
        return self._order.copy()

    def __bool__(self) -> bool:
        return bool(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, key: int) -> bool:
        return key in self._members

    def __iter__(self) -> Iterator[int]:
        return iter(self._order)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OrderedIndexSet({self._order!r})"
