"""Per-bank indexed MEM queue for the memory controller.

The FR-FCFS family makes the same three queries every decision cycle:

* *oldest overall* — FCFS arbitration across modes,
* *oldest per bank* — the "any" candidate of FR-FCFS,
* *oldest row hit per bank* — the "hit" candidate against the bank's
  currently open row.

With a flat ``List[Request]`` each query is an O(queue) scan per
controller per cycle.  :class:`BankIndexedMemQueue` maintains the answers
incrementally instead: requests are bucketed by bank at enqueue (the
decoded ``bank``/``row`` fields are cached on the request, so no address
math happens here), each bucket keeps arrival-ordered deques per bank and
per (bank, row), and a global arrival-ordered deque answers
``oldest_overall`` in O(1).

Removal uses **lazy tombstones**: ``Request.in_mem_queue`` is flipped off
and the dead entry stays in the deques until it reaches a head, where it
is popped while trimming.  Every request enters each deque exactly once,
so trimming is amortized O(1) per request over the whole simulation.

Invariants (exercised by ``tests/test_scheduler_equivalence.py``):

* A request is *live* iff ``in_mem_queue`` is True; live requests appear
  exactly once in their bank deque, their (bank, row) deque, and the
  global age deque, all in strictly increasing ``mc_seq`` order.
* ``len(q)`` equals the number of live requests; per-bank live counts are
  maintained eagerly so ``banks_with_work`` never reports an empty bank.
* Iteration yields live requests in arrival (``mc_seq``) order — the same
  order the flat list produced — so scan-style consumers (reference
  scans, metrics) see identical sequences.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterator, List, Optional

from repro.request import Request


class BankIndexedMemQueue:
    """Arrival-ordered MEM queue with per-bank and per-row indexes."""

    __slots__ = ("_num_banks", "_pending", "_rows", "_age", "_live", "_bank_live")

    def __init__(self, num_banks: int) -> None:
        if num_banks <= 0:
            raise ValueError("num_banks must be positive")
        self._num_banks = num_banks
        # Per-bank arrival order (lazily trimmed tombstones).
        self._pending: List[Deque[Request]] = [deque() for _ in range(num_banks)]
        # Per-bank row -> arrival-ordered requests for that row.
        self._rows: List[Dict[int, Deque[Request]]] = [{} for _ in range(num_banks)]
        # Global arrival order across banks.
        self._age: Deque[Request] = deque()
        self._live = 0
        self._bank_live = [0] * num_banks

    # -- list-compatible surface (truthiness, len, iteration, [0]) ---------

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def __iter__(self) -> Iterator[Request]:
        # Arrival order, skipping tombstones; no trimming so iteration is
        # safe while the queue is concurrently inspected (not mutated).
        for request in self._age:
            if request.in_mem_queue:
                yield request

    def __getitem__(self, index: int) -> Request:
        if index == 0:
            head = self.head()
            if head is None:
                raise IndexError("mem queue is empty")
            return head
        # Rare path kept for list compatibility (tests, debugging).
        return list(self)[index]

    def append(self, request: Request) -> None:
        """Admit ``request`` (must carry decoded bank/row and a fresh seq)."""
        bank = request.bank
        if bank < 0 or bank >= self._num_banks:
            raise ValueError(f"request bank {bank} outside [0, {self._num_banks})")
        request.in_mem_queue = True
        self._age.append(request)
        self._pending[bank].append(request)
        rows = self._rows[bank]
        row_queue = rows.get(request.row)
        if row_queue is None:
            rows[request.row] = row_queue = deque()
        row_queue.append(request)
        self._live += 1
        self._bank_live[bank] += 1

    def remove(self, request: Request) -> None:
        """Tombstone ``request``; deque entries are trimmed lazily."""
        if not request.in_mem_queue:
            raise ValueError("request is not in the MEM queue")
        request.in_mem_queue = False
        self._live -= 1
        self._bank_live[request.bank] -= 1

    # -- O(1) heads ---------------------------------------------------------

    def head(self) -> Optional[Request]:
        """Oldest live MEM request, or None."""
        age = self._age
        while age:
            request = age[0]
            if request.in_mem_queue:
                return request
            age.popleft()
        return None

    def bank_head(self, bank: int) -> Optional[Request]:
        """Oldest live request for ``bank``, or None."""
        pending = self._pending[bank]
        while pending:
            request = pending[0]
            if request.in_mem_queue:
                return request
            pending.popleft()
        return None

    def row_head(self, bank: int, row: int) -> Optional[Request]:
        """Oldest live request for (``bank``, ``row``), or None."""
        rows = self._rows[bank]
        row_queue = rows.get(row)
        if row_queue is None:
            return None
        while row_queue:
            request = row_queue[0]
            if request.in_mem_queue:
                return request
            row_queue.popleft()
        del rows[row]
        return None

    # -- bank-level views ----------------------------------------------------

    def banks_with_work(self) -> Iterator[int]:
        """Bank indices with at least one live request, ascending."""
        bank_live = self._bank_live
        for bank in range(self._num_banks):
            if bank_live[bank]:
                yield bank

    # -- filtered oldest lookups (BLISS blacklisting) ------------------------

    def bank_oldest(
        self, bank: int, pred: Optional[Callable[[Request], bool]] = None
    ) -> Optional[Request]:
        """Oldest live request in ``bank`` satisfying ``pred`` (or any)."""
        if pred is None:
            return self.bank_head(bank)
        for request in self._pending[bank]:
            if request.in_mem_queue and pred(request):
                return request
        return None

    def row_oldest(
        self, bank: int, row: int, pred: Optional[Callable[[Request], bool]] = None
    ) -> Optional[Request]:
        """Oldest live request for (``bank``, ``row``) satisfying ``pred``."""
        if pred is None:
            return self.row_head(bank, row)
        row_queue = self._rows[bank].get(row)
        if row_queue is None:
            return None
        for request in row_queue:
            if request.in_mem_queue and pred(request):
                return request
        return None
