"""Set-associative L2 cache slice.

One slice per channel (the paper's 6 MB L2 is banked across the 32 memory
partitions).  MEM loads are filtered here; PIM requests bypass the cache
entirely (they are cache-streaming stores, Section III-A).

Policy summary:

* loads: hit → reply after ``l2_latency``; primary miss → allocate MSHR
  and forward the request to DRAM as a fill; secondary miss → merge.
* stores: write-through-on-miss / write-back-on-hit — a store hit marks
  the line dirty and is absorbed; a store miss is forwarded to DRAM
  without allocation.  Dirty victims generate writeback requests.

Simplification vs hardware: a fill moves one DRAM access (the triggering
request), not a full 128-byte line's worth of bursts; the line-granularity
effects that matter here (filtering, MSHR merging, writeback traffic) are
preserved.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cache.mshr import MSHRFile
from repro.request import Request, RequestType


@dataclass
class L2Stats:
    load_hits: int = 0
    load_misses: int = 0  # primary misses (DRAM fills)
    load_merges: int = 0  # secondary misses merged into an MSHR
    store_hits: int = 0
    store_misses: int = 0
    writebacks: int = 0
    stalls: int = 0  # cycles the slice could not sink its input
    kernel_hits: Dict[int, int] = field(default_factory=dict)
    kernel_accesses: Dict[int, int] = field(default_factory=dict)

    @property
    def accesses(self) -> int:
        return self.load_hits + self.load_misses + self.load_merges + self.store_hits + self.store_misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        hits = self.load_hits + self.store_hits + self.load_merges
        return hits / total if total else 0.0


class LookupResult:
    """Outcome of presenting one request to the slice."""

    __slots__ = ()

    HIT = "hit"
    MISS_PRIMARY = "miss_primary"
    MISS_SECONDARY = "miss_secondary"
    STORE_FORWARD = "store_forward"
    BLOCKED = "blocked"


class L2Slice:
    """One channel's slice of the L2 cache."""

    def __init__(
        self,
        slice_bytes: int,
        assoc: int,
        line_bytes: int,
        mshr_capacity: int,
        channel_index: int = 0,
        mapper=None,
    ) -> None:
        if slice_bytes < assoc * line_bytes:
            raise ValueError("slice too small for one set")
        if line_bytes & (line_bytes - 1):
            raise ValueError("line size must be a power of two")
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.num_sets = max(1, slice_bytes // (assoc * line_bytes))
        self.channel_index = channel_index
        self.mapper = mapper
        # sets[i]: OrderedDict mapping line address -> dirty flag (LRU order,
        # least recently used first), or None until the set's first install.
        self._sets: List[Optional[OrderedDict]] = [None] * self.num_sets
        self.mshrs = MSHRFile(mshr_capacity)
        self.stats = L2Stats()

    # -- address helpers ----------------------------------------------------

    def line_of(self, address: int) -> int:
        return address // self.line_bytes


    # -- main lookup -------------------------------------------------------

    def lookup(self, request: Request) -> str:
        """Classify a request; updates tags/MSHRs but defers fills.

        Returns a :class:`LookupResult` constant.  ``MISS_PRIMARY`` means
        the caller must forward the request to DRAM as a fill (only
        returned when an MSHR was successfully allocated); ``BLOCKED``
        means the MSHR file is full and the request must be retried.
        """
        if request.is_pim:
            raise ValueError("PIM requests bypass the L2")
        line = request.address // self.line_bytes
        request.l2_line = line
        tag_set = self._sets[line % self.num_sets]
        stats = self.stats
        kid = request.kernel_id
        accesses = stats.kernel_accesses
        accesses[kid] = accesses.get(kid, 0) + 1

        if not request.is_load:  # store (PIM rejected above)
            if tag_set is not None and line in tag_set:
                tag_set.move_to_end(line)
                tag_set[line] = True  # now dirty
                stats.store_hits += 1
                hits = stats.kernel_hits
                hits[kid] = hits.get(kid, 0) + 1
                return LookupResult.HIT
            stats.store_misses += 1
            return LookupResult.STORE_FORWARD

        # Loads.
        if tag_set is not None and line in tag_set:
            tag_set.move_to_end(line)
            stats.load_hits += 1
            hits = stats.kernel_hits
            hits[kid] = hits.get(kid, 0) + 1
            return LookupResult.HIT
        if self.mshrs.has(line):
            self.mshrs.merge(line, request)
            stats.load_merges += 1
            # Filtered from DRAM's perspective: counts as a hit.
            hits = stats.kernel_hits
            hits[kid] = hits.get(kid, 0) + 1
            return LookupResult.MISS_SECONDARY
        if not self.mshrs.allocate(line, request):
            stats.stalls += 1
            return LookupResult.BLOCKED
        request.is_l2_fill = True
        stats.load_misses += 1
        return LookupResult.MISS_PRIMARY

    def install(self, fill: Request) -> Tuple[List[Request], Optional[Request]]:
        """Install the line for a returned fill.

        Returns ``(waiting_requests, writeback)`` where ``waiting_requests``
        includes the fill's own request plus merged secondaries, and
        ``writeback`` is a store request for a dirty victim (or ``None``).
        """
        line = fill.l2_line
        waiting = self.mshrs.release(line)
        index = line % self.num_sets
        tag_set = self._sets[index]
        if tag_set is None:
            tag_set = self._sets[index] = OrderedDict()
        writeback: Optional[Request] = None
        if line not in tag_set:
            if len(tag_set) >= self.assoc:
                victim_line, dirty = tag_set.popitem(last=False)
                if dirty:
                    writeback = self._make_writeback(victim_line, fill)
                    self.stats.writebacks += 1
            tag_set[line] = False
        return waiting, writeback

    def _make_writeback(self, line: int, cause: Request) -> Request:
        request = Request(
            type=RequestType.MEM_STORE,
            address=line * self.line_bytes,
            source=cause.source,
            kernel_id=cause.kernel_id,
            is_writeback=True,
        )
        if self.mapper is not None:
            self.mapper.assign(request)
        else:
            request.channel = cause.channel
            request.bank = cause.bank
            request.row = cause.row
            request.column = cause.column
        return request

    def contains(self, address: int) -> bool:
        line = self.line_of(address)
        tag_set = self._sets[line % self.num_sets]
        return tag_set is not None and line in tag_set

    def reset(self) -> None:
        for tag_set in self._sets:
            if tag_set is not None:
                tag_set.clear()
        self.mshrs = MSHRFile(self.mshrs.capacity)
        self.stats = L2Stats()
