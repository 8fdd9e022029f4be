"""Tests for the L2 cache slice and MSHR file."""

import pytest

from repro.cache.l2 import L2Slice, LookupResult
from repro.cache.mshr import MSHRFile
from repro.pim.isa import PIMOp, PIMOpKind
from repro.request import Request, RequestType


def make_slice(words=64, assoc=4, mshrs=4):
    return L2Slice(slice_bytes=words, assoc=assoc, line_bytes=1, mshr_capacity=mshrs)


def load(address, kernel_id=0):
    return Request(type=RequestType.MEM_LOAD, address=address, kernel_id=kernel_id)


def store(address, kernel_id=0):
    return Request(type=RequestType.MEM_STORE, address=address, kernel_id=kernel_id)


class TestMSHR:
    def test_allocate_merge_release(self):
        mshrs = MSHRFile(2)
        a, b = load(1), load(1)
        assert mshrs.allocate(1, a)
        mshrs.merge(1, b)
        assert mshrs.has(1)
        assert mshrs.release(1) == [a, b]
        assert not mshrs.has(1)

    def test_capacity(self):
        mshrs = MSHRFile(1)
        assert mshrs.allocate(1, load(1))
        assert not mshrs.allocate(2, load(2))
        assert mshrs.full

    def test_double_allocate_rejected(self):
        mshrs = MSHRFile(2)
        mshrs.allocate(1, load(1))
        with pytest.raises(ValueError):
            mshrs.allocate(1, load(1))

    def test_release_unknown_raises(self):
        with pytest.raises(KeyError):
            MSHRFile(1).release(5)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            MSHRFile(0)


class TestL2Lookup:
    def test_cold_load_is_primary_miss(self):
        l2 = make_slice()
        request = load(10)
        assert l2.lookup(request) == LookupResult.MISS_PRIMARY
        assert request.is_l2_fill
        assert l2.stats.load_misses == 1

    def test_second_load_merges(self):
        l2 = make_slice()
        l2.lookup(load(10))
        assert l2.lookup(load(10)) == LookupResult.MISS_SECONDARY
        assert l2.stats.load_merges == 1

    def test_load_hits_after_install(self):
        l2 = make_slice()
        fill = load(10)
        l2.lookup(fill)
        waiting, writeback = l2.install(fill)
        assert waiting == [fill]
        assert writeback is None
        assert l2.lookup(load(10)) == LookupResult.HIT
        assert l2.stats.load_hits == 1

    def test_install_replies_to_merged(self):
        l2 = make_slice()
        fill, second = load(10), load(10)
        l2.lookup(fill)
        l2.lookup(second)
        waiting, _ = l2.install(fill)
        assert waiting == [fill, second]

    def test_store_miss_forwards_without_allocation(self):
        l2 = make_slice()
        request = store(10)
        assert l2.lookup(request) == LookupResult.STORE_FORWARD
        assert not request.is_l2_fill
        assert not l2.contains(10)

    def test_store_hit_absorbs_and_dirties(self):
        l2 = make_slice()
        fill = load(10)
        l2.lookup(fill)
        l2.install(fill)
        assert l2.lookup(store(10)) == LookupResult.HIT
        assert l2.stats.store_hits == 1

    def test_blocked_when_mshrs_full(self):
        l2 = make_slice(mshrs=1)
        l2.lookup(load(1))
        assert l2.lookup(load(2)) == LookupResult.BLOCKED
        assert l2.stats.stalls == 1

    def test_pim_rejected(self):
        l2 = make_slice()
        pim = Request(type=RequestType.PIM, address=0, pim_op=PIMOp(PIMOpKind.LOAD))
        with pytest.raises(ValueError):
            l2.lookup(pim)


class TestEviction:
    def test_lru_eviction(self):
        # One set: 4-way with 4 sets of... make sets=1 via words=assoc.
        l2 = L2Slice(slice_bytes=4, assoc=4, line_bytes=1, mshr_capacity=8)
        assert l2.num_sets == 1
        for addr in range(4):
            fill = load(addr)
            l2.lookup(fill)
            l2.install(fill)
        fill = load(4)
        l2.lookup(fill)
        _, writeback = l2.install(fill)
        assert writeback is None  # victim was clean
        assert not l2.contains(0)  # LRU evicted
        assert l2.contains(4)

    def test_dirty_eviction_creates_writeback(self):
        l2 = L2Slice(slice_bytes=4, assoc=4, line_bytes=1, mshr_capacity=8)
        for addr in range(4):
            fill = load(addr)
            l2.lookup(fill)
            l2.install(fill)
        l2.lookup(store(0))  # dirty line 0
        l2.lookup(load(1))  # touch 1 so line 0 becomes LRU... order: 2,3,0,1
        fill = load(4)
        l2.lookup(fill)
        _, writeback = l2.install(fill)
        # Line 2 is LRU and clean; keep evicting until the dirty one goes.
        fills = [load(5), load(6)]
        writebacks = [writeback]
        for f in fills:
            l2.lookup(f)
            wb, = (l2.install(f)[1],)
            writebacks.append(wb)
        dirty_wbs = [w for w in writebacks if w is not None]
        assert len(dirty_wbs) == 1
        assert dirty_wbs[0].is_writeback
        assert dirty_wbs[0].address == 0
        assert l2.stats.writebacks == 1

    def test_hit_rate_and_kernel_stats(self):
        l2 = make_slice()
        fill = load(10, kernel_id=3)
        l2.lookup(fill)
        l2.install(fill)
        l2.lookup(load(10, kernel_id=3))
        assert l2.stats.kernel_accesses[3] == 2
        assert l2.stats.kernel_hits[3] == 1
        assert 0 < l2.stats.hit_rate < 1

    def test_reset(self):
        l2 = make_slice()
        fill = load(10)
        l2.lookup(fill)
        l2.install(fill)
        l2.reset()
        assert not l2.contains(10)
        assert l2.stats.accesses == 0

    def test_sets_allocated_on_first_install(self):
        l2 = make_slice(words=64, assoc=4)
        allocated = lambda: sum(tag_set is not None for tag_set in l2._sets)
        l2.lookup(store(3))
        assert not l2.contains(3)
        l2.reset()
        assert allocated() == 0
        fill = load(3)
        l2.lookup(fill)
        l2.install(fill)
        assert allocated() == 1 and l2.contains(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            L2Slice(slice_bytes=2, assoc=4, line_bytes=1, mshr_capacity=1)
        with pytest.raises(ValueError):
            L2Slice(slice_bytes=64, assoc=4, line_bytes=3, mshr_capacity=1)
