"""Tests for the per-SM L1 data cache and its SM integration."""

import pytest

from repro.cache.l1 import L1Cache
from repro.config import SystemConfig
from repro.core.policies import PolicySpec
from repro.sim.system import GPUSystem
from repro.workloads.synthetic import GPUKernelProfile


class TestL1Cache:
    def test_cold_miss_then_hit_after_install(self):
        l1 = L1Cache(capacity_words=16, assoc=4)
        assert not l1.lookup_load(100)
        l1.install(100)
        assert l1.lookup_load(100)
        assert l1.stats.load_hits == 1
        assert l1.stats.load_misses == 1

    def test_lru_eviction(self):
        l1 = L1Cache(capacity_words=4, assoc=4)  # one set
        for addr in range(4):
            l1.install(addr * 4)  # same set (addresses % num_sets == 0)
        l1.lookup_load(0)  # refresh address 0
        l1.install(16)  # evicts LRU (address 4)
        assert l1.contains(0)
        assert not l1.contains(4)

    def test_store_never_allocates(self):
        l1 = L1Cache(capacity_words=16, assoc=4)
        l1.note_store(100)
        assert not l1.contains(100)
        assert l1.stats.stores == 1

    def test_install_idempotent(self):
        l1 = L1Cache(capacity_words=16, assoc=4)
        l1.install(5)
        l1.install(5)
        assert l1.stats.installs == 1

    def test_reset(self):
        l1 = L1Cache(capacity_words=16, assoc=4)
        l1.install(5)
        l1.reset()
        assert not l1.contains(5)
        assert l1.stats.accesses == 0

    def test_sets_allocated_on_first_install(self):
        l1 = L1Cache(capacity_words=16, assoc=4)
        allocated = lambda: sum(tag_set is not None for tag_set in l1._sets)
        assert not l1.lookup_load(5)
        l1.note_store(5)
        assert not l1.contains(5)
        l1.reset()
        assert allocated() == 0
        l1.install(5)
        assert allocated() == 1 and l1.contains(5)

    def test_validation(self):
        with pytest.raises(ValueError):
            L1Cache(capacity_words=2, assoc=4)
        with pytest.raises(ValueError):
            L1Cache(capacity_words=4, assoc=0)

    def test_hit_rate(self):
        l1 = L1Cache(capacity_words=16, assoc=4)
        l1.install(1)
        l1.lookup_load(1)
        l1.lookup_load(2)
        assert l1.stats.hit_rate == 0.5


class TestSMWithL1:
    def _run(self, l1_enabled):
        config = SystemConfig.scaled(num_channels=4, num_sms=4).replace(
            l1_enabled=l1_enabled
        )
        spec = GPUKernelProfile(
            name="l1-study", accesses_per_warp=256, l2_reuse=0.6,
            hot_words=16, compute_per_phase=5,
        )
        system = GPUSystem(config, PolicySpec("FR-FCFS"))
        system.add_kernel(spec, num_sms=2)
        result = system.run(max_cycles=500_000)
        assert result.all_completed
        return system, result

    def test_l1_filters_noc_traffic(self):
        _, without = self._run(l1_enabled=False)
        system, with_l1 = self._run(l1_enabled=True)
        assert with_l1.kernels[0].requests_injected < without.kernels[0].requests_injected
        hits = sum(sm.l1.stats.load_hits for sm in system.sms if sm.l1 is not None)
        assert hits > 0

    def test_l1_preserves_request_conservation(self):
        system, result = self._run(l1_enabled=True)
        assert all(v == 0 for v in system._kernel_inflight.values())

    def test_l1_disabled_means_no_cache(self):
        system, _ = self._run(l1_enabled=False)
        assert all(sm.l1 is None for sm in system.sms)
