"""Tests for the Request model and SimResult records."""

import pytest

from repro.pim.isa import PIMOp, PIMOpKind
from repro.request import Mode, Request, RequestType, reset_request_ids
from repro.sim.results import KernelResult, SimResult


class TestRequest:
    def test_pim_requires_op(self):
        with pytest.raises(ValueError):
            Request(type=RequestType.PIM, address=0)

    def test_mem_rejects_op(self):
        with pytest.raises(ValueError):
            Request(type=RequestType.MEM_LOAD, address=0, pim_op=PIMOp(PIMOpKind.LOAD))

    def test_ids_monotonic(self):
        a = Request(type=RequestType.MEM_LOAD, address=0)
        b = Request(type=RequestType.MEM_LOAD, address=0)
        assert b.id > a.id

    def test_reset_ids(self):
        reset_request_ids()
        request = Request(type=RequestType.MEM_LOAD, address=0)
        assert request.id == 0

    def test_mode_mapping(self):
        load = Request(type=RequestType.MEM_LOAD, address=0)
        pim = Request(type=RequestType.PIM, address=0, pim_op=PIMOp(PIMOpKind.LOAD))
        assert load.mode is Mode.MEM
        assert pim.mode is Mode.PIM
        assert Mode.MEM.other is Mode.PIM
        assert Mode.PIM.other is Mode.MEM

    def test_latency_accessors(self):
        request = Request(type=RequestType.MEM_LOAD, address=0)
        with pytest.raises(ValueError):
            _ = request.total_latency
        request.cycle_created = 10
        request.cycle_mc_arrival = 20
        request.cycle_issued = 35
        request.cycle_completed = 60
        assert request.total_latency == 50

    def test_identity_semantics(self):
        a = Request(type=RequestType.MEM_LOAD, address=0)
        b = Request(type=RequestType.MEM_LOAD, address=0)
        assert a != b
        assert len({a, b}) == 2

    def test_type_predicates(self):
        store = Request(type=RequestType.MEM_STORE, address=0)
        assert store.mode is Mode.MEM
        assert not store.is_load
        assert not store.is_pim


class TestKernelResult:
    def make(self, **kwargs):
        defaults = dict(kernel_id=0, name="k", is_pim=False)
        defaults.update(kwargs)
        return KernelResult(**defaults)

    def test_rates(self):
        result = self.make(requests_injected=100, mc_arrivals=50)
        assert result.injection_rate(200) == 0.5
        assert result.mc_arrival_rate(200) == 0.25
        assert result.injection_rate(0) == 0.0

    def test_rbhr(self):
        result = self.make(dram_row_hits=9, dram_row_misses=1)
        assert result.row_buffer_hit_rate == 0.9
        assert self.make().row_buffer_hit_rate == 0.0

    def test_l2_hit_rate(self):
        result = self.make(l2_accesses=10, l2_hits=4)
        assert result.l2_hit_rate == 0.4
        assert self.make().l2_hit_rate == 0.0


class TestSimResult:
    def test_lookup_helpers(self):
        result = SimResult(cycles=100)
        result.kernels[0] = KernelResult(kernel_id=0, name="a", is_pim=False, first_duration=50)
        result.kernels[1] = KernelResult(kernel_id=1, name="b", is_pim=True)
        assert result.kernel(0).name == "a"
        assert result.by_name("b").kernel_id == 1
        with pytest.raises(KeyError):
            result.by_name("c")

    def test_all_completed(self):
        result = SimResult(cycles=100)
        result.kernels[0] = KernelResult(kernel_id=0, name="a", is_pim=False, first_duration=50)
        assert result.all_completed
        result.kernels[1] = KernelResult(kernel_id=1, name="b", is_pim=True)
        assert not result.all_completed
        assert result.durations() == [50]
