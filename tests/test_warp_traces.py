"""Warp-trace record/replay (``repro.gpu.warp_traces``).

A replayed warp program must be indistinguishable from a freshly
generated one: same phases, same request fields (with the replaying
instance's ``kernel_id``), and the same consumption of the global
request-id stream.  Only the three synthetic spec types are replayed;
everything else is generated on every launch.  A ``Runner`` shares one
cache across every system it builds.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core.policies import PolicySpec
from repro.experiments.runner import ExperimentScale, Runner
from repro.gpu.kernel import KernelInstance, LaunchContext
from repro.gpu.warp_traces import (
    REPLAYABLE_SPECS,
    WarpTraceCache,
    build_request,
    record_request,
)
from repro.pim.program import vector_add_program
from repro.request import Request, reset_request_ids
from repro.sim.system import GPUSystem
from repro.workloads import PIM_SUITE, RODINIA, llm_kernels
from repro.workloads.synthetic import GPUKernelProfile
from repro.workloads.traces import TraceKernel, save_trace

ALL_SPECS = (
    [(f"rodinia-{k}", v) for k, v in RODINIA.items()]
    + [(f"pim-{k}", v) for k, v in PIM_SUITE.items()]
    + [(f"llm-{v.name}", v) for v in llm_kernels()]
)

#: (num_sms, scale, channels, kernel_id) launch variations.
LAUNCHES = ((1, 0.01, 2, 0), (3, 0.02, 4, 5), (2, 0.015, 8, 2))


def _ctx(num_sms: int, scale: float, channels: int, kernel_id: int) -> LaunchContext:
    config = SystemConfig.scaled(num_channels=channels, num_sms=max(num_sms, 2))
    return LaunchContext(
        mapper=config.mapper,
        num_channels=channels,
        banks_per_channel=config.banks_per_channel,
        num_sms=num_sms,
        warps_per_sm=config.warps_per_sm,
        rng=np.random.default_rng(7),
        scale=scale,
        rf_entries_per_bank=config.rf_entries_per_bank,
        kernel_id=kernel_id,
    )


def _flatten(program):
    """Every observable field of every phase, request ids included."""
    out = []
    for phase in program:
        out.append(
            (
                phase.compute_cycles,
                phase.wait_for_replies,
                [
                    (
                        r.id, r.type, r.address, r.kernel_id, r.pim_op, r.size,
                        r.channel, r.bank, r.row, r.column, r.source, r.warp,
                    )
                    for r in phase.requests
                ],
            )
        )
    return out


def _programs(instance: KernelInstance, warps):
    reset_request_ids()
    return [_flatten(instance.warp_program(slot, warp)) for slot, warp in warps]


def _warps(spec, ctx):
    per_sm = spec.warps_per_sm(ctx)
    return [(slot, warp) for slot in range(ctx.num_sms) for warp in range(min(per_sm, 2))]


@pytest.mark.parametrize("name,spec", ALL_SPECS, ids=[n for n, _ in ALL_SPECS])
def test_replay_equals_fresh_generation(name, spec):
    assert type(spec) in REPLAYABLE_SPECS
    cache = WarpTraceCache()
    for num_sms, scale, channels, kernel_id in LAUNCHES:
        ctx = _ctx(num_sms, scale, channels, kernel_id)
        warps = _warps(spec, ctx)
        fresh = _programs(KernelInstance(spec, ctx, kernel_id, seed=3), warps)
        hits = cache.hits
        recorded = _programs(KernelInstance(spec, ctx, kernel_id, seed=3, traces=cache), warps)
        assert cache.hits == hits  # first launch under this key records
        # A relaunch under another kernel id replays: same fields, the
        # new kernel id, and the same request-id consumption.
        other = kernel_id + 1
        ctx_other = dataclasses.replace(ctx, kernel_id=other)
        replayed = _programs(KernelInstance(spec, ctx_other, other, seed=3, traces=cache), warps)
        expected = _programs(KernelInstance(spec, ctx_other, other, seed=3), warps)
        assert cache.hits == hits + len(warps)
        assert recorded == fresh
        assert replayed == expected


@pytest.mark.parametrize("name,spec", ALL_SPECS, ids=[n for n, _ in ALL_SPECS])
def test_builder_matches_constructor_on_every_field(name, spec):
    # A field added to Request later cannot be skipped silently by replay.
    fields = [f.name for f in dataclasses.fields(Request) if f.name != "id"]
    num_sms, scale, channels, kernel_id = LAUNCHES[0]
    ctx = _ctx(num_sms, scale, channels, kernel_id)
    built = 0
    for slot, warp in _warps(spec, ctx):
        for phase in KernelInstance(spec, ctx, kernel_id, seed=3).warp_program(slot, warp):
            for fresh in phase.requests:
                replayed = build_request(record_request(fresh), kernel_id)
                assert [getattr(replayed, f) for f in fields] == [
                    getattr(fresh, f) for f in fields
                ]
                built += 1
    assert built


def test_key_covers_seed_and_context():
    spec = RODINIA["G17"]
    ctx = _ctx(2, 0.02, 4, 0)
    base = WarpTraceCache.key(spec, ctx, 1)
    assert base == WarpTraceCache.key(spec, dataclasses.replace(ctx, kernel_id=9), 1)
    assert base == WarpTraceCache.key(spec, dataclasses.replace(ctx, rng=None), 1)
    assert base != WarpTraceCache.key(spec, ctx, 2)
    for change in ({"num_sms": 3}, {"scale": 0.03}, {"warps_per_sm": 7}, {"rf_entries_per_bank": 4}):
        assert base != WarpTraceCache.key(spec, dataclasses.replace(ctx, **change), 1)
    assert base != WarpTraceCache.key(dataclasses.replace(spec, row_locality=0.99), ctx, 1)
    # An unhashable field value makes the spec uncacheable, not an error.
    listed = dataclasses.replace(PIM_SUITE["P1"], ops=list(PIM_SUITE["P1"].ops))
    assert WarpTraceCache.key(listed, ctx, 1) is None


class _Overridden(GPUKernelProfile):
    """A subclass whose programs depend on how often they were generated."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls = 0

    def warp_program(self, ctx, sm_slot, warp):
        self.calls += 1
        return super().warp_program(ctx, sm_slot, warp)


def _launch_twice(spec, ctx):
    cache = WarpTraceCache()
    for kernel_id in (0, 1):
        instance = KernelInstance(spec, ctx, kernel_id, seed=1, traces=cache)
        assert instance.trace_table is None
        list(instance.warp_program(0, 0))
    assert cache.hits == 0 and len(cache) == 0


def test_subclass_trace_and_compiled_kernels_are_not_replayed(tmp_path):
    ctx = _ctx(1, 0.02, 4, 0)
    overridden = _Overridden(name="sub", accesses_per_warp=64)
    _launch_twice(overridden, ctx)
    assert overridden.calls == 2
    path = tmp_path / "k.trace"
    save_trace(GPUKernelProfile(name="traced", accesses_per_warp=32), ctx, path, sm_slots=1)
    _launch_twice(TraceKernel(path), ctx)
    _launch_twice(vector_add_program().build(elements=64), ctx)


def test_abandoned_recording_is_rerecorded():
    spec = PIM_SUITE["P2"]
    ctx = _ctx(1, 0.02, 4, 0)
    cache = WarpTraceCache()
    program = KernelInstance(spec, ctx, 0, seed=1, traces=cache).warp_program(0, 0)
    next(program)
    del program  # abandoned after one phase
    assert len(cache) == 0
    second = _programs(KernelInstance(spec, ctx, 0, seed=1, traces=cache), [(0, 0)])
    assert cache.hits == 0 and cache.recorded == 1
    assert second == _programs(KernelInstance(spec, ctx, 0, seed=1), [(0, 0)])
    _programs(KernelInstance(spec, ctx, 0, seed=1, traces=cache), [(0, 0)])
    assert cache.hits == 1


def test_systems_of_one_runner_share_records():
    scale = ExperimentScale(num_channels=2, gpu_sms_full=3, gpu_sms_corun=2, pim_sms=1,
                            noc_queue_size=16, workload_scale=0.02)
    runner = Runner(scale)
    first = runner._build_system(scale.config(1), PolicySpec("FR-FCFS"))
    second = runner._build_system(scale.config(2), PolicySpec("F3FS"))
    assert first.traces is runner.traces is second.traces
    first.add_kernel(PIM_SUITE["P2"], num_sms=1)
    first.run(max_cycles=200_000)
    assert runner.traces.hits == 0 and runner.traces.recorded > 0
    second.add_kernel(PIM_SUITE["P2"], num_sms=1)
    second.run(max_cycles=200_000)
    assert runner.traces.hits == runner.traces.recorded
    # A system built without a cache gets its own.
    alone = GPUSystem(scale.config(1), PolicySpec("FR-FCFS"), seed=1, scale=0.02)
    assert alone.traces is not runner.traces


def _corun(telemetry=False):
    reset_request_ids()
    config = SystemConfig.scaled(num_channels=2, num_sms=3, noc_queue_size=16)
    system = GPUSystem(config, PolicySpec("FR-FCFS"), seed=2, scale=0.03)
    system.add_kernel(RODINIA["G17"], num_sms=2, loop=True)
    system.add_kernel(PIM_SUITE["P1"], num_sms=1, loop=True)
    if telemetry:
        system.enable_telemetry()
    result = dataclasses.asdict(system.run(max_cycles=40_000))
    result.pop("telemetry", None)
    return system, result


def test_telemetry_on_matches_off():
    system, off = _corun()
    assert system.traces.hits > 0  # loop relaunches replayed
    _, on = _corun(telemetry=True)
    assert on == off

