"""A finished system holds no reference cycle.

A sweep builds and drops one ``GPUSystem`` per cell.  If a system were
cyclic garbage (a buffer hook capturing its buffer, a policy pointing back
at its controller, a stage table of bound methods), only a full
garbage-collector pass could free it, and a worker would either pile up
dead systems or pay for forced collections.  Here each system is built,
run and dropped with the collector disabled; the collection that follows
must then find nothing.
"""

import gc

import pytest

from repro.config import SystemConfig
from repro.core.policies import PolicySpec
from repro.sim.system import GPUSystem
from repro.workloads import get_gpu_kernel, get_pim_kernel


def _run(variant: str) -> None:
    config = SystemConfig.scaled(num_channels=2, num_sms=4).with_vc2
    if variant == "mesh":
        config = config.replace(noc_topology="mesh")
    elif variant == "refresh":
        config = config.replace(refresh_enabled=True)
    system = GPUSystem(config, PolicySpec("Dyn-F3FS", epoch=97), seed=3, scale=0.04)
    if variant == "watchdog":
        system.enable_watchdog()
    elif variant == "perf":
        system.enable_perf_counters()
    elif variant == "telemetry":
        system.enable_telemetry()
    system.add_kernel(get_gpu_kernel("G17"), num_sms=3, loop=True)
    system.add_kernel(get_pim_kernel("P2"), num_sms=1, loop=True)
    result = system.run(max_cycles=3_000, until_all_complete_once=False)
    assert result.cycles == 3_000


@pytest.mark.parametrize(
    "variant", ["plain", "watchdog", "perf", "telemetry", "mesh", "refresh"]
)
def test_finished_system_is_freed_without_collection(variant):
    _run(variant)  # first-use imports and caches create their own cycles
    gc.collect()
    gc.disable()
    try:
        _run(variant)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
