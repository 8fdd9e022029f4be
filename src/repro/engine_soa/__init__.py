"""Compatibility entry point for building a simulated system.

The object engine (:class:`repro.sim.system.GPUSystem`) is the only
engine.  This module stays because the figure-grid benchmark under
``benchmarks/suite/`` imports ``create_system`` from here and wraps it
for its ``sim`` spans; the experiment runner and ``repro.perf.bench``
call it here so those spans see every system built.  New code should
build :class:`~repro.sim.system.GPUSystem` directly.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.core.policies import PolicySpec
from repro.sim.system import GPUSystem


def create_system(config: SystemConfig, policy: PolicySpec, **kwargs) -> GPUSystem:
    """Build a :class:`GPUSystem`; keyword arguments go to its constructor."""
    return GPUSystem(config, policy, **kwargs)
