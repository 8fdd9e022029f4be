"""Compatibility entry point for building a simulated system.

The object engine (:class:`repro.sim.system.GPUSystem`) is the only
engine.  This module serves the figure-grid benchmark under
``benchmarks/suite/``: its set-up snippet builds a system through
``create_system``, and its traced pass wraps ``create_system`` for the
``sim`` spans and the ``sim.builds`` count.  The experiment runner still
calls it here so that those spans see every system a sweep builds; it
can build :class:`~repro.sim.system.GPUSystem` directly once the traced
pass counts builds some other way.  Everything else builds
:class:`~repro.sim.system.GPUSystem` directly.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.core.policies import PolicySpec
from repro.sim.system import GPUSystem


def create_system(config: SystemConfig, policy: PolicySpec, **kwargs) -> GPUSystem:
    """Build a :class:`GPUSystem`; keyword arguments go to its constructor."""
    return GPUSystem(config, policy, **kwargs)
