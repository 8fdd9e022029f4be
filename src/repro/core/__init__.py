"""The paper's core contribution: PIM-aware memory-controller scheduling."""

from repro._exports import lazy_exports

_EXPORTS = {
    "ControllerStats": "controller",
    "MemoryController": "controller",
    "SwitchRecord": "controller",
    "PAPER_POLICY_ORDER": "policies",
    "PolicySpec": "policies",
    "SchedulingPolicy": "policies",
    "available_policies": "policies",
    "make_policy": "policies",
    "register_policy": "policies",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
