"""Host-side GPU substrate: SMs, kernels, warp programs."""

from repro._exports import lazy_exports

_EXPORTS = {
    "KernelInstance": "kernel",
    "KernelSpec": "kernel",
    "LaunchContext": "kernel",
    "Phase": "kernel",
    "SM": "sm",
    "WarpState": "sm",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
